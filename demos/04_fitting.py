"""Recovering the conversion curve from noisy measurements.

Generates a synthetic pump-power sweep of the external conversion
efficiency with 5% relative noise, fits the two-parameter sin^2 model
with the in-package damped Gauss-Newton solver, and reads off the total
normalized conversion with its confidence interval. Also shows what the
ill-conditioning guard reports when the sweep never leaves the linear
regime.
"""

import warnings

import numpy as np

from qfcsim import Dataset, conversion_model, fit_conversion

rng = np.random.default_rng(3)

# ----------------------------------------------------------------------
# A well-designed sweep: powers up to saturation
# ----------------------------------------------------------------------
pumps = np.linspace(0.02, 0.6, 15)  # W
truth = conversion_model(pumps, 0.25, 0.72, 3.0)
measured = np.asarray(truth) * (1.0 + 0.05 * rng.standard_normal(len(truth)))

fit = fit_conversion(Dataset(x=pumps, y=measured, xlabel="P_p_W", ylabel="eta_ext"),
                     length_cm=3.0)
print("fit of eta_ext(P) = cap * sin^2(L sqrt(P eta_n)), 15 points, 5% noise:")
for i, name in enumerate(fit.param_names):
    print(f"  {name:12s} = {fit.params[i]:.4f} +- {fit.ci95[i]:.4f} (95%)")
print(f"  total normalized conversion eta_n L^2 = "
      f"{fit.extras['total_normalized_per_w']:.2f} +- "
      f"{fit.extras['total_normalized_ci95']:.2f} /W")
print(f"  truth: cap 0.25, eta_n 0.72, eta_n L^2 = 6.48 /W")

# ----------------------------------------------------------------------
# A badly-designed sweep: linear regime only
# ----------------------------------------------------------------------
print("\nsame fit restricted to pump powers far below saturation:")
pumps_lin = np.linspace(0.001, 0.01, 10)
data_lin = Dataset(x=pumps_lin, y=conversion_model(pumps_lin, 0.25, 0.72, 3.0))
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    fit_lin = fit_conversion(data_lin, length_cm=3.0)
print(f"  ill_conditioned flag: {fit_lin.ill_conditioned}")
if caught:
    print(f"  warning: {caught[0].message}")
print("  (only the product cap * eta_n is constrained by such data)")
