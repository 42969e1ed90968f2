"""Least-squares parameter estimation.

Linear fits use closed-form weighted normal equations; the conversion
curve fit uses a Gauss-Newton iteration with Levenberg-style damping,
implemented here (the two-parameter sin^2 model is well behaved and
needs no external solver).  Both solve their 1x1 or 2x2 normal equations
in closed form, through the adjugate over the determinant, with no
LAPACK call: at this size numpy's dispatch costs more than the algebra.
95% confidence half-widths come from the linearized covariance
(J^T W J)^-1 scaled by the residual variance, with the Student-t 97.5%
quantile for the finite degrees of freedom.  That
quantile is computed here too (``_t975``): Newton's method on the
two-sided t probability, which for integer degrees of freedom is a
finite sum of cosine powers (Abramowitz & Stegun 26.7.3-4), so the
package needs numpy alone at run time.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .optics import Record, conversion_model, replace

__all__ = [
    "Dataset",
    "FitResult",
    "FitConvergenceError",
    "fit_linear",
    "fit_conversion",
    "extract_mu1",
    "conversion_model",
]


class FitConvergenceError(RuntimeError):
    """Nonlinear fit failed to converge; carries the best parameters seen."""

    def __init__(self, message: str, best_params: np.ndarray):
        super().__init__(message)
        self.best_params = best_params


class Dataset(Record):
    """Ordered (x, y, sigma_y) triples; sorted by x on construction."""

    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray | None = None
    xlabel: str = "x"
    ylabel: str = "y"

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        sigma = self.sigma
        if sigma is not None:
            sigma = np.asarray(sigma, dtype=float)
            if sigma.shape != x.shape:
                raise ValueError("sigma must match x in length")
            if (sigma <= 0).any():
                raise ValueError("sigma values must be positive")
        for name, values in ((self.xlabel, x), (self.ylabel, y), ("sigma", sigma)):
            if values is not None and not np.isfinite(values).all():
                raise ValueError(f"{name} values must be finite")
        order = np.argsort(x, kind="stable")
        x, y = x[order], y[order]
        if sigma is not None:
            sigma = sigma[order]
        if (x[1:] <= x[:-1]).any():
            raise ValueError("x values must be distinct")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sigma", sigma)

    def __len__(self) -> int:
        return self.x.size

    def weights(self) -> np.ndarray:
        """1/sigma^2 weights; unit weights when no uncertainties given."""
        if self.sigma is None:
            return np.ones_like(self.y)
        return 1.0 / self.sigma**2


class FitResult(Record):
    """Estimates, linearized covariance and 95% confidence half-widths."""

    params: np.ndarray
    cov: np.ndarray
    ci95: np.ndarray
    rss: float
    dof: int
    param_names: tuple[str, ...]
    ill_conditioned: bool = False
    extras: dict = {}  # copied for each result

    def __getitem__(self, name: str) -> float:
        return float(self.params[self.param_names.index(name)])


@lru_cache(maxsize=128)
def _t975(dof: int) -> float:
    """Student-t 97.5% quantile for ``dof >= 1`` degrees of freedom.

    Newton's method from the normal quantile solves P(|T| < t) = 0.95,
    with the two-sided mass a finite sum in theta = atan(t / sqrt(dof))
    (Abramowitz & Stegun 26.7.3 for even dof, 26.7.4 for odd).  Its terms
    T_i = T_(i-2) cos^2(theta) (i - 1) / i run over i < dof; the next one,
    T_dof, gives the density: dP/dt = sqrt(dof) T_dof cos(theta), times
    2 / pi for odd dof.  P is concave in t > 0, so the steps approach the
    root monotonically from below.  The tests hold it to 1e-12 relative
    over dof 1-2000; its error there is about 1e-13.
    """
    odd = dof % 2
    root_nu = math.sqrt(dof)
    t = 1.959963984540054
    for _ in range(50):
        theta = math.atan(t / root_nu)
        c = math.cos(theta)
        total, term = 0.0, (c if odd else 1.0)
        for i in range(odd + 2, dof + 1, 2):
            total += term
            term *= c * c * (i - 1) / i
        mass = math.sin(theta) * total
        slope = root_nu * term * c
        if odd:
            mass = (theta + mass) * (2.0 / math.pi)
            slope *= 2.0 / math.pi
        step = (0.95 - mass) / slope
        t += step
        if step <= 1e-13 * t:
            return t
    raise ArithmeticError(f"t quantile for {dof} degrees of freedom did not converge")


def _ci_half_widths(cov: np.ndarray, dof: int) -> np.ndarray:
    tq = _t975(dof) if dof > 0 else math.inf
    return tq * np.sqrt(cov.diagonal())


def _inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a 1x1 or 2x2 matrix, its adjugate over its determinant;
    a zero determinant raises numpy's ``LinAlgError``."""
    rows = a.tolist()
    if len(rows) == 1:
        det, adj = rows[0][0], [[1.0]]
    else:
        (a00, a01), (a10, a11) = rows
        det, adj = a00 * a11 - a01 * a10, [[a11, -a01], [-a10, a00]]
    if det == 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return np.array(adj) / det


def _damped_step(a00, a01, a11, g0, g1, lam):
    """s solving (A + lam diag(A)) s = g for A = [[a00, a01], [a01, a11]],
    by the explicit inverse; a zero determinant raises ``LinAlgError``."""
    d00, d11 = a00 + lam * a00, a11 + lam * a11
    det = d00 * d11 - a01 * a01
    if det == 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return (d11 * g0 - a01 * g1) / det, (d00 * g1 - a01 * g0) / det


def _fit_result(params, a_inv, w, resid, names: tuple[str, ...]) -> FitResult:
    """Covariance a^-1 scaled by the residual variance rss / dof (unscaled
    without degrees of freedom) and its 95% half-widths."""
    rss = float((w * resid**2).sum())
    dof = resid.size - len(names)
    scale = rss / dof if dof > 0 else 1.0
    cov = a_inv * scale
    return FitResult(params=params, cov=cov, ci95=_ci_half_widths(cov, dof), rss=rss,
                     dof=dof, param_names=names)


def fit_linear(data: Dataset, force_zero_intercept: bool = False) -> FitResult:
    """Weighted least-squares line fit; closed-form normal equations.

    Parameters are ``("slope",)`` with a forced zero intercept, otherwise
    ``("slope", "intercept")``.
    """
    n_min = 1 if force_zero_intercept else 2
    if len(data) < n_min:
        raise ValueError(f"need at least {n_min} points")
    x, y, w = data.x, data.y, data.weights()
    if force_zero_intercept:
        design, names = x[:, None], ("slope",)
    else:
        design, names = np.column_stack([x, np.ones_like(x)]), ("slope", "intercept")
    wdt = design.T * w
    a_inv = _inverse(wdt @ design)
    params = a_inv @ (wdt @ y)
    return _fit_result(params, a_inv, w, y - design @ params, names)


def _conversion_jacobian(pump_w, eta_ext_max, eta_n, length_cm):
    p = np.asarray(pump_w, dtype=float)
    u = length_cm * np.sqrt(p * eta_n)
    jac = np.empty((p.size, 2))
    jac[:, 0] = conversion_model(p, 1.0, eta_n, length_cm)
    jac[:, 1] = eta_ext_max * np.sin(2 * u) * length_cm * np.sqrt(p) / (2 * math.sqrt(eta_n))
    return jac


def _levenberg(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, eta: float, eta_n: float, length_cm: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Damped Gauss-Newton on the sin^2 model with positive parameters
    (eta_ext_max, eta_n), carried as floats; returns (params, J^T W J at
    the solution, residuals, converged), where converged is False after
    200 iterations.  J^T W J and J^T W r are read as floats once per
    iteration."""
    lam = 1e-3
    converged = True
    r = y - conversion_model(x, eta, eta_n, length_cm)
    cost = float((w * r**2).sum())
    for _ in range(200):
        jac = _conversion_jacobian(x, eta, eta_n, length_cm)
        wjt = jac.T * w
        (a00, a01), (_, a11) = (wjt @ jac).tolist()
        g0, g1 = (wjt @ r).tolist()
        for _ in range(60):
            try:
                s0, s1 = _damped_step(a00, a01, a11, g0, g1, lam)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand_eta, cand_n = eta + s0, eta_n + s1
            if cand_eta <= 0 or cand_n <= 0:
                lam *= 10.0
                continue
            cand_r = y - conversion_model(x, cand_eta, cand_n, length_cm)
            cand_cost = float((w * cand_r**2).sum())
            if cand_cost <= cost:
                eta, eta_n, r, cost = cand_eta, cand_n, cand_r, cand_cost
                lam = max(lam / 10.0, 1e-14)
                break
            lam *= 10.0
        else:
            break  # damping saturated: stationary point
        if abs(s0) <= 1e-12 * eta and abs(s1) <= 1e-12 * eta_n:
            break
    else:
        converged = False
    jac = _conversion_jacobian(x, eta, eta_n, length_cm)
    return np.array([eta, eta_n]), (jac.T * w) @ jac, r, converged


def fit_conversion(data: Dataset, length_cm: float) -> FitResult:
    """Fit the sin^2 conversion curve; parameters (eta_ext_max, eta_n).

    x is the pump power in W.  Initialization is deterministic: the cap
    starts at max(y) and eta_n from the quarter-period heuristic placing
    the peak at argmax(y).  The derived total normalized conversion
    eta_n * L^2 (per W) and its confidence half-width are reported in
    ``extras``.  Data confined to the linear regime leaves the two
    parameters unidentifiable and sets ``ill_conditioned``; such a fit is
    returned even when the iteration cap stops it, any other fit that
    reaches the cap raises ``FitConvergenceError``.
    """
    if len(data) < 3:
        raise ValueError("need at least 3 points")
    if (data.x <= 0).any():
        raise ValueError("pump powers must be positive")
    x, y, w = data.x, data.y, data.weights()
    eta0 = float(y.max())
    if eta0 <= 0:
        raise ValueError("fit requires positive efficiencies")
    p_peak = float(x[y.argmax()])
    eta_n0 = (math.pi / 2.0) ** 2 / (length_cm**2 * p_peak)
    params, a, resid, converged = _levenberg(x, y, w, eta0, eta_n0, length_cm)
    res = _fit_result(params, _inverse(a), w, resid, ("eta_ext_max", "eta_n"))

    cov = res.cov
    corr = cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1]) if cov[0, 0] > 0 and cov[1, 1] > 0 else 0.0
    u_max = length_cm * math.sqrt(float(x.max()) * params[1])
    # noisy linear-regime data can place the fitted u_max just past pi/4,
    # but then leave the parameters more than 0.99 correlated
    ill = abs(corr) > 0.99 or u_max < math.pi / 4.0
    if not converged and not ill:
        raise FitConvergenceError("conversion fit did not converge", best_params=params)
    if ill:
        warnings.warn(
            "conversion fit is ill-conditioned: the data do not resolve the "
            "saturation of the sin^2 curve, so the cap and the normalized "
            "efficiency are not separately identifiable",
            stacklevel=2,
        )
    return replace(
        res,
        ill_conditioned=ill,
        extras={
            "total_normalized_per_w": float(params[1]) * length_cm**2,
            "total_normalized_ci95": float(res.ci95[1]) * length_cm**2,
        },
    )


def extract_mu1(snr_vs_mu: Dataset) -> tuple[float, float]:
    """mu_1 (mean input photons giving subtracted SNR = 1) from an
    SNR-vs-mu dataset, via a zero-intercept line SNR = mu / mu_1.

    Returns (mu_1, 95% half-width).  The data must bracket SNR = 1.
    """
    if not (snr_vs_mu.y.min() <= 1.0 <= snr_vs_mu.y.max()):
        raise ValueError("dataset does not span SNR = 1; mu_1 not bracketed")
    res = fit_linear(snr_vs_mu, force_zero_intercept=True)
    slope = res["slope"]
    if slope <= 0:
        raise ValueError("nonpositive SNR slope; mu_1 undefined")
    mu_1 = 1.0 / slope
    # delta method: d(1/k)/dk = -1/k^2
    return mu_1, float(res.ci95[0]) / slope**2

