"""Least-squares parameter estimation.

Linear fits use closed-form weighted normal equations; the conversion
curve fit uses a Gauss-Newton iteration with Levenberg-style damping,
implemented here (the two-parameter sin^2 model is well behaved and
needs no external solver).  95% confidence half-widths come from the
linearized covariance (J^T W J)^-1 scaled by the residual variance, with
the Student-t 97.5% quantile for the finite degrees of freedom.  That
quantile is computed here too (``_t975``): Newton's method on the
regularized incomplete beta function, evaluated by the modified-Lentz
continued fraction (Press et al., Numerical Recipes, section 6.4), so
the package needs numpy alone at run time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .optics import conversion_model

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


@dataclass(frozen=True)
class Dataset:
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
            if np.any(sigma <= 0):
                raise ValueError("sigma values must be positive")
        for name, values in ((self.xlabel, x), (self.ylabel, y), ("sigma", sigma)):
            if values is not None and not np.all(np.isfinite(values)):
                raise ValueError(f"{name} values must be finite")
        order = np.argsort(x, kind="stable")
        x, y = x[order], y[order]
        if sigma is not None:
            sigma = sigma[order]
        if x.size > 1 and np.any(np.diff(x) <= 0):
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


@dataclass(frozen=True)
class FitResult:
    """Estimates, linearized covariance and 95% confidence half-widths."""

    params: np.ndarray
    cov: np.ndarray
    ci95: np.ndarray
    rss: float
    dof: int
    param_names: tuple[str, ...]
    ill_conditioned: bool = False
    extras: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        return float(self.params[self.param_names.index(name)])


# Cornish-Fisher expansion of the t quantile in powers of 1/dof around
# the normal quantile z = 1.959963984540054 (Abramowitz & Stegun 26.7.5)
_Z975 = 1.959963984540054
_Z2 = _Z975 * _Z975
_CORNISH_FISHER = (
    _Z975,
    (_Z2 + 1.0) * _Z975 / 4.0,
    ((5.0 * _Z2 + 16.0) * _Z2 + 3.0) * _Z975 / 96.0,
    (((3.0 * _Z2 + 19.0) * _Z2 + 17.0) * _Z2 - 15.0) * _Z975 / 384.0,
    ((((79.0 * _Z2 + 776.0) * _Z2 + 1482.0) * _Z2 - 1920.0) * _Z2 - 945.0) * _Z975 / 92160.0,
)
_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by the modified Lentz method; it
    converges fast for x below about (a + 1) / (a + b + 2)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / (1.0 - qab * x / qap)
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            delta = d * c
            h *= delta
        if abs(delta - 1.0) <= 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta I_{x}({a}, {b}) did not converge")


@lru_cache(maxsize=128)
def _t975(dof: int) -> float:
    """Student-t 97.5% quantile for ``dof >= 1`` degrees of freedom.

    dof 1 and 2 have closed forms.  Above them, Newton's method from the
    Cornish-Fisher value solves P(|T| < t) = I_y(1/2, dof/2) = 0.95 with
    y = t^2 / (dof + t^2), about 3.84 / dof for large dof: the continued
    fraction needs far fewer terms there than at 1 - y.  The tests hold
    it to 1e-12 relative over dof 1-2000; its error there is about 2e-14.
    """
    if dof == 1:
        return math.tan(0.475 * math.pi)
    if dof == 2:
        return 0.95 / math.sqrt(2.0 * 0.975 * 0.025)
    nu = float(dof)
    b = 0.5 * nu
    # Gamma((dof + 1) / 2) / (sqrt(pi) Gamma(dof / 2)) by its two-step
    # recurrence; lgamma differences lose ~1e-12 at dof ~ 2000
    k0, norm = (1, 1.0 / math.pi) if dof % 2 else (2, 0.5)
    for k in range(k0, dof, 2):
        norm *= (k + 1.0) / k
    t = sum(g / nu**i for i, g in enumerate(_CORNISH_FISHER))
    for _ in range(20):
        t2 = t * t
        y = t2 / (nu + t2)
        tail = math.exp(b * math.log1p(-y))  # (1 - y)^(dof / 2)
        mass = 2.0 * norm * math.sqrt(y) * tail * _beta_cf(0.5, b, y)
        density = norm * tail * math.sqrt((1.0 - y) / nu)
        step = (mass - 0.95) / (2.0 * density)
        t -= step
        if abs(step) <= 1e-13 * t:
            break
    return t


def _ci_half_widths(cov: np.ndarray, dof: int) -> np.ndarray:
    tq = _t975(dof) if dof > 0 else math.inf
    return tq * np.sqrt(np.diag(cov))


def fit_linear(data: Dataset, force_zero_intercept: bool = False) -> FitResult:
    """Weighted least-squares line fit; closed-form normal equations.

    Parameters are ``("slope",)`` with a forced zero intercept, otherwise
    ``("slope", "intercept")``.
    """
    n_min = 1 if force_zero_intercept else 2
    if len(data) < n_min:
        raise ValueError(f"need at least {n_min} points")
    x, y, w = data.x, data.y, data.weights()
    if not force_zero_intercept and np.ptp(x) == 0.0:
        raise ValueError("singular design: all x values equal")
    if force_zero_intercept:
        design = x[:, None]
        names = ("slope",)
    else:
        design = np.column_stack([x, np.ones_like(x)])
        names = ("slope", "intercept")
    a = design.T @ (w[:, None] * design)
    b = design.T @ (w * y)
    params = np.linalg.solve(a, b)
    resid = y - design @ params
    rss = float(np.sum(w * resid**2))
    dof = len(data) - len(names)
    scale = rss / dof if dof > 0 else 1.0
    cov = np.linalg.inv(a) * scale
    return FitResult(
        params=params,
        cov=cov,
        ci95=_ci_half_widths(cov, dof),
        rss=rss,
        dof=dof,
        param_names=names,
    )


def _conversion_jacobian(pump_w, eta_ext_max, eta_n, length_cm):
    p = np.asarray(pump_w, dtype=float)
    u = length_cm * np.sqrt(p * eta_n)
    jac = np.empty((p.size, 2))
    jac[:, 0] = conversion_model(p, 1.0, eta_n, length_cm)
    jac[:, 1] = eta_ext_max * np.sin(2 * u) * length_cm * np.sqrt(p) / (2 * math.sqrt(eta_n))
    return jac


def _levenberg(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    p0: np.ndarray,
    w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Damped Gauss-Newton with positive parameters; returns (params,
    J^T W J at the solution, converged), where converged is False after
    200 iterations."""
    p = np.array(p0, dtype=float)
    lam = 1e-3
    converged = True
    cost = float(np.sum(w * residual_fn(p) ** 2))
    for _ in range(200):
        r = residual_fn(p)
        jac = jacobian_fn(p)
        a = jac.T @ (w[:, None] * jac)
        g = jac.T @ (w * r)
        step = None
        for _ in range(60):
            try:
                cand_step = np.linalg.solve(a + lam * np.diag(np.diag(a)), g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = p + cand_step
            if np.any(cand <= 0):
                lam *= 10.0
                continue
            cand_cost = float(np.sum(w * residual_fn(cand) ** 2))
            if cand_cost <= cost:
                step, p, cost = cand_step, cand, cand_cost
                lam = max(lam / 10.0, 1e-14)
                break
            lam *= 10.0
        if step is None:
            break  # damping saturated: stationary point
        if np.all(np.abs(step) <= 1e-12 * np.abs(p)):
            break
    else:
        converged = False
    jac = jacobian_fn(p)
    return p, jac.T @ (w[:, None] * jac), converged


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
    if np.any(data.x <= 0):
        raise ValueError("pump powers must be positive")
    x, y, w = data.x, data.y, data.weights()
    eta0 = float(np.max(y))
    if eta0 <= 0:
        raise ValueError("fit requires positive efficiencies")
    p_peak = float(x[np.argmax(y)])
    eta_n0 = (math.pi / 2.0) ** 2 / (length_cm**2 * p_peak)
    p0 = np.array([eta0, eta_n0])

    def residual(p):
        return y - conversion_model(x, p[0], p[1], length_cm)

    def jacobian(p):
        return _conversion_jacobian(x, p[0], p[1], length_cm)

    params, a, converged = _levenberg(residual, jacobian, p0, w)
    resid = residual(params)
    rss = float(np.sum(w * resid**2))
    dof = len(data) - 2
    scale = rss / dof if dof > 0 else 1.0
    cov = np.linalg.inv(a) * scale

    corr = cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1]) if cov[0, 0] > 0 and cov[1, 1] > 0 else 0.0
    u_max = length_cm * math.sqrt(float(np.max(x)) * params[1])
    ill = abs(corr) > 0.999 or u_max < math.pi / 4.0
    if not converged and not ill:
        raise FitConvergenceError("conversion fit did not converge", best_params=params)
    if ill:
        warnings.warn(
            "conversion fit is ill-conditioned: the data do not resolve the "
            "saturation of the sin^2 curve, so the cap and the normalized "
            "efficiency are not separately identifiable",
            stacklevel=2,
        )
    ci95 = _ci_half_widths(cov, dof)
    total_norm = float(params[1]) * length_cm**2
    return FitResult(
        params=params,
        cov=cov,
        ci95=ci95,
        rss=rss,
        dof=dof,
        param_names=("eta_ext_max", "eta_n"),
        ill_conditioned=ill,
        extras={
            "total_normalized_per_w": total_norm,
            "total_normalized_ci95": float(ci95[1]) * length_cm**2,
        },
    )


def extract_mu1(snr_vs_mu: Dataset) -> tuple[float, float]:
    """mu_1 (mean input photons giving subtracted SNR = 1) from an
    SNR-vs-mu dataset, via a zero-intercept line SNR = mu / mu_1.

    Returns (mu_1, 95% half-width).  The data must bracket SNR = 1.
    """
    if not (np.min(snr_vs_mu.y) <= 1.0 <= np.max(snr_vs_mu.y)):
        raise ValueError("dataset does not span SNR = 1; mu_1 not bracketed")
    res = fit_linear(snr_vs_mu, force_zero_intercept=True)
    slope = res["slope"]
    if slope <= 0:
        raise ValueError("nonpositive SNR slope; mu_1 undefined")
    mu_1 = 1.0 / slope
    # delta method: d(1/k)/dk = -1/k^2
    return mu_1, float(res.ci95[0]) / slope**2

