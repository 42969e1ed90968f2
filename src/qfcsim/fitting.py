"""Least-squares estimation on ``math`` alone: closed-form weighted line
fits, and the sin^2 conversion curve by Gauss-Newton steps with Levenberg
damping (Marquardt, SIAM J. Appl. Math. 11, 431 (1963)).  A 2x2 normal
matrix is inverted as adjugate over determinant, so a singular one raises
``ZeroDivisionError`` (``FitConvergenceError`` in a conversion fit); 95%
half-widths and bands use the linearized covariance scaled by the residual
variance and the Student-t quantile.

A ``Dataset`` holds its checked columns as tuples of floats, sorted by x.
The private core (``_line_values``, ``_conversion_values``) takes one and
returns a ``FitResult``'s fields, ``_conversion_band`` the fitted curve and
its 95% band from those; the CLI's ``fit`` and ``fig3b`` call them.  None of
this, nor ``extract_mu1``, needs numpy: only building a ``FitResult`` does.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from operator import lt
from typing import TYPE_CHECKING

from .optics import Record, check_range, conversion_model

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["Dataset", "FitResult", "FitConvergenceError", "fit_linear", "fit_conversion",
           "extract_mu1", "conversion_model"]

RAGGED = "ragged rows: x, y and sigma must have the same length"


class FitConvergenceError(ArithmeticError):
    """An ``ArithmeticError``: a nonlinear fit failed to converge, or gave
    non-finite estimates."""


def _weights(sigma, n: int) -> list[float]:
    """1/sigma^2 weights; unit weights without uncertainties."""
    return [1.0] * n if sigma is None else [1.0 / (s * s) for s in sigma]


class Dataset(Record):
    """Ordered (x, y, sigma_y) triples: tuples of floats, sorted by x on construction."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    sigma: tuple[float, ...] | None = None
    xlabel: str = "x"
    ylabel: str = "y"

    def __post_init__(self):
        try:  # float() refuses a nested or non-numeric item, map() a scalar
            x, y, sigma = (
                c if c is None else tuple(map(float, c.tolist() if hasattr(c, "tolist") else c))
                for c in (self.x, self.y, self.sigma))
        except TypeError:
            raise ValueError("x, y and sigma must be 1-d sequences of numbers") from None
        if len(y) != len(x) or sigma is not None and len(sigma) != len(x):
            raise ValueError(RAGGED)
        if sigma is not None and any(s <= 0 or s * s == 0 for s in sigma):  # weights are 1/s^2
            raise ValueError("sigma values must be positive, "
                             "with squares that do not underflow to 0")
        for name, values in ((self.xlabel, x), (self.ylabel, y), ("sigma", sigma)):
            if values is not None and not all(map(math.isfinite, values)):
                raise ValueError(f"{name} values must be finite")
        if not all(map(lt, x, x[1:])):  # unsorted or repeated: sort stably, then look again
            order = sorted(range(len(x)), key=x.__getitem__)
            x, y, sigma = (c if c is None else tuple([c[i] for i in order]) for c in (x, y, sigma))
            if not all(map(lt, x, x[1:])):
                raise ValueError("x values must be distinct")
        vars(self).update(x=x, y=y, sigma=sigma)


class FitResult(Record):
    """Estimates, linearized covariance and 95% half-widths, as float ndarrays."""

    params: np.ndarray
    cov: np.ndarray
    ci95: np.ndarray
    rss: float
    dof: int
    param_names: tuple[str, ...]
    extras: dict
    ill_conditioned: bool = False

    def __post_init__(self):
        import numpy as np

        for name in ("params", "cov", "ci95"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
            getattr(self, name).flags.writeable = False


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


def _inverse(a: list[list[float]]) -> list[list[float]]:
    """Inverse of a 2x2 matrix of nested lists, its adjugate over its
    determinant; a zero determinant raises ``ZeroDivisionError``."""
    (a00, a01), (a10, a11) = a
    det = a00 * a11 - a01 * a10
    return [[a11 / det, -a01 / det], [-a10 / det, a00 / det]]


def _damped_step(a00, a01, a11, g0, g1, lam):
    """s solving (A + lam diag(A)) s = g for A = [[a00, a01], [a01, a11]],
    by the explicit inverse; a zero determinant raises ``ZeroDivisionError``."""
    d00, d11 = a00 + lam * a00, a11 + lam * a11
    det = d00 * d11 - a01 * a01
    return (d11 * g0 - a01 * g1) / det, (d00 * g1 - a01 * g0) / det


def _rss(w, r) -> float:
    rss = 0.0  # summed left to right: builtin sum() of floats is compensated from Python 3.12
    for wi, ri in zip(w, r):
        rss += wi * (ri * ri)
    return rss


def _values(params, a_inv, rss: float, n_points: int, names: tuple[str, ...]) -> dict:
    """FitResult fields, ``extras`` empty: the covariance a^-1 scaled by rss / dof
    (unscaled, and infinite 95% half-widths, without degrees of freedom)."""
    dof = n_points - len(names)
    scale = rss / dof if dof > 0 else 1.0
    cov = [[v * scale for v in row] for row in a_inv]
    tq = _t975(dof) if dof > 0 else math.inf
    return {"params": list(params), "cov": cov, "rss": rss, "dof": dof, "param_names": names,
            "ci95": [tq * math.sqrt(cov[i][i]) for i in range(len(names))], "extras": {}}


def _line_values(data: Dataset, force_zero_intercept: bool) -> dict:
    """fit_linear's fields: the weighted normal equations."""
    x, y = data.x, data.y
    n_min = 1 if force_zero_intercept else 2
    if len(x) < n_min:
        raise ValueError(f"need at least {n_min} points")
    w = _weights(data.sigma, len(x))
    sw = sx = sy = sxx = sxy = 0.0  # summed left to right, as in _rss
    for wi, xi, yi in zip(w, x, y):
        wx = wi * xi  # 1.0 * x is x
        sw, sx, sy, sxx, sxy = sw + wi, sx + wx, sy + wi * yi, sxx + wx * xi, sxy + wx * yi
    if force_zero_intercept:
        a_inv = [[1.0 / sxx]]  # a zero sxx raises ZeroDivisionError
        params = [a_inv[0][0] * sxy]
        resid = [yi - params[0] * xi for xi, yi in zip(x, y)]
        return _values(params, a_inv, _rss(w, resid), len(x), ("slope",))
    (i00, i01), (i10, i11) = a_inv = _inverse([[sxx, sx], [sx, sw]])
    slope, intercept = i00 * sxy + i01 * sy, i10 * sxy + i11 * sy
    resid = [yi - (slope * xi + intercept) for xi, yi in zip(x, y)]
    return _values((slope, intercept), a_inv, _rss(w, resid), len(x), ("slope", "intercept"))


def fit_linear(data: Dataset, force_zero_intercept: bool = False) -> FitResult:
    """Weighted least-squares line fit; parameters ``("slope",)`` with a
    forced zero intercept, otherwise ``("slope", "intercept")``."""
    return FitResult(**_line_values(data, force_zero_intercept))


def _slopes(roots, eta_ext_max, eta_n, length_cm) -> list[float]:
    """The sin^2 model's derivative in eta_n at the pump powers with square
    roots ``roots``; the one in eta_ext_max is the model at eta_ext_max = 1."""
    k, c = 2 * length_cm * math.sqrt(eta_n), eta_ext_max * length_cm / (2 * math.sqrt(eta_n))
    return [c * rp * math.sin(k * rp) for rp in roots]


def _conversion_band(fit: dict, x, length_cm: float) -> list[tuple[float, float]]:
    """(fitted value, 95% half-width) at each pump power of ``x`` (W) for the
    ``_conversion_values`` fields ``fit``: t sqrt(g C g^T), g the model's gradient."""
    (eta, eta_n), ((c00, c01), (c10, c11)) = fit["params"], fit["cov"]
    tq = _t975(fit["dof"])
    slopes = _slopes(list(map(math.sqrt, x)), eta, eta_n, length_cm)
    return [(eta * j0, tq * math.sqrt(j0 * (c00 * j0 + c01 * j1) + j1 * (c10 * j0 + c11 * j1)))
            for j0, j1 in zip(conversion_model(x, 1.0, eta_n, length_cm), slopes)]


def _residuals(x, y, w, eta, eta_n, length_cm) -> tuple[list[float], list[float], float]:
    """The model at eta_ext_max = 1 per point, the residuals at eta, their RSS."""
    s2 = conversion_model(x, 1.0, eta_n, length_cm)
    r = [yi - eta * si for yi, si in zip(y, s2)]
    return s2, r, _rss(w, r)


def _levenberg(x, y, w, eta, eta_n, length_cm):
    """Damped Gauss-Newton on the sin^2 model with positive parameters;
    returns ((eta_ext_max, eta_n), J^T W J there as nested lists, the
    weighted RSS, converged), converged being False after 200 steps."""
    lam, s0, s1 = 1e-3, math.inf, math.inf
    roots = list(map(math.sqrt, x))
    s2, r, cost = _residuals(x, y, w, eta, eta_n, length_cm)
    for steps in range(201):
        a00 = a01 = a11 = g0 = g1 = 0.0  # J^T W J and J^T W r
        for j0, j1, wi, ri in zip(s2, _slopes(roots, eta, eta_n, length_cm), w, r):
            wj0, wj1 = wi * j0, wi * j1
            a00 += wj0 * j0
            a01 += wj0 * j1
            a11 += wj1 * j1
            g0 += wj0 * ri
            g1 += wj1 * ri
        converged = abs(s0) <= 1e-12 * eta and abs(s1) <= 1e-12 * eta_n
        if converged or steps == 200:
            break
        for _ in range(60):
            try:
                s0, s1 = _damped_step(a00, a01, a11, g0, g1, lam)
            except ZeroDivisionError:
                lam *= 10.0
                continue
            cand_eta, cand_n = eta + s0, eta_n + s1
            if cand_eta <= 0 or cand_n <= 0:
                lam *= 10.0
                continue
            cand = _residuals(x, y, w, cand_eta, cand_n, length_cm)
            if cand[2] <= cost:
                eta, eta_n, (s2, r, cost) = cand_eta, cand_n, cand
                lam = max(lam / 10.0, 1e-14)
                break
            lam *= 10.0
        else:
            converged = True  # damping saturated: stationary point
            break
    return (eta, eta_n), [[a00, a01], [a01, a11]], cost, converged


def _conversion_values(data: Dataset, length_cm: float) -> dict:
    """fit_conversion's fields, with the ill-conditioning flag set and warned about."""
    x, y = data.x, data.y
    if len(x) < 3:
        raise ValueError("need at least 3 points")
    check_range("smallest pump power", min(x), bounds="()")
    w = _weights(data.sigma, len(x))
    eta0 = max(y)
    check_range("largest efficiency", eta0, bounds="()")
    try:
        eta_n0 = (math.pi / 2.0) ** 2 / (length_cm**2 * x[y.index(eta0)])
    except ArithmeticError:  # L^2 overflows, or L^2 * P underflows to 0
        raise ArithmeticError(
            f"the waveguide length ({length_cm:g} cm) puts L^2 outside the float range"
        ) from None
    params, a, rss, converged = _levenberg(x, y, w, eta0, eta_n0, length_cm)
    try:
        a_inv = _inverse(a)
    except ZeroDivisionError:  # the curve's values are too small for J^T W J's products
        raise FitConvergenceError(
            f"the normal matrix J^T W J is singular at eta_ext_max = {params[0]:g}, "
            f"eta_n = {params[1]:g}; the fit has no covariance"
        ) from None
    values = _values(params, a_inv, rss, len(x), ("eta_ext_max", "eta_n"))
    extras = {"total_normalized_per_w": params[1] * length_cm**2,
              "total_normalized_ci95": values["ci95"][1] * length_cm**2}
    # dof >= 1 here, so an infinite half-width is no estimate either
    if not all(map(math.isfinite, (*params, rss, *values["ci95"], *extras.values()))):
        raise FitConvergenceError("conversion fit gave non-finite estimates")
    (c00, c01), (_, c11) = values["cov"]
    corr = c01 / math.sqrt(c00 * c11) if c00 > 0 and c11 > 0 else 0.0
    u_max = length_cm * math.sqrt(max(x) * params[1])
    # noisy linear-regime data can place the fitted u_max just past pi/4,
    # but then leave the parameters more than 0.99 correlated
    ill = abs(corr) > 0.99 or u_max < math.pi / 4.0
    if not converged and not ill:
        raise FitConvergenceError("conversion fit did not converge")
    if ill:
        warnings.warn("conversion fit is ill-conditioned: the data do not resolve the "
                      "saturation of the sin^2 curve, so the cap and the normalized "
                      "efficiency are not separately identifiable", stacklevel=3)
    return {**values, "ill_conditioned": ill, "extras": extras}


def fit_conversion(data: Dataset, length_cm: float) -> FitResult:
    """Fit the sin^2 conversion curve; parameters (eta_ext_max, eta_n).

    x is the pump power in W.  Initialization is deterministic: the cap
    starts at max(y) and eta_n from the quarter-period heuristic placing
    the peak at argmax(y).  The derived total normalized conversion
    eta_n * L^2 (per W) and its confidence half-width are reported in
    ``extras``.  Data confined to the linear regime leaves the two
    parameters unidentifiable and sets ``ill_conditioned``; such a fit is
    returned even when the iteration cap stops it, any other fit that
    reaches the cap raises ``FitConvergenceError``, as does a fit whose
    estimates, RSS or half-widths are not finite.
    """
    return FitResult(**_conversion_values(data, length_cm))


def extract_mu1(snr_vs_mu: Dataset) -> tuple[float, float]:
    """mu_1 (mean input photons giving subtracted SNR = 1) from an
    SNR-vs-mu dataset, via a zero-intercept line SNR = mu / mu_1.

    Returns (mu_1, 95% half-width).  The data must bracket SNR = 1.
    """
    if not snr_vs_mu.y:  # before min() and max(), which name no field
        raise ValueError("need at least 1 points")
    if not (min(snr_vs_mu.y) <= 1.0 <= max(snr_vs_mu.y)):
        raise ValueError("dataset does not span SNR = 1; mu_1 not bracketed")
    res = _line_values(snr_vs_mu, force_zero_intercept=True)
    (slope,), (half_width,) = res["params"], res["ci95"]
    if slope <= 0:
        raise ValueError("nonpositive SNR slope; mu_1 undefined")
    # mu_1 = 1/k, and by the delta method d(1/k)/dk = -1/k^2
    return 1.0 / slope, half_width / slope**2
