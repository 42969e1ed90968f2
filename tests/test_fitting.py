"""Least-squares estimation unit tests."""

import hashlib
import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import t as student_t

from oracles import levenberg_lapack
from qfcsim import fitting
from qfcsim.fitting import (
    Dataset,
    FitConvergenceError,
    _damped_step,
    _inverse,
    _t975,
    conversion_model,
    extract_mu1,
    fit_conversion,
    fit_linear,
)


class TestDataset:
    def test_sorts_by_x(self):
        d = Dataset(x=[3.0, 1.0, 2.0], y=[30.0, 10.0, 20.0])
        assert list(d.x) == [1.0, 2.0, 3.0]
        assert list(d.y) == [10.0, 20.0, 30.0]

    def test_sigma_follows_sort(self):
        d = Dataset(x=[2.0, 1.0], y=[20.0, 10.0], sigma=[0.2, 0.1])
        assert list(d.sigma) == [0.1, 0.2]

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Dataset(x=[1.0, 1.0], y=[1.0, 2.0])

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Dataset(x=[1.0, 2.0], y=[1.0, 2.0], sigma=[0.1, 0.0])

    def test_nonfinite_rejected(self):
        for bad in ({"x": [1.0, float("nan")]}, {"y": [1.0, float("inf")]},
                    {"sigma": [0.1, float("nan")]}):
            kw = {"x": [1.0, 2.0], "y": [1.0, 2.0], **bad}
            with pytest.raises(ValueError, match="must be finite"):
                Dataset(**kw)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(x=[1.0, 2.0], y=[1.0])

    @pytest.mark.parametrize("bad", [
        {"x": np.array([[1.0, 2.0], [3.0, 4.0]])},
        {"y": [[1.0], [2.0]]},
        {"sigma": np.ones((2, 1))},
        {"x": 1.0},
        {"y": np.float32(2.0)},
        {"x": [1.0, None]},
    ], ids=["2-d ndarray", "nested list", "2-d sigma", "scalar", "numpy scalar", "None item"])
    def test_not_1d_rejected(self, bad):
        kw = {"x": [1.0, 2.0], "y": [1.0, 2.0], **bad}
        with pytest.raises(ValueError, match="^x, y and sigma must be 1-d sequences of numbers$"):
            Dataset(**kw)

    def test_fields_are_tuples_of_floats(self):
        for x in ([2, 1, 3], (2.0, 1.0, 3.0), np.array([2, 1, 3]), np.array([2.0, 1.0, 3.0])):
            d = Dataset(x=x, y=np.array([0.2, 0.1, 0.3], dtype=np.float32), sigma=[1, 1, 2])
            for values in (d.x, d.y, d.sigma):
                assert type(values) is tuple and {type(v) for v in values} == {float}
            assert d.x == (1.0, 2.0, 3.0) and d.sigma == (1.0, 1.0, 2.0)
        assert Dataset(x=[1.0, 2.0], y=[1.0, 2.0]).sigma is None

    def test_unit_weights_default(self):
        x, y = [1.0, 2.0, 3.0], [1.0, 2.5, 2.9]
        assert fit_linear(Dataset(x=x, y=y)) == fit_linear(Dataset(x=x, y=y, sigma=[1.0] * 3))


class TestReadOnlyArrays:
    """The values of a dataset and a fit cannot be written to, so a value
    written after the checks of construction cannot reach a fit."""

    def test_dataset_rejects_a_nan_written_after_its_checks(self):
        x = [0.1, 0.2, 0.3, 0.4]
        data = Dataset(x=x, y=[0.05, 0.1, 0.15, 0.2])
        with pytest.raises(TypeError, match="does not support item assignment"):
            data.x[1] = math.nan
        x[1] = math.nan  # the caller's list is not the dataset's
        assert data.x == (0.1, 0.2, 0.3, 0.4)

    def test_dataset_rejects_a_duplicate_x_written_after_its_checks(self):
        data = Dataset(x=[0.1, 0.2, 0.3, 0.4], y=[0.05, 0.1, 0.15, 0.2], sigma=[0.01] * 4)
        for name in ("x", "y", "sigma"):
            with pytest.raises(TypeError, match="does not support item assignment"):
                getattr(data, name)[1] = 0.1

    def test_fit_result_arrays_read_only_and_not_the_callers(self):
        fit = fit_linear(Dataset(x=[1.0, 2.0, 3.0], y=[2.0, 4.1, 5.9]))
        for name in ("params", "cov", "ci95"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(fit, name)[0] = 0.0
        params = np.array([1.0, 2.0])
        fitting.FitResult(params, np.eye(2), params, 0.0, 1, ("a", "b"), {})
        params[0] = 3.0  # the caller's array stays writeable


class TestStudentQuantile:
    def test_matches_scipy(self):
        dofs = np.arange(1, 2001)
        ours = np.array([_t975(int(k)) for k in dofs])
        np.testing.assert_allclose(ours, student_t.ppf(0.975, dofs), rtol=1e-12, atol=0)

    def test_no_degrees_of_freedom_gives_infinite_width(self):
        res = fit_linear(Dataset(x=[1.0, 2.0], y=[1.0, 3.0]))
        assert res.dof == 0 and np.all(np.isinf(res.ci95))

    def test_repeated_dof_served_from_cache(self):
        _t975.cache_clear()
        first = _t975(37)
        assert _t975(37) == first
        info = _t975.cache_info()
        assert (info.hits, info.misses) == (1, 1)


class TestFitLinear:
    def test_exact_line(self):
        d = Dataset(x=[1.0, 2.0, 3.0, 4.0], y=[2.5 * v + 1.0 for v in (1.0, 2.0, 3.0, 4.0)])
        res = fit_linear(d)
        assert res.params[res.param_names.index("slope")] == pytest.approx(2.5, rel=1e-12)
        assert res.params[res.param_names.index("intercept")] == pytest.approx(1.0, rel=1e-12)
        assert res.rss == pytest.approx(0.0, abs=1e-20)

    def test_zero_intercept(self):
        d = Dataset(x=[1.0, 2.0, 4.0], y=[0.7, 1.4, 2.8])
        res = fit_linear(d, force_zero_intercept=True)
        assert res.param_names == ("slope",)
        assert res.params[res.param_names.index("slope")] == pytest.approx(0.7, rel=1e-12)

    def test_singular_design(self):
        with pytest.raises(ValueError, match="need at least"):
            fit_linear(Dataset(x=[1.0], y=[1.0]))

    def test_weighted_pull(self):
        # a tight point dominates a loose outlier
        d = Dataset(x=[1.0, 2.0, 3.0], y=[1.0, 2.0, 9.0], sigma=[0.01, 0.01, 10.0])
        res = fit_linear(d)
        assert res.params[res.param_names.index("slope")] == pytest.approx(1.0, abs=0.01)

    @given(
        slope=st.floats(-10.0, 10.0),
        intercept=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=50)
    def test_recovers_exact_parameters(self, slope, intercept):
        x = np.array([0.5, 1.0, 2.0, 3.5, 5.0])
        d = Dataset(x=x, y=slope * x + intercept)
        res = fit_linear(d)
        assert res.params[res.param_names.index("slope")] == pytest.approx(slope, abs=1e-8)
        assert res.params[res.param_names.index("intercept")] == pytest.approx(intercept, abs=1e-8)


class TestLeftToRightSums:
    """The fits add floats left to right from 0.0, as ``sum()`` did before
    Python 3.12 compensated it, so their last bits do not move with the
    interpreter."""

    def test_rss(self):
        # 1e16 + 1 rounds to 1e16, twice; the exact sum is 1e16 + 2
        assert fitting._rss([1.0] * 3, [1e8, 1.0, 1.0]) == 1e16
        assert math.fsum([1e16, 1.0, 1.0]) == 1e16 + 2

    def test_line_sums(self):
        # x * y is 1e16, 1 and 1, so the sum over x * y reads 1e16, not 1e16 + 2
        d = Dataset(x=[1.0, 2.0, 3.0], y=[1e16, 0.5, 1.0 / 3.0])
        assert fit_linear(d, force_zero_intercept=True).params[0] == 1e16 / 14.0
        assert (1e16 + 2.0) / 14.0 != 1e16 / 14.0


class TestFitConversion:
    def test_noiseless_roundtrip(self):
        p = np.linspace(0.02, 0.6, 15)
        d = Dataset(x=p, y=conversion_model(p, 0.25, 0.72, 3.0))
        res = fit_conversion(d, length_cm=3.0)
        assert res.params[res.param_names.index("eta_ext_max")] == pytest.approx(0.25, rel=1e-9)
        assert res.params[res.param_names.index("eta_n")] == pytest.approx(0.72, rel=1e-9)
        assert res.extras["total_normalized_per_w"] == pytest.approx(6.48, rel=1e-9)
        assert not res.ill_conditioned

    def test_noisy_recovery(self):
        rng = np.random.default_rng(11)
        p = np.linspace(0.02, 0.6, 15)
        y = np.asarray(conversion_model(p, 0.25, 0.72, 3.0))
        y *= 1.0 + 0.05 * rng.standard_normal(p.size)
        res = fit_conversion(Dataset(x=p, y=y), length_cm=3.0)
        assert res.params[res.param_names.index("eta_ext_max")] == pytest.approx(0.25, rel=0.1)
        assert res.params[res.param_names.index("eta_n")] == pytest.approx(0.72, rel=0.1)

    def test_linear_regime_flagged(self):
        # all powers far below the quarter-wave point: only the product
        # eta_ext_max * eta_n is constrained
        p = np.linspace(0.001, 0.01, 10)
        d = Dataset(x=p, y=conversion_model(p, 0.25, 0.72, 3.0))
        with pytest.warns(UserWarning, match="ill-conditioned"):
            res = fit_conversion(d, length_cm=3.0)
        assert res.ill_conditioned

    def test_linear_regime_iteration_cap_flagged(self):
        # noisy linear-regime data: the fit walks the flat valley until the
        # iteration cap, and is returned flagged instead of raising
        rng = np.random.default_rng(5)
        p = np.sort(rng.uniform(0.001, 0.02, 30))
        y = np.asarray(conversion_model(p, 0.25, 0.72, 3.0))
        y *= 1.0 + 0.05 * rng.standard_normal(30)
        with pytest.warns(UserWarning, match="ill-conditioned"):
            res = fit_conversion(Dataset(x=p, y=y), length_cm=3.0)
        assert res.ill_conditioned

    def test_nonfinite_estimates_raise(self):
        # efficiencies of 1e300 square to an infinite RSS, which no estimate has
        d = Dataset(x=[0.1, 0.2, 0.3, 0.4, 0.5], y=[1e300] * 5)
        with pytest.raises(FitConvergenceError, match="non-finite estimates") as exc:
            fit_conversion(d, length_cm=3.0)
        assert isinstance(exc.value, ArithmeticError)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="positive"):
            fit_conversion(Dataset(x=[-0.1, 0.2, 0.3], y=[0.1, 0.1, 0.1]), 3.0)
        with pytest.raises(ValueError, match="at least 3"):
            fit_conversion(Dataset(x=[0.1, 0.2], y=[0.1, 0.1]), 3.0)


def _noisy_curve(eta_ext_max, eta_n, lo_w, hi_w, seed, length_cm=3.0):
    """30 sorted pump powers uniform in [lo_w, hi_w] W and the sin^2 curve
    at them with 5% relative Gaussian noise."""
    rng = np.random.default_rng(seed)
    p = np.sort(rng.uniform(lo_w, hi_w, 30))
    y = np.asarray(conversion_model(p, eta_ext_max, eta_n, length_cm))
    y *= 1.0 + 0.05 * rng.standard_normal(30)
    return Dataset(x=p, y=y)


class TestFitRecovery:
    """Generated noisy curves: recovered where the powers span the peak,
    flagged where the curve stays linear."""

    @given(
        eta_ext_max=st.floats(0.2, 0.3),
        eta_n=st.floats(0.5, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_spanning_the_peak_recovers_parameters(self, eta_ext_max, eta_n, seed):
        # the peak, at (pi/2)^2 / (L^2 eta_n) <= 0.55 W, lies inside the powers
        res = fit_conversion(_noisy_curve(eta_ext_max, eta_n, 0.02, 0.6, seed), length_cm=3.0)
        assert not res.ill_conditioned
        i, j = res.param_names.index("eta_ext_max"), res.param_names.index("eta_n")
        assert abs(res.params[i] - eta_ext_max) <= 4.0 * res.ci95[i]
        assert abs(res.params[j] - eta_n) <= 4.0 * res.ci95[j]

    @given(
        eta_ext_max=st.floats(0.2, 0.3),
        eta_n=st.floats(0.5, 1.0),
        u_max=st.floats(0.05, math.pi / 4.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_linear_regime_flagged(self, eta_ext_max, eta_n, u_max, seed):
        # the largest power reaches u = L sqrt(P eta_n) = u_max < pi/4
        hi_w = (u_max / 3.0) ** 2 / eta_n
        data = _noisy_curve(eta_ext_max, eta_n, hi_w / 20.0, hi_w, seed)
        with pytest.warns(UserWarning, match="ill-conditioned"):
            res = fit_conversion(data, length_cm=3.0)
        assert res.ill_conditioned


def _lapack_fit(data, length_cm):
    """``fit_conversion`` on the LAPACK path: the oracle's Gauss-Newton
    iteration and ``np.linalg.inv`` for the covariance, each checked to
    have run."""
    with mock.patch.object(fitting, "_levenberg", side_effect=levenberg_lapack) as solver, \
            mock.patch.object(fitting, "_inverse",
                              side_effect=lambda a: np.linalg.inv(a).tolist()) as inverse:
        res = fit_conversion(data, length_cm)
    assert solver.call_count == 1 and inverse.call_count == 1
    return res


class TestLapackOracle:
    """The closed-form 2x2 algebra against LAPACK solves."""

    @given(
        n=st.integers(5, 40),
        eta_ext_max=st.floats(0.2, 0.3),
        eta_n=st.floats(0.5, 1.0),
        weighted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_identifiable_fits_match(self, n, eta_ext_max, eta_n, weighted, seed):
        # one power in each of n equal cells of [0.02, 0.6] W, so the powers
        # span the peak at (pi/2)^2 / (L^2 eta_n) <= 0.55 W
        rng = np.random.default_rng(seed)
        edges = np.linspace(0.02, 0.6, n + 1)
        p = edges[:-1] + np.diff(edges) * rng.uniform(size=n)
        truth = np.asarray(conversion_model(p, eta_ext_max, eta_n, 3.0))
        sigma = 0.05 * truth * rng.uniform(0.5, 2.0, n) if weighted else None
        data = Dataset(x=p, y=truth * (1.0 + 0.05 * rng.standard_normal(n)), sigma=sigma)
        ours, lapack = fit_conversion(data, 3.0), _lapack_fit(data, 3.0)
        assert not ours.ill_conditioned and not lapack.ill_conditioned
        # Both paths may stop on a damped step once the cost no longer
        # resolves the minimum, about 1e-9 relative from it at 5-6 points
        # (one 5-point fit: the LAPACK path 1.0e-9 off a 50-digit optimum,
        # the closed form 6e-15); most fits agree to the last bit.
        np.testing.assert_allclose(ours.params, lapack.params, rtol=1e-8, atol=0)
        np.testing.assert_allclose(ours.ci95, lapack.ci95, rtol=1e-8, atol=0)

    @given(
        n=st.integers(7, 40),
        eta_ext_max=st.floats(0.2, 0.3),
        eta_n=st.floats(0.5, 1.0),
        u_max=st.floats(0.05, math.pi / 4.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_linear_regime_both_flagged(self, n, eta_ext_max, eta_n, u_max, seed):
        # 6 points or fewer can leave the flag wrong on either path
        hi_w = (u_max / 3.0) ** 2 / eta_n
        rng = np.random.default_rng(seed)
        p = np.sort(rng.uniform(hi_w / 20.0, hi_w, n))
        y = np.asarray(conversion_model(p, eta_ext_max, eta_n, 3.0))
        y *= 1.0 + 0.05 * rng.standard_normal(n)
        for fit in (fit_conversion, _lapack_fit):
            with pytest.warns(UserWarning, match="ill-conditioned"):
                assert fit(Dataset(x=p, y=y), 3.0).ill_conditioned

    @given(
        log_a00=st.floats(-6.0, 6.0),
        log_a11=st.floats(-6.0, 6.0),
        rho=st.floats(-0.999, 0.999),
        log_lam=st.floats(-14.0, 6.0),
        g0=st.floats(-1e3, 1e3),
        g1=st.floats(-1e3, 1e3),
    )
    def test_damped_step_matches_solve(self, log_a00, log_a11, rho, log_lam, g0, g1):
        # a symmetric positive definite A with correlation rho
        a00, a11, lam = 10.0**log_a00, 10.0**log_a11, 10.0**log_lam
        a01 = rho * math.sqrt(a00 * a11)
        a = np.array([[a00, a01], [a01, a11]])
        expected = np.linalg.solve(a + lam * np.diag(np.diag(a)), [g0, g1])
        tol = 1e-10 * np.abs(expected).max()
        np.testing.assert_allclose(_damped_step(a00, a01, a11, g0, g1, lam), expected,
                                   rtol=1e-10, atol=tol)
        inv = np.linalg.inv(a)
        np.testing.assert_allclose(_inverse(a.tolist()), inv, rtol=1e-10,
                                   atol=1e-10 * np.abs(inv).max())

    def test_singular_designs_raise_zero_division(self):
        # the CLI maps ZeroDivisionError to exit 3
        with pytest.raises(ZeroDivisionError):
            fit_linear(Dataset(x=[0.0], y=[1.0]), force_zero_intercept=True)
        with pytest.raises(ZeroDivisionError):
            _inverse([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(ZeroDivisionError):
            _damped_step(0.0, 0.0, 0.0, 1.0, 1.0, 1e-3)


class TestExtractMu1:
    def test_exact_crossing(self):
        mu = np.linspace(0.1, 3.0, 12)
        d = Dataset(x=mu, y=mu / 0.7)
        m1, half = extract_mu1(d)
        assert m1 == pytest.approx(0.7, rel=1e-9)
        assert half == pytest.approx(0.0, abs=1e-6)

    def test_requires_bracketing(self):
        mu = np.linspace(2.0, 5.0, 5)
        with pytest.raises(ValueError, match="bracketed"):
            extract_mu1(Dataset(x=mu, y=mu / 0.7))

    def test_empty_dataset_names_the_point_count(self):
        # min() and max() of no values would raise a message naming nothing
        with pytest.raises(ValueError, match=r"^need at least 1 points$"):
            extract_mu1(Dataset(x=[], y=[]))



def _pinned_fits() -> list:
    """Fits on inputs drawn from ``random.Random``, whose ``random()``
    sequence Python keeps fixed across versions: 120 conversion fits, with
    5-40 points, weighted and not, identifiable and in the linear regime,
    then 80 line fits, with 2-40 points, weighted and not, with a free and
    a zero intercept.  Odd cases pass their points in falling x.  The noise
    is uniform, so that the data are plain arithmetic on the draws and the
    one model evaluation ``conversion_model``'s scalar ``math`` formula.
    Returns per fit the repr-able fields, or the error and its message."""
    rng = random.Random(20131104)
    fits = []

    def record(make):
        try:
            fit = make()
        except FitConvergenceError as exc:
            return ("FitConvergenceError", str(exc))
        return (fit.params.tolist(), fit.cov.tolist(), fit.ci95.tolist(), fit.rss, fit.dof,
                fit.ill_conditioned)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the ill-conditioned warning
        for case in range(120):
            n, weighted, linear = 5 + case % 36, case % 2 == 1, case % 4 >= 2
            eta, eta_n = 0.2 + 0.1 * rng.random(), 0.5 + 0.5 * rng.random()
            # linear: the largest power reaches L sqrt(P eta_n) < pi/4
            hi = (0.05 + 0.7 * rng.random()) ** 2 / (9.0 * eta_n) if linear else 0.6
            lo = hi / 20.0 if linear else 0.02
            x = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
            truth = [conversion_model(p, eta, eta_n, 3.0) for p in x]
            y = [t * (1.0 + 0.1 * (rng.random() - 0.5)) for t in truth]
            sigma = [0.05 * t * (0.5 + 1.5 * rng.random()) for t in truth] if weighted else None
            if case % 2:
                x, y, sigma = (c if c is None else c[::-1] for c in (x, y, sigma))
            fits.append(record(lambda: fit_conversion(Dataset(x=x, y=y, sigma=sigma), 3.0)))
        for case in range(80):
            n, weighted, zero = 2 + case % 39, case % 2 == 1, case % 4 >= 2
            slope, intercept = 0.5 + 2.0 * rng.random(), 0.0 if zero else rng.random() - 0.5
            x = [0.1 + (i + rng.random()) / n for i in range(n)]
            y = [slope * xi + intercept + 0.05 * (rng.random() - 0.5) for xi in x]
            sigma = [0.01 + 0.04 * rng.random() for _ in x] if weighted else None
            if case % 2:
                x, y, sigma = (c if c is None else c[::-1] for c in (x, y, sigma))
            fits.append(record(lambda: fit_linear(Dataset(x=x, y=y, sigma=sigma),
                                                  force_zero_intercept=zero)))
    return fits


class TestPinnedBits:
    """The fitting core's results, to the last bit, on a fixed set of fits."""

    # sha256 over the repr of each of ``_pinned_fits()``'s entries, one a
    # line, computed with the list-and-ndarray core that called
    # ``conversion_model`` once per point (CPython 3.11, x86-64 glibc libm).
    # Recompute it with
    #   "\n".join(map(repr, _pinned_fits())) -> hashlib.sha256(...).hexdigest()
    # only for a change meant to move a fit's bits, and say which moved.
    DIGEST = "73623c854907348b97a3b8cea1e42670e6a0049a19c667ec957a2a1034784463"

    def test_fits_unchanged_to_the_bit(self):
        text = "\n".join(map(repr, _pinned_fits()))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
