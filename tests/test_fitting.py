"""Least-squares estimation unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfcsim.fitting import (
    Dataset,
    SweepError,
    conversion_model,
    extract_mu1,
    fit_conversion,
    fit_linear,
    sweep,
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

    def test_unit_weights_default(self):
        d = Dataset(x=[1.0, 2.0], y=[1.0, 2.0])
        assert np.all(d.weights() == 1.0)


class TestFitLinear:
    def test_exact_line(self):
        d = Dataset(x=[1.0, 2.0, 3.0, 4.0], y=[2.5 * v + 1.0 for v in (1.0, 2.0, 3.0, 4.0)])
        res = fit_linear(d)
        assert res["slope"] == pytest.approx(2.5, rel=1e-12)
        assert res["intercept"] == pytest.approx(1.0, rel=1e-12)
        assert res.rss == pytest.approx(0.0, abs=1e-20)

    def test_zero_intercept(self):
        d = Dataset(x=[1.0, 2.0, 4.0], y=[0.7, 1.4, 2.8])
        res = fit_linear(d, force_zero_intercept=True)
        assert res.param_names == ("slope",)
        assert res["slope"] == pytest.approx(0.7, rel=1e-12)

    def test_singular_design(self):
        with pytest.raises(ValueError, match="need at least"):
            fit_linear(Dataset(x=[1.0], y=[1.0]))

    def test_weighted_pull(self):
        # a tight point dominates a loose outlier
        d = Dataset(x=[1.0, 2.0, 3.0], y=[1.0, 2.0, 9.0], sigma=[0.01, 0.01, 10.0])
        res = fit_linear(d)
        assert res["slope"] == pytest.approx(1.0, abs=0.01)

    @given(
        slope=st.floats(-10.0, 10.0),
        intercept=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=50)
    def test_recovers_exact_parameters(self, slope, intercept):
        x = np.array([0.5, 1.0, 2.0, 3.5, 5.0])
        d = Dataset(x=x, y=slope * x + intercept)
        res = fit_linear(d)
        assert res["slope"] == pytest.approx(slope, abs=1e-8)
        assert res["intercept"] == pytest.approx(intercept, abs=1e-8)


class TestFitConversion:
    def test_noiseless_roundtrip(self):
        p = np.linspace(0.02, 0.6, 15)
        d = Dataset(x=p, y=conversion_model(p, 0.25, 0.72, 3.0))
        res = fit_conversion(d, length_cm=3.0)
        assert res["eta_ext_max"] == pytest.approx(0.25, rel=1e-9)
        assert res["eta_n"] == pytest.approx(0.72, rel=1e-9)
        assert res.extras["total_normalized_per_w"] == pytest.approx(6.48, rel=1e-9)
        assert not res.ill_conditioned

    def test_noisy_recovery(self):
        rng = np.random.default_rng(11)
        p = np.linspace(0.02, 0.6, 15)
        y = conversion_model(p, 0.25, 0.72, 3.0) * (1.0 + 0.05 * rng.standard_normal(p.size))
        res = fit_conversion(Dataset(x=p, y=y), length_cm=3.0)
        assert res["eta_ext_max"] == pytest.approx(0.25, rel=0.1)
        assert res["eta_n"] == pytest.approx(0.72, rel=0.1)

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
        y = conversion_model(p, 0.25, 0.72, 3.0) * (1.0 + 0.05 * rng.standard_normal(30))
        with pytest.warns(UserWarning, match="ill-conditioned"):
            res = fit_conversion(Dataset(x=p, y=y), length_cm=3.0)
        assert res.ill_conditioned

    def test_input_validation(self):
        with pytest.raises(ValueError, match="positive"):
            fit_conversion(Dataset(x=[-0.1, 0.2, 0.3], y=[0.1, 0.1, 0.1]), 3.0)
        with pytest.raises(ValueError, match="at least 3"):
            fit_conversion(Dataset(x=[0.1, 0.2], y=[0.1, 0.1]), 3.0)


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


class TestSweep:
    def test_deterministic_grid(self):
        d = sweep([3.0, 1.0, 2.0], lambda v: v**2, xlabel="p", ylabel="p2")
        assert list(d.x) == [1.0, 2.0, 3.0]
        assert list(d.y) == [1.0, 4.0, 9.0]
        assert d.xlabel == "p"

    def test_error_wrapping(self):
        def bad(v):
            if v > 1.5:
                raise ValueError("boom")
            return v

        with pytest.raises(SweepError, match="x = 2"):
            sweep([1.0, 2.0], bad)

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            sweep([], lambda v: v)
