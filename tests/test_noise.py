"""Noise model, gated detection and figure-of-merit unit tests."""

import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from oracles import beta_quadrature
from qfcsim.chain import reference_chain
from qfcsim.noise import (
    DegenerateDenominatorError,
    DetectorConfig,
    ExtrapolationWarning,
    FilterStage,
    NoiseModel,
    beta_factor,
    detection_probabilities,
    mu1,
    projected_noise_floor,
    snr,
)
from qfcsim.optics import GaussianPulse

MODEL = NoiseModel(
    alpha_detected_per_mw=6e-6,
    alpha_crystal_per_mw_ns=5e-6,
    reference_bandwidth_nm=0.68,
    reference_gate_ns=20.0,
)


def det(gate_ns=20.0, **kw):
    kw.setdefault("efficiency", 0.07)
    kw.setdefault("dark_rate_per_ns", 1e-5)
    kw.setdefault("dead_time_us", 20.0)
    return DetectorConfig(gate_width_ns=gate_ns, **kw)


class TestBetaFactor:
    def test_frozen_values(self):
        pulse = GaussianPulse(fwhm_ns=30.0)
        # frozen from the Simpson-quadrature oracle
        assert beta_factor(pulse, det(20.0)) == pytest.approx(0.5675112606802181, rel=1e-12)
        assert beta_factor(pulse, det(50.0)) == pytest.approx(0.9502782546553665, rel=1e-12)

    @pytest.mark.parametrize("fwhm,gate", [(30.0, 20.0), (30.0, 50.0), (30.0, 100.0), (10.0, 20.0), (80.0, 50.0)])
    def test_matches_quadrature_oracle(self, fwhm, gate):
        pulse = GaussianPulse(fwhm_ns=fwhm)
        d = det(gate, allow_any_gate=True)
        assert beta_factor(pulse, d) == pytest.approx(beta_quadrature(fwhm, gate), rel=1e-8)

    @given(st.floats(1.0, 100.0), st.floats(1.0, 200.0))
    def test_is_a_fraction(self, fwhm, gate):
        pulse = GaussianPulse(fwhm_ns=fwhm)
        b = beta_factor(pulse, det(gate, allow_any_gate=True))
        # erf saturates to exactly 1.0 in floating point for wide gates
        assert 0.0 < b <= 1.0

    def test_wide_gate_captures_everything(self):
        pulse = GaussianPulse(fwhm_ns=10.0)
        b = beta_factor(pulse, det(200.0, allow_any_gate=True))
        assert b == pytest.approx(1.0, abs=1e-12)


def rate_chain():
    """The reference chain with MODEL, det(20.0) and a 0.68 nm filter."""
    chain = replace(reference_chain(), noise=MODEL, detector=det(20.0))
    return chain.with_filter_bandwidth(0.68)


class TestEventMeans:
    """The chain's rate model, read directly and through detection_probabilities."""

    def test_reference_point(self):
        # alpha * P + DC = 6e-6 * 100 + 2e-4
        _, pump, dark = rate_chain().event_means(6.1, 100.0, 20.0)
        assert pump + dark == pytest.approx(8e-4, rel=1e-12)
        rb = detection_probabilities(6.1, 100.0, rate_chain())
        assert rb.noise_total == pytest.approx(8e-4, rel=1e-12)

    def test_gate_scaling(self):
        chain = rate_chain()
        n20 = sum(chain.event_means(0.0, 100.0, 20.0))
        n50 = sum(chain.event_means(0.0, 100.0, 50.0))
        assert n50 == pytest.approx(2.5 * n20, rel=1e-12)
        rb20 = detection_probabilities(0.0, 100.0, chain)
        rb50 = detection_probabilities(0.0, 100.0, chain.with_gate_width(50.0))
        assert rb50.noise_total == pytest.approx(2.5 * rb20.noise_total, rel=1e-12)

    def test_bandwidth_scaling(self):
        narrow = rate_chain()
        wide = narrow.with_filter_bandwidth(1.36)
        _, pump1, dark1 = narrow.event_means(0.0, 100.0, 20.0)
        _, pump2, dark2 = wide.event_means(0.0, 100.0, 20.0)
        # only the pump-induced part doubles
        assert pump2 == pytest.approx(2.0 * pump1, rel=1e-12)
        assert dark2 == dark1
        rb1 = detection_probabilities(0.0, 100.0, narrow)
        rb2 = detection_probabilities(0.0, 100.0, wide)
        assert rb2.noise_total - rb2.dark == pytest.approx(
            2.0 * (rb1.noise_total - rb1.dark), rel=1e-12
        )

    @pytest.mark.parametrize("gate, dark", [(20.0, 2e-4), (50.0, 5e-4)])
    def test_dark_only_at_zero_pump(self, gate, dark):
        chain = rate_chain()
        assert chain.event_means(6.1, 0.0, gate) == (0.0, 0.0, pytest.approx(dark, rel=1e-12))
        rb = detection_probabilities(0.0, 0.0, chain.with_gate_width(gate))
        assert rb.noise_total == rb.dark == pytest.approx(dark, rel=1e-12)

    def test_signal_is_the_whole_pulse(self):
        # the gate keeps the fraction beta of it
        chain = rate_chain()
        signal, _, _ = chain.event_means(6.1, 120.0, 20.0)
        expected = 6.1 * chain.eta_tot_max * chain.conversion_fraction(120.0)
        assert signal * chain.beta == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("pump_mw", [-1.0, math.nan])
    def test_invalid_pump_rejected(self, pump_mw):
        # the message gives the value in mW, as passed
        with pytest.raises(ValueError, match=f"pump power must be nonnegative, got {pump_mw}$"):
            rate_chain().event_means(6.1, pump_mw, 20.0)
        with pytest.raises(ValueError, match="pump power"):
            detection_probabilities(6.1, pump_mw, rate_chain())


class TestDetectionProbabilities:
    def test_ordering_invariant(self):
        chain = reference_chain()
        rb = detection_probabilities(6.1, 120.0, chain)
        assert rb.p_signal >= rb.p_noise >= 0.0
        assert rb.signal_total >= rb.noise_total >= rb.dark

    def test_linear_regime(self):
        chain = reference_chain()
        rb = detection_probabilities(6.1, 120.0, chain)
        # at these rates 1 - exp(-x) deviates from x by < 1%
        assert rb.p_signal == pytest.approx(rb.signal_total, rel=1e-2)

    def test_zero_pump_zero_input(self):
        chain = reference_chain()
        rb = detection_probabilities(0.0, 0.0, chain)
        assert rb.noise_total == pytest.approx(rb.dark, rel=1e-12)


class TestSnr:
    def test_subtracted_vs_not(self):
        chain = reference_chain()
        rb = detection_probabilities(6.1, 120.0, chain)
        assert snr(rb, subtract_dark=True) > snr(rb, subtract_dark=False)

    def test_reference_magnitude(self):
        # around 10 near the operating point, frozen from the closed form
        chain = reference_chain()
        rb = detection_probabilities(6.1, 120.0, chain)
        assert snr(rb, subtract_dark=False) == pytest.approx(10.0, abs=1.5)

    def test_degenerate_denominator(self):
        chain = reference_chain()
        rb = detection_probabilities(1.0, 0.0, chain)
        with pytest.raises(DegenerateDenominatorError):
            snr(rb, subtract_dark=True)


class TestMu1:
    def test_frozen_reference(self):
        # (alpha * 120) / (eta_tot_max * fhat(120 mW)), independently evaluated
        assert mu1(reference_chain(), 120.0) == pytest.approx(0.46798324879503805, rel=1e-9)

    def test_linear_in_bandwidth(self):
        chain = reference_chain()
        m1 = mu1(chain.with_filter_bandwidth(0.8), 120.0)
        m2 = mu1(chain.with_filter_bandwidth(1.6), 120.0)
        assert m2 == pytest.approx(2.0 * m1, rel=1e-12)

    def test_pump_validation(self):
        with pytest.raises(ValueError):
            mu1(reference_chain(), 0.0)

    @pytest.mark.parametrize("pump_mw", [1e-300, 1e-12])
    def test_small_pump_limit(self, pump_mw):
        # N - DC = alpha P and S / mu_in = eta_tot_max eta_n L^2 P as P -> 0;
        # the reference chain runs at the noise model's reference gate and
        # bandwidth, so alpha is the calibrated slope itself
        chain = reference_chain()
        wg = chain.waveguide
        slope_per_mw = chain.eta_tot_max * (wg.normalized_efficiency * wg.length_cm**2) * 1e-3
        limit = chain.noise.alpha_detected_per_mw / slope_per_mw
        assert mu1(chain, pump_mw) == pytest.approx(limit, rel=1e-12)


class TestProjectedNoiseFloor:
    def test_frozen_projection(self):
        chain = reference_chain().with_gate_width(50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            alpha, photons = projected_noise_floor(0.05, chain)
        assert alpha == pytest.approx(2.9525957053636167e-09, rel=1e-9)
        assert photons == pytest.approx(5.621325534007387e-05, rel=1e-9)

    def test_warns_below_measured_range(self):
        with pytest.warns(ExtrapolationWarning):
            projected_noise_floor(0.05, reference_chain())

    def test_silent_in_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            projected_noise_floor(85.0, reference_chain())

    def test_identity_at_reference(self):
        chain = reference_chain()
        alpha, _ = projected_noise_floor(84.67126045934967, chain)
        assert alpha == pytest.approx(5e-6, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            projected_noise_floor(0.0, reference_chain())


class TestFilterStage:
    def test_inconsistent_total_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            FilterStage(bandwidth_nm=0.68, fiber_coupling=0.5, grating=0.7,
                        bandpass_longpass=0.74, total_transmission=0.5)

    def test_bandwidth_range(self):
        with pytest.raises(ValueError, match="outside the physical range"):
            FilterStage(bandwidth_nm=3.0, fiber_coupling=0.5, grating=0.7,
                        bandpass_longpass=0.74, total_transmission=0.259)
        FilterStage(bandwidth_nm=3.0, fiber_coupling=0.5, grating=0.7,
                    bandpass_longpass=0.74, total_transmission=0.259, allow_extrapolation=True)


class TestDetectorConfig:
    def test_gate_allowed_set(self):
        with pytest.raises(ValueError, match="not in the supported set"):
            det(37.0)
        det(37.0, allow_any_gate=True)

    def test_efficiency_validation(self):
        with pytest.raises(ValueError):
            det(20.0, efficiency=1.5)
