"""Noise model, gated detection and figure-of-merit unit tests."""

import warnings

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
    back_propagated_alpha_crystal,
    beta_factor,
    detection_probabilities,
    mu1,
    noise_counts,
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

    def test_offset_reduces_fraction(self):
        pulse = GaussianPulse(fwhm_ns=30.0)
        centered = beta_factor(pulse, det(20.0))
        shifted = beta_factor(pulse, det(20.0), centering_offset_ns=8.0)
        assert shifted < centered

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


class TestNoiseCounts:
    def test_reference_point(self):
        # alpha * P + DC = 6e-6 * 100 + 2e-4
        assert noise_counts(100.0, MODEL, det(20.0)) == pytest.approx(8e-4, rel=1e-12)

    def test_gate_scaling(self):
        n20 = noise_counts(100.0, MODEL, det(20.0))
        n50 = noise_counts(100.0, MODEL, det(50.0))
        assert n50 == pytest.approx(2.5 * n20, rel=1e-12)

    def test_bandwidth_scaling(self):
        n1 = noise_counts(100.0, MODEL, det(20.0), bandwidth_nm=0.68)
        n2 = noise_counts(100.0, MODEL, det(20.0), bandwidth_nm=1.36)
        # only the pump-induced part doubles
        assert n2 - det(20.0).dark_counts_per_gate == pytest.approx(
            2.0 * (n1 - det(20.0).dark_counts_per_gate), rel=1e-12
        )

    def test_dark_only_at_zero_pump(self):
        assert noise_counts(0.0, MODEL, det(20.0)) == pytest.approx(2e-4, rel=1e-12)

    def test_negative_pump_rejected(self):
        with pytest.raises(ValueError):
            noise_counts(-1.0, MODEL, det(20.0))


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

    def test_beta_reported(self):
        chain = reference_chain()
        rb = detection_probabilities(1.0, 100.0, chain)
        assert rb.beta == pytest.approx(chain.beta, rel=1e-12)


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


class TestBackPropagation:
    @given(
        alpha_crystal=st.floats(1e-8, 1e-3),
        eta_f=st.floats(0.05, 1.0),
        eta_d=st.floats(0.01, 1.0),
    )
    def test_roundtrip_on_consistent_model(self, alpha_crystal, eta_f, eta_d):
        """A detected slope built as alpha_crystal * eta_f * eta_d * gate
        back-propagates to exactly alpha_crystal."""
        import dataclasses

        chain = reference_chain()
        gate = chain.detector.gate_width_ns
        detected = alpha_crystal * eta_f * eta_d * gate
        chain = dataclasses.replace(
            chain,
            noise=dataclasses.replace(
                chain.noise,
                alpha_detected_per_mw=detected,
                alpha_crystal_per_mw_ns=alpha_crystal,
            ),
            filter_stage=dataclasses.replace(
                chain.filter_stage,
                fiber_coupling=eta_f,
                grating=1.0,
                bandpass_longpass=1.0,
                total_transmission=-1.0,
            ),
            detector=dataclasses.replace(chain.detector, efficiency=eta_d),
        )
        assert back_propagated_alpha_crystal(chain) == pytest.approx(alpha_crystal, rel=1e-9)


class TestFilterStage:
    def test_default_total_is_product(self):
        f = FilterStage(bandwidth_nm=0.68, fiber_coupling=0.5, grating=0.7, bandpass_longpass=0.74)
        assert f.total_transmission == pytest.approx(0.259, rel=1e-12)

    def test_inconsistent_total_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            FilterStage(bandwidth_nm=0.68, fiber_coupling=0.5, grating=0.7,
                        bandpass_longpass=0.74, total_transmission=0.5)

    def test_bandwidth_range(self):
        with pytest.raises(ValueError, match="outside the physical range"):
            FilterStage(bandwidth_nm=3.0, fiber_coupling=0.5, grating=0.7, bandpass_longpass=0.74)
        FilterStage(bandwidth_nm=3.0, fiber_coupling=0.5, grating=0.7,
                    bandpass_longpass=0.74, allow_extrapolation=True)


class TestDetectorConfig:
    def test_gate_allowed_set(self):
        with pytest.raises(ValueError, match="not in the supported set"):
            det(37.0)
        det(37.0, allow_any_gate=True)

    def test_dark_counts_per_gate(self):
        assert det(20.0).dark_counts_per_gate == pytest.approx(2e-4, rel=1e-12)
        assert det(50.0).dark_counts_per_gate == pytest.approx(5e-4, rel=1e-12)

    def test_efficiency_validation(self):
        with pytest.raises(ValueError):
            det(20.0, efficiency=1.5)
