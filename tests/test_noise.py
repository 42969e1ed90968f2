"""Noise model, gated detection and figure-of-merit unit tests."""

import math
import sys
import warnings

import pytest
from hypothesis import given, strategies as st

from oracles import beta_quadrature, event_means_from_fields, snr_unsubtracted_decimal
from qfcsim import reference_chain, replace
from qfcsim.noise import (
    ALLOWED_GATE_WIDTHS_NS,
    FILTER_BANDWIDTH_MAX_NM,
    FILTER_BANDWIDTH_MIN_NM,
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
from qfcsim.optics import GaussianPulse, conversion_fraction

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
        assert rb.pump_noise + rb.dark == pytest.approx(8e-4, rel=1e-12)

    def test_gate_scaling(self):
        chain = rate_chain()
        n20 = sum(chain.event_means(0.0, 100.0, 20.0))
        n50 = sum(chain.event_means(0.0, 100.0, 50.0))
        assert n50 == pytest.approx(2.5 * n20, rel=1e-12)
        rb20 = detection_probabilities(0.0, 100.0, chain)
        rb50 = detection_probabilities(0.0, 100.0, chain.with_gate_width(50.0))
        assert rb50.pump_noise + rb50.dark == pytest.approx(2.5 * (rb20.pump_noise + rb20.dark), rel=1e-12)

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
        assert rb2.pump_noise == pytest.approx(2.0 * rb1.pump_noise, rel=1e-12)

    @pytest.mark.parametrize("gate, dark", [(20.0, 2e-4), (50.0, 5e-4)])
    def test_dark_only_at_zero_pump(self, gate, dark):
        chain = rate_chain()
        assert chain.event_means(6.1, 0.0, gate) == (0.0, 0.0, pytest.approx(dark, rel=1e-12))
        rb = detection_probabilities(0.0, 0.0, chain.with_gate_width(gate))
        assert rb.pump_noise + rb.dark == rb.dark == pytest.approx(dark, rel=1e-12)

    def test_signal_is_the_whole_pulse(self):
        # the gate keeps the fraction beta of it
        chain = rate_chain()
        signal, _, _ = chain.event_means(6.1, 120.0, 20.0)
        expected = 6.1 * chain.eta_tot_max * conversion_fraction(0.12, chain.waveguide)
        assert signal * chain.beta == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("pump_mw", [-1.0, math.nan])
    def test_invalid_pump_rejected(self, pump_mw):
        # the message gives the value in mW, as passed
        with pytest.raises(ValueError, match=f"pump power must be nonnegative and finite, got {pump_mw}$"):
            rate_chain().event_means(6.1, pump_mw, 20.0)
        with pytest.raises(ValueError, match="pump power"):
            detection_probabilities(6.1, pump_mw, rate_chain())


_REFERENCE = reference_chain()

# one step from a chain to a changed one, through each way a chain is rebuilt
_CHAIN_STEP = st.one_of(
    st.floats(FILTER_BANDWIDTH_MIN_NM, FILTER_BANDWIDTH_MAX_NM).map(
        lambda bw: lambda c: c.with_filter_bandwidth(bw)),
    st.sampled_from(ALLOWED_GATE_WIDTHS_NS).map(lambda gate: lambda c: c.with_gate_width(gate)),
    st.tuples(st.floats(0.0, 1e-3), st.floats(0.1, 100.0), st.floats(0.1, 5.0)).map(
        lambda v: lambda c: replace(c, noise=replace(
            c.noise, alpha_detected_per_mw=v[0], reference_gate_ns=v[1],
            reference_bandwidth_nm=v[2]))),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1e-3)).map(
        lambda v: lambda c: replace(c, detector=replace(
            c.detector, efficiency=v[0], dark_rate_per_ns=v[1]))),
    st.tuples(st.floats(0.5, 5.0), st.floats(0.1, 2.0), st.floats(0.0, 0.6)).map(
        lambda v: lambda c: replace(c, waveguide=replace(
            c.waveguide, length_cm=v[0], normalized_efficiency=v[1],
            max_external_efficiency=v[2]))),
)


class TestEventMeansOracle:
    """The factors a chain caches for ``event_means`` when it is built are
    never stale: after any sequence of rebuilds, its means equal the
    formula from the primitive fields to the bit."""

    @given(steps=st.lists(_CHAIN_STEP, max_size=6),
           mu_in=st.floats(0.0, 100.0), pump_mw=st.floats(0.0, 1000.0),
           window_ns=st.floats(0.0, 200.0))
    def test_bit_identical_to_the_fields(self, steps, mu_in, pump_mw, window_ns):
        chain = _REFERENCE
        for step in steps:
            chain = step(chain)
        means = chain.event_means(mu_in, pump_mw, window_ns)
        expected = event_means_from_fields(chain, mu_in, pump_mw, window_ns)
        assert [m.hex() for m in means] == [e.hex() for e in expected]


class TestNoiseModel:
    def test_alpha_unit(self):
        assert MODEL.alpha_unit == 6e-6 / (20.0 * 0.68)
        assert replace(MODEL, alpha_detected_per_mw=0.0).alpha_unit == 0.0

    @pytest.mark.parametrize("alpha, gate, bandwidth", [
        (6e-6, 1e-200, 1e-200),  # the product underflows to 0
        (0.0, 1e-200, 1e-200),  # 0 / 0
        (1e300, 1e-10, 1e-10),  # the quotient overflows
    ])
    def test_non_finite_alpha_unit_rejected(self, alpha, gate, bandwidth):
        message = (r"^alpha_detected_per_mw / \(reference_gate_ns \* reference_bandwidth_nm\) "
                   r"must be finite, .*noise_reference_gate.*noise_reference_bandwidth")
        with pytest.raises(ValueError, match=message):
            replace(MODEL, alpha_detected_per_mw=alpha, reference_gate_ns=gate,
                    reference_bandwidth_nm=bandwidth)

    def test_smallest_products_accepted(self):
        model = replace(MODEL, reference_gate_ns=1e-160, reference_bandwidth_nm=1e-140)
        assert model.alpha_unit == 6e-6 / (1e-160 * 1e-140)


class TestDetectionProbabilities:
    def test_ordering_invariant(self):
        chain = reference_chain()
        rb = detection_probabilities(6.1, 120.0, chain)
        assert rb.p_signal >= rb.p_noise >= 0.0
        assert rb.signal + rb.pump_noise + rb.dark >= rb.pump_noise + rb.dark >= rb.dark

    def test_linear_regime(self):
        chain = reference_chain()
        rb = detection_probabilities(6.1, 120.0, chain)
        # at these rates 1 - exp(-x) deviates from x by < 1%
        assert rb.p_signal == pytest.approx(rb.signal + rb.pump_noise + rb.dark, rel=1e-2)

    def test_zero_pump_zero_input(self):
        chain = reference_chain()
        rb = detection_probabilities(0.0, 0.0, chain)
        assert rb.pump_noise + rb.dark == pytest.approx(rb.dark, rel=1e-12)

    @pytest.mark.parametrize("mu, pump_mw", [(1e-320, 120.0), (1e-320, 20.0), (1.0, 1e-310)])
    def test_subnormal_signal_rejected(self, mu, pump_mw):
        # a subnormal signal mean has lost the digits of every rate formed from it
        with pytest.raises(ValueError, match="source_mean_photon_number") as exc:
            detection_probabilities(mu, pump_mw, reference_chain())
        assert f"{pump_mw:g} mW" in str(exc.value)

    def test_smallest_normal_signal_accepted(self):
        chain = reference_chain()
        mu = 2.0 * sys.float_info.min / detection_probabilities(1.0, 120.0, chain).signal
        assert detection_probabilities(mu, 120.0, chain).signal >= sys.float_info.min

    @pytest.mark.parametrize("mu, pump_mw", [(0.0, 120.0), (6.1, 0.0)])
    def test_zero_signal_accepted(self, mu, pump_mw):
        # no input, or the pump off (fig3a's first row)
        assert detection_probabilities(mu, pump_mw, reference_chain()).signal == 0.0

    @pytest.mark.parametrize("pump_mw", [0.0, 20.0, 120.0, 600.0])
    def test_underflowed_mu_rejected(self, pump_mw):
        # 5e-324 times the chain efficiency rounds to exactly 0, so the
        # signal mean is 0 at every pump power, the pump off included
        with pytest.raises(ValueError, match="source_mean_photon_number") as exc:
            detection_probabilities(5e-324, pump_mw, reference_chain())
        assert f"{pump_mw:g} mW" in str(exc.value)

    def test_underflowed_pump_accepted(self):
        # the signal of mu = 1 at 5e-324 mW underflows to 0 through the
        # conversion fraction, not through mu
        rb = detection_probabilities(1.0, 5e-324, reference_chain())
        assert rb.signal == 0.0 and rb.p_signal == rb.p_noise

    def test_underflowed_mu_accepted_without_efficiency(self):
        # a chain that detects nothing gives an exact 0 for any mu
        chain = reference_chain()
        chain = replace(chain, detector=replace(chain.detector, efficiency=0.0))
        assert detection_probabilities(5e-324, 120.0, chain).signal == 0.0


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

    @given(
        st.floats(-12.0, math.log10(60.0)),
        st.floats(-13.0, math.log10(600.0)),
        st.floats(FILTER_BANDWIDTH_MIN_NM, FILTER_BANDWIDTH_MAX_NM),
    )
    def test_subtracted_is_mu_over_mu1(self, log_mu, log_pump, bandwidth_nm):
        # the subtracted SNR is linear in mu_in and crosses 1 at mu_1, down
        # to inputs and pumps where S - N and N - DC would cancel
        mu, pump_mw = 10.0**log_mu, 10.0**log_pump
        chain = reference_chain().with_filter_bandwidth(bandwidth_nm)
        rb = detection_probabilities(mu, pump_mw, chain)
        assert snr(rb) == pytest.approx(mu / mu1(chain, pump_mw), rel=1e-12, abs=0.0)

    @given(st.floats(-12.0, math.log10(60.0)), st.floats(1.0, 600.0))
    def test_unsubtracted_matches_decimal_oracle(self, log_mu, pump_mw):
        # p_S - p_N cancels at a small input unless it is formed from the
        # signal mean itself
        mu = min(10.0**log_mu, 60.0)
        rb = detection_probabilities(mu, pump_mw, reference_chain())
        expected = snr_unsubtracted_decimal(rb.signal, rb.pump_noise, rb.dark)
        assert snr(rb, subtract_dark=False) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mu", [1e-14, 1e-12])
    def test_fig3a_p_net_matches_decimal_oracle(self, mu):
        # the fig3a p_net column is p_S - p_N, formed without cancelling
        from qfcsim.cli import _preset_fig3a
        from qfcsim.config import REFERENCE_CONFIG, parse_config, with_overrides

        cfg = with_overrides(parse_config(REFERENCE_CONFIG), source_mean_photon_number=mu)
        columns, rows = _preset_fig3a(cfg)
        net = columns.index("p_net")
        for row in rows[1:]:  # every pump but 0 mW, where the signal is 0
            rb = detection_probabilities(mu, row[0], cfg.chain)
            expected = snr_unsubtracted_decimal(rb.signal, rb.pump_noise, rb.dark)
            assert row[net] == rb.p_net
            assert rb.p_net / rb.p_noise == pytest.approx(expected, rel=1e-12, abs=0.0)


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

    @pytest.mark.parametrize("alpha, reference_nm", [(sys.float_info.max, 0.68), (1e10, 1e-300)])
    def test_overflow_raises(self, alpha, reference_nm):
        # photons per pulse, or the scaled alpha itself, past the largest float
        chain = reference_chain()
        noise = replace(chain.noise, alpha_crystal_per_mw_ns=alpha, reference_bandwidth_nm=reference_nm)
        with pytest.raises(OverflowError, match="overflows"):
            projected_noise_floor(85.0, replace(chain, noise=noise))


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
