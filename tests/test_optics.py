"""Wavelength bookkeeping, loss budget and conversion-curve unit tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qfcsim.optics import (
    EfficiencyCascade,
    ElementTransmissions,
    GaussianPulse,
    WaveguideParams,
    bandwidth_nm_to_ghz,
    conversion_fraction,
    conversion_model,
    dfg_output_wavelength,
    external_efficiency,
    optimal_pump_power,
)

WG = WaveguideParams(length_cm=3.0, normalized_efficiency=0.72, max_external_efficiency=0.25)


class TestDfgWavelength:
    def test_reference_pair(self):
        # frozen from independent evaluation of 1/(1/780.24 - 1/1569.4)
        assert dfg_output_wavelength(780.24, 1569.4) == pytest.approx(
            1551.6608241674694, rel=1e-12
        )

    def test_round_numbers(self):
        assert dfg_output_wavelength(800.0, 1600.0) == pytest.approx(1600.0, rel=1e-12)

    def test_pump_must_be_longer(self):
        with pytest.raises(ValueError, match="must exceed"):
            dfg_output_wavelength(1569.4, 780.24)

    def test_positive_wavelengths(self):
        with pytest.raises(ValueError):
            dfg_output_wavelength(-780.0, 1569.4)

    @given(
        lam_in=st.floats(200.0, 2000.0),
        lam_p=st.floats(2000.1, 20000.0),
    )
    def test_energy_conservation(self, lam_in, lam_p):
        lam_out = dfg_output_wavelength(lam_in, lam_p)
        assert lam_out > lam_in
        assert 1.0 / lam_out == pytest.approx(1.0 / lam_in - 1.0 / lam_p, rel=1e-9)


class TestConversionCurve:
    def test_frozen_values(self):
        # frozen from an independent evaluation of 0.25 sin^2(3 sqrt(0.72 P))
        assert external_efficiency(0.4, WG) == pytest.approx(0.24961657270173657, rel=1e-12)
        assert external_efficiency(0.12, WG) == pytest.approx(0.14895542230487846, rel=1e-12)

    def test_zero_pump(self):
        assert external_efficiency(0.0, WG) == 0.0

    def test_peak_reaches_cap(self):
        p_star = optimal_pump_power(WG)
        assert external_efficiency(p_star, WG) == pytest.approx(0.25, rel=1e-12)
        assert conversion_fraction(p_star, WG) == pytest.approx(1.0, rel=1e-12)

    def test_optimal_pump_frozen(self):
        # (pi/2)^2 / (9 * 0.72), independently evaluated
        assert optimal_pump_power(WG) == pytest.approx(0.38077177473338575, rel=1e-12)

    @pytest.mark.parametrize("length_cm, eta_n", [(1e300, 0.72), (1e-160, 1e-300)])
    def test_optimal_pump_outside_float_range_names_the_length(self, length_cm, eta_n):
        # L^2 overflowed ("(34, 'Numerical result out of range')"), or L^2 * eta_n
        # underflowed to 0 ("float division by zero")
        with pytest.raises(ArithmeticError, match=r"^the waveguide length \("):
            optimal_pump_power(WaveguideParams(length_cm, eta_n, 0.25))

    def test_negative_pump_rejected(self):
        with pytest.raises(ValueError):
            external_efficiency(-0.1, WG)

    @given(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
    def test_monotone_below_optimum(self, f1, f2):
        p_star = optimal_pump_power(WG)
        p1, p2 = sorted((f1 * p_star, f2 * p_star))
        assert external_efficiency(p1, WG) <= external_efficiency(p2, WG) + 1e-15

    @given(st.floats(0.0, 2.0))
    def test_bounded_by_cap(self, pump_w):
        assert 0.0 <= external_efficiency(pump_w, WG) <= WG.max_external_efficiency


# (eta_ext_max, eta_n, length_cm): the reference waveguide, and one whose
# sin^2 argument runs past 3 pi over the same pump range
MODEL_PARAMS = [(0.25, 0.72, 3.0), (0.4, 2.1, 7.0)]


class TestConversionModel:
    @pytest.mark.parametrize("eta, eta_n, length", MODEL_PARAMS)
    def test_scalar_path_matches_numpy_bit_for_bit(self, eta, eta_n, length):
        # a Python float is evaluated with math; numpy's 0-d form is the reference
        mismatches = []
        for p in np.linspace(0.0, 1.0, 200_001).tolist():
            value = conversion_model(p, eta, eta_n, length)
            reference = float(eta * np.sin(length * np.sqrt(np.asarray(p) * eta_n)) ** 2)
            if value != reference:
                mismatches.append((p, value, reference))
        assert mismatches == []

    def test_scalar_path_returns_a_float(self):
        assert type(conversion_model(0.4, *MODEL_PARAMS[0])) is float
        assert type(conversion_model(1, *MODEL_PARAMS[0])) is float
        expected = conversion_model(float(np.float32(0.4)), *MODEL_PARAMS[0])
        for value in (np.float32(0.4), np.asarray(np.float32(0.4))):
            assert type(conversion_model(value, *MODEL_PARAMS[0])) is float
            assert conversion_model(value, *MODEL_PARAMS[0]) == expected

    @pytest.mark.parametrize("eta, eta_n, length", MODEL_PARAMS)
    def test_sequence_path_is_the_scalar_path(self, eta, eta_n, length):
        pumps = np.linspace(0.0, 1.0, 200_001)
        expected = [conversion_model(p, eta, eta_n, length) for p in pumps.tolist()]
        for values in (pumps, pumps.tolist(), tuple(pumps.tolist())):
            result = conversion_model(values, eta, eta_n, length)
            assert type(result) is list and {type(v) for v in result} == {float}
            assert list(map(float.hex, result)) == list(map(float.hex, expected))


class TestLossBudget:
    def test_signal_total(self):
        t = ElementTransmissions(0.99, 0.61, 0.61, 0.80)
        assert t.total == pytest.approx(0.99 * 0.61 * 0.61 * 0.80, rel=1e-12)
        assert t.total == pytest.approx(0.29, abs=0.005)

    def test_pump_total(self):
        t = ElementTransmissions(0.66, 0.58, 0.78, 0.98)
        assert t.total == pytest.approx(0.29, abs=0.005)

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="coupling"):
            ElementTransmissions(0.99, 1.2, 0.61, 0.80)


class TestCascade:
    def test_reference_numbers(self):
        cas = EfficiencyCascade(
            eta_coupling=0.61, eta_int_max=0.41, eta_filter=0.26, eta_detection=0.04
        )
        assert cas.eta_ext_max == pytest.approx(0.25, abs=0.005)
        assert cas.eta_dev_max == pytest.approx(0.066, abs=0.002)
        assert cas.eta_tot_max == pytest.approx(2.6e-3, abs=1e-4)

    def test_nesting(self):
        cas = EfficiencyCascade(
            eta_coupling=0.5, eta_int_max=0.4, eta_filter=0.3, eta_detection=0.1
        )
        assert cas.eta_ext_max == pytest.approx(0.2)
        assert cas.eta_dev_max == pytest.approx(0.06)
        assert cas.eta_tot_max == pytest.approx(0.006)


class TestLinewidths:
    @given(st.floats(0.1, 100.0), st.floats(100.0, 2000.0))
    def test_bandwidth_roundtrip(self, bw_ghz, lam_nm):
        # d(nu) = c d(lambda) / lambda^2, inverted; c = 2.99792458e8 nm GHz
        bw_nm = bw_ghz * lam_nm**2 / 2.99792458e8
        assert bandwidth_nm_to_ghz(bw_nm, lam_nm) == pytest.approx(bw_ghz, rel=1e-12)

    def test_reference_filter_bandwidth(self):
        # 0.68 nm at the converted wavelength is about 85 GHz
        ghz = bandwidth_nm_to_ghz(0.68, 1551.6608241674694)
        assert ghz == pytest.approx(84.67126045934967, rel=1e-12)


class TestGaussianPulse:
    def test_sigma(self):
        p = GaussianPulse(fwhm_ns=30.0)
        assert p.sigma_ns == pytest.approx(30.0 / (2.0 * math.sqrt(2.0 * math.log(2.0))), rel=1e-12)
        assert p.sigma_ns == pytest.approx(12.739827004320286, rel=1e-12)

    def test_positive_fwhm(self):
        with pytest.raises(ValueError):
            GaussianPulse(fwhm_ns=0.0)


class TestWaveguideParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            WaveguideParams(length_cm=-1.0, normalized_efficiency=0.72, max_external_efficiency=0.25)
        with pytest.raises(ValueError):
            WaveguideParams(length_cm=3.0, normalized_efficiency=0.72, max_external_efficiency=1.2)
