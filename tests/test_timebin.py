"""Interferometer statistics and fidelity-bound unit tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import classical_bound_bruteforce, interferometer_slots
from qfcsim.fitting import Dataset
from qfcsim.timebin import (
    Interferometer,
    TimeBinQubit,
    classical_fidelity_bound,
    fidelity_from_visibility,
    fringe_scan,
    quantum_regime_report,
    slot_statistics,
    visibility_model,
)


def qubit(phi=0.0, we=0.5):
    return TimeBinQubit(phase=phi, separation_ns=50.0, early_weight=we, late_weight=1.0 - we)


def ifm(gamma=0.0, vmax=1.0, ratio=0.5):
    return Interferometer(delay_ns=50.0, phase=gamma, max_visibility=vmax, splitter_ratio=ratio)


class TestSlotStatistics:
    def test_central_fringe_equal_weights(self):
        mu = 3.0
        for phi in (0.0, 0.7, 2.0):
            for gamma in (0.0, 1.1, 4.0):
                sc = slot_statistics(qubit(phi), ifm(gamma), mu)
                assert sc.central == pytest.approx(
                    (mu / 2.0) * (1.0 + math.cos(phi - gamma)), rel=1e-12
                )
                assert sc.early == pytest.approx(mu / 4.0, rel=1e-12)
                assert sc.late == pytest.approx(mu / 4.0, rel=1e-12)

    @given(
        phi=st.floats(0.0, 2.0 * math.pi),
        gamma=st.floats(0.0, 2.0 * math.pi),
        we=st.floats(0.05, 0.95),
        ratio=st.floats(0.1, 0.9),
        vmax=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100)
    def test_matches_amplitude_oracle(self, phi, gamma, we, ratio, vmax):
        sc = slot_statistics(qubit(phi, we), ifm(gamma, vmax, ratio), 2.0)
        e, c, l = interferometer_slots(
            phi, gamma, 2.0, weights=(we, 1.0 - we), splitter=ratio, max_visibility=vmax
        )
        assert sc.early == pytest.approx(e, abs=1e-12)
        assert sc.central == pytest.approx(c, abs=1e-12)
        assert sc.late == pytest.approx(l, abs=1e-12)

    def test_gamma_averaged_fractions(self):
        gammas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        totals = np.zeros(3)
        for g in gammas:
            sc = slot_statistics(qubit(0.3), ifm(float(g)), 1.0)
            totals += [sc.early, sc.central, sc.late]
        totals /= totals.sum()
        assert totals == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_noise_adds_per_slot(self):
        clean = slot_statistics(qubit(), ifm(), 1.0)
        noisy = slot_statistics(qubit(), ifm(), 1.0, noise_per_slot=0.01)
        assert noisy.early == pytest.approx(clean.early + 0.01, rel=1e-12)
        assert noisy.central == pytest.approx(clean.central + 0.01, rel=1e-12)

    def test_delay_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            slot_statistics(qubit(), Interferometer(delay_ns=40.0), 1.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            slot_statistics(qubit(), ifm(), 1.0, noise_per_slot=-0.1)

    def test_weights_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TimeBinQubit(phase=0.0, separation_ns=50.0, early_weight=0.7, late_weight=0.7)


class TestVisibilityModel:
    def test_frozen_values(self):
        assert visibility_model(25.0, 0.7, 1.0) == pytest.approx(0.9861932938856015, rel=1e-12)
        assert visibility_model(7.0, 0.7, 1.0) == pytest.approx(0.9523809523809524, rel=1e-12)

    def test_vanishes_at_zero_input(self):
        assert visibility_model(0.0, 0.7, 1.0) == 0.0

    @given(st.floats(0.0, 100.0), st.floats(0.01, 10.0), st.floats(0.0, 1.0))
    def test_bounded_by_v0(self, mu, m1, v0):
        assert 0.0 <= visibility_model(mu, m1, v0) <= v0 + 1e-15


class TestFringeScan:
    def test_recovers_visibility(self):
        gammas = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        _, v = fringe_scan(qubit(0.4), ifm(vmax=0.93), 2.0, 0.0, gammas)
        assert v == pytest.approx(0.93, rel=1e-9)

    def test_noise_washes_out_fringe(self):
        gammas = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        _, v_clean = fringe_scan(qubit(), ifm(), 1.0, 0.0, gammas)
        _, v_noisy = fringe_scan(qubit(), ifm(), 1.0, 0.5, gammas)
        assert v_noisy < v_clean

    def test_sampled_scan_is_seeded(self):
        gammas = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        d1, v1 = fringe_scan(qubit(), ifm(), 2.0, 0.01, gammas, shots_per_point=2000, seed=5)
        d2, v2 = fringe_scan(qubit(), ifm(), 2.0, 0.01, gammas, shots_per_point=2000, seed=5)
        assert np.array_equal(d1.y, d2.y)
        assert v1 == v2

    def test_grid_must_cover_a_period(self):
        with pytest.raises(ValueError, match="full period"):
            fringe_scan(qubit(), ifm(), 1.0, 0.0, np.linspace(0.0, 3.0, 10))

    def test_grid_density(self):
        with pytest.raises(ValueError, match="under-sampled"):
            fringe_scan(qubit(), ifm(), 1.0, 0.0, np.linspace(0.0, 8.0 * math.pi, 12))


class TestClassicalBound:
    def test_low_intensity_limit(self):
        assert classical_fidelity_bound(1e-6, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_matches_bruteforce_oracle(self):
        for mu in (0.1, 0.5, 1.0, 2.0, 6.1, 10.0, 25.0):
            for eta in (1.0, 0.25, 0.11, 0.01):
                assert classical_fidelity_bound(mu, eta) == pytest.approx(
                    classical_bound_bruteforce(mu, eta), abs=1e-10
                )

    def test_past_exp_underflow(self):
        # exp(-800) underflows to 0; the brute-force sum weights in log space
        for eta in (1.0, 0.25, 0.01):
            assert classical_fidelity_bound(800.0, eta) == pytest.approx(
                classical_bound_bruteforce(800.0, eta, n_max=2000), abs=1e-10
            )

    def test_monotone_across_underflow(self):
        grid = [740.0, 744.0, 745.0, 746.0, 750.0, 760.0, 780.0, 800.0]
        vals = [classical_fidelity_bound(m, 1.0) for m in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_frozen_operating_point(self):
        assert classical_fidelity_bound(6.1, 0.25) == pytest.approx(0.8723855477725121, rel=1e-10)

    def test_monotone_in_mu(self):
        grid = np.linspace(0.1, 50.0, 100)
        vals = [classical_fidelity_bound(float(m), 0.3) for m in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_lower_efficiency_raises_bound(self):
        assert classical_fidelity_bound(5.0, 0.05) > classical_fidelity_bound(5.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            classical_fidelity_bound(0.0, 0.5)
        with pytest.raises(ValueError):
            classical_fidelity_bound(1.0, 0.0)
        for mu, eta in ((math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError):
                classical_fidelity_bound(mu, eta)


class TestFidelityAndReport:
    def test_fidelity_from_visibility(self):
        assert fidelity_from_visibility(0.9) == pytest.approx(0.95)
        with pytest.raises(ValueError):
            fidelity_from_visibility(1.2)

    def test_report_flags(self):
        mus = np.array([2.0, 10.0, 25.0])
        vis = np.array([visibility_model(float(m), 0.7, 1.0) for m in mus])
        rows = quantum_regime_report(Dataset(x=mus, y=vis), eta_ext=0.11, eta_dev=0.066)
        for row in rows:
            assert row.bound_dev > row.bound_ext > row.bound_unit
            assert row.fidelity == pytest.approx((1.0 + row.visibility) / 2.0)
            assert row.exceeds_ext
