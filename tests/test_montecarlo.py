"""Stochastic simulator unit tests (determinism, dead time, histograms)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.stats import chi2_contingency

from oracles import dead_time_loop, dense_collect_clicks
from qfcsim import montecarlo
from qfcsim.chain import reference_chain
from qfcsim.montecarlo import (
    _CHUNK,
    CLICK_DTYPE,
    ORIGIN_DARK,
    ORIGIN_SIGNAL,
    ExperimentScenario,
    Histogram,
    gate_integrate,
    simulate,
    start_stop_histogram,
)
from qfcsim.noise import (
    ALLOWED_GATE_WIDTHS_NS,
    FILTER_BANDWIDTH_MAX_NM,
    FILTER_BANDWIDTH_MIN_NM,
    detection_probabilities,
)


REFERENCE = reference_chain()


def scenario(mu=6.1, pump=120.0, shots=50000, seed=42, chain=None):
    return ExperimentScenario(
        chain=chain or reference_chain(),
        mu_in=mu,
        pump_mw=pump,
        n_shots=shots,
        seed=seed,
    )


class TestDeterminism:
    def test_identical_runs(self):
        r1 = simulate(scenario())
        r2 = simulate(scenario())
        assert r1.p_signal == r2.p_signal
        assert r1.p_noise == r2.p_noise
        assert np.array_equal(r1.clicks_signal, r2.clicks_signal)
        assert np.array_equal(r1.clicks_noise, r2.clicks_noise)

    def test_seed_changes_stream(self):
        r1 = simulate(scenario(seed=1))
        r2 = simulate(scenario(seed=2))
        assert not np.array_equal(r1.clicks_signal, r2.clicks_signal)

    def test_click_stream_well_formed(self):
        r = simulate(scenario(shots=20000))
        clicks = r.clicks_signal
        gate = reference_chain().detector.gate_width_ns
        assert np.all(clicks["time_ns"] >= 0.0)
        assert np.all(clicks["time_ns"] < gate)
        # at most one click per gate
        assert np.unique(clicks["shot"]).size == clicks.size
        assert np.all(np.diff(clicks["shot"]) > 0)


class TestChunks:
    def test_reverse_chunk_order_gives_identical_records(self, monkeypatch):
        calls = []
        collect_chunk = montecarlo._collect_chunk

        def recorded(*args):
            calls.append(args)
            return collect_chunk(*args)

        monkeypatch.setattr(montecarlo, "_collect_chunk", recorded)
        chain = reference_chain()
        forward = montecarlo._collect_clicks(chain, 6.1, 120.0, 5 * _CHUNK + 123, 11, 0, 20.0)
        assert len(calls) == 6 and forward.size > 0
        backward = [collect_chunk(*args) for args in reversed(calls)]
        assert np.concatenate(backward[::-1]).tobytes() == forward.tobytes()


# the lanes of simulate and start_stop_histogram: (lane, mu_in, pump_mw, window_ns)
def _lanes(mu, pump):
    return (
        (montecarlo._LANE_SIGNAL, mu, pump, 20.0),
        (montecarlo._LANE_NOISE, 0.0, pump, 20.0),
        (montecarlo._LANE_HIST_SIGNAL, mu, pump, 100.0),
        (montecarlo._LANE_HIST_PUMP, 0.0, pump, 100.0),
        (montecarlo._LANE_HIST_DARK, 0.0, 0.0, 100.0),
    )


def _origins(sc, lane, mu, pump, window):
    clicks, _ = montecarlo._run_lane(sc, lane, mu, pump, window)
    return set(clicks["origin"].tolist())


class TestOrigins:
    """Origins with a zero rate never appear in ``CLICK_DTYPE.origin``."""

    def test_dark_lane_is_dark_only(self):
        assert _origins(scenario(shots=200000), montecarlo._LANE_HIST_DARK, 0.0, 0.0, 100.0) == {
            int(ORIGIN_DARK)
        }

    def test_no_signal_without_input(self):
        sc = scenario(mu=0.0, shots=100000)
        for lane, mu, pump, window in _lanes(0.0, sc.pump_mw):
            origins = _origins(sc, lane, mu, pump, window)
            assert origins and int(ORIGIN_SIGNAL) not in origins, lane

    def test_no_dark_without_dark_rate(self):
        chain = reference_chain()
        chain = dataclasses.replace(
            chain, detector=dataclasses.replace(chain.detector, dark_rate_per_ns=0.0)
        )
        sc = scenario(chain=chain, shots=100000)
        for lane, mu, pump, window in _lanes(sc.mu_in, sc.pump_mw):
            assert int(ORIGIN_DARK) not in _origins(sc, lane, mu, pump, window), lane


@st.composite
def _click_streams(draw):
    n_shots = draw(st.integers(1, 300))
    shots = draw(st.lists(st.integers(0, n_shots - 1), unique=True, max_size=n_shots))
    return n_shots, shots


def _clicks(shots):
    clicks = np.zeros(len(shots), dtype=CLICK_DTYPE)
    clicks["shot"] = sorted(shots)
    clicks["time_ns"] = np.arange(len(shots)) * 0.25
    clicks["origin"] = np.arange(len(shots)) % 3
    return clicks


class TestDeadTimeOracle:
    @settings(max_examples=300)
    @given(_click_streams(), st.integers(0, 40))
    @example((10, []), 3)
    @example((10, [0, 1, 2, 9]), 0)
    @example((10, [2, 9]), 6)
    @example((1, [0]), 5)
    def test_matches_loop(self, stream, dead_gates):
        n_shots, shots = stream
        self._check(_clicks(shots), n_shots, dead_gates)

    @pytest.mark.parametrize("dead_gates", [1, 4, 20])
    def test_int64_indices(self, dead_gates):
        # shot + dead_gates passes 2**31 - 1, so the indices are int64
        n_shots = 2**31 + 10
        shots = [0, 2**31 - 9, 2**31 - 6, 2**31 - 2, 2**31, 2**31 + 3, 2**31 + 9]
        self._check(_clicks(shots), n_shots, dead_gates)

    @pytest.mark.parametrize("dead_gates", [1, 3, 40])
    def test_blocked_search(self, dead_gates):
        # more clicks than one searchsorted block
        shots = np.random.default_rng(dead_gates).choice(400_000, 150_000, replace=False)
        assert shots.size > _CHUNK
        self._check(_clicks(shots), 400_000, dead_gates)

    @staticmethod
    def _check(clicks, n_shots, dead_gates):
        accepted, skipped = montecarlo._apply_dead_time(clicks, n_shots, dead_gates)
        want, want_skipped = dead_time_loop(clicks, n_shots, dead_gates)
        assert accepted.tobytes() == want.tobytes()
        assert skipped == want_skipped


class TestDenseOracle:
    """The sparse collector against the dense per-shot draws, as two
    independent samples (the oracle runs on another seed)."""

    @pytest.mark.parametrize("seed", [5, 6])
    def test_two_sample(self, seed, monkeypatch):
        sc = scenario(mu=6.1, pump=120.0, shots=1000000, seed=seed)
        hist_sc = scenario(mu=5.0, pump=120.0, shots=500000, seed=seed)
        new = simulate(sc)
        new_hist = start_stop_histogram(hist_sc).signal_on.counts
        monkeypatch.setattr(montecarlo, "_collect_clicks", dense_collect_clicks)
        monkeypatch.setattr(montecarlo, "_apply_dead_time", dead_time_loop)
        other = seed + 1000
        old = simulate(dataclasses.replace(sc, seed=other))
        old_hist = start_stop_histogram(dataclasses.replace(hist_sc, seed=other)).signal_on.counts

        for a, ea, b, eb in (
            (new.p_signal, new.p_signal_err, old.p_signal, old.p_signal_err),
            (new.p_noise, new.p_noise_err, old.p_noise, old.p_noise_err),
        ):
            assert abs(a - b) / math.hypot(ea, eb) < 3.0
        # 2.56 ns bins, so every bin holds the five counts the chi^2 test needs
        table = np.array([new_hist, old_hist]).reshape(2, -1, 4).sum(axis=2)
        assert table.min() >= 5
        assert chi2_contingency(table).pvalue > 0.001


class TestAgreementWithAnalytics:
    def test_single_point(self):
        sc = scenario(shots=200000, seed=7)
        res = simulate(sc)
        rb = detection_probabilities(sc.mu_in, sc.pump_mw, sc.chain)
        assert abs(res.p_signal - rb.p_signal) < 3.0 * res.p_signal_err
        assert abs(res.p_noise - rb.p_noise) < 3.0 * res.p_noise_err

    @settings(max_examples=50, deadline=None)
    @given(
        mu=st.floats(0.0, 100.0),
        pump=st.floats(0.0, 600.0),
        bandwidth=st.floats(FILTER_BANDWIDTH_MIN_NM, FILTER_BANDWIDTH_MAX_NM),
        gate=st.sampled_from(ALLOWED_GATE_WIDTHS_NS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_detection_probabilities(self, mu, pump, bandwidth, gate, seed):
        # the Monte Carlo cuts the whole-pulse signal of event_means at the
        # window edges, the analytic model scales it by beta; both must
        # give the same click probabilities anywhere inside the validity
        # budget
        chain = REFERENCE.with_filter_bandwidth(bandwidth).with_gate_width(gate)
        assume(sum(chain.event_means(mu, pump, gate)) <= montecarlo.MAX_EXPECTED_CLICKS_PER_GATE)
        res = simulate(scenario(mu=mu, pump=pump, shots=200000, seed=seed, chain=chain))
        rb = detection_probabilities(mu, pump, chain)
        for p_mc, p, alive in (
            (res.p_signal, rb.p_signal, res.alive_signal),
            (res.p_noise, rb.p_noise, res.alive_noise),
        ):
            z = (p_mc - p) / math.sqrt(p * (1.0 - p) / alive)
            assert abs(z) < 5.0

    def test_zero_input_gives_noise_level(self):
        sc = scenario(mu=0.0, shots=100000, seed=3)
        res = simulate(sc)
        assert res.p_signal == pytest.approx(res.p_noise, abs=4.0 * res.p_noise_err)


class TestValidityBudget:
    def test_rejects_saturated_scenario(self):
        with pytest.raises(ValueError, match="validity bound"):
            simulate(scenario(mu=2000.0, pump=380.0))


class TestDeadTime:
    def test_skip_accounting(self):
        sc = scenario(shots=100000, seed=9)
        res = simulate(sc)
        clicks = res.clicks_signal.size
        # every accepted click blanks the next dead_gates gates (edge
        # effects at the end of the run only)
        assert res.skipped_signal <= clicks * sc.dead_gates
        assert res.skipped_signal >= (clicks - 1) * sc.dead_gates - sc.dead_gates
        assert res.alive_signal == sc.n_shots - res.skipped_signal

    def test_no_dead_time_no_skips(self):
        chain = reference_chain()
        chain = dataclasses.replace(
            chain, detector=dataclasses.replace(chain.detector, dead_time_us=0.0)
        )
        res = simulate(scenario(chain=chain, shots=30000))
        assert res.skipped_signal == 0
        assert res.alive_signal == 30000

    def test_dead_gates_count(self):
        assert scenario().dead_gates == 20


class TestHistograms:
    def test_three_passes_structure(self):
        triple = start_stop_histogram(scenario(mu=5.0, shots=50000, seed=21))
        assert triple.signal_on.total > triple.pump_only.total > triple.dark_only.total
        assert triple.signal_on.counts.size == int(100.0 / 0.64)
        assert triple.signal_on.bin_width_ns == 0.64

    def test_signal_peaks_at_center(self):
        triple = start_stop_histogram(scenario(mu=5.0, shots=50000, seed=21))
        centers = triple.signal_on.bin_centers
        # centroid of the background-subtracted signal (single-bin argmax
        # is too noisy at this count level)
        weights = triple.signal_on.counts.astype(float) - triple.pump_only.counts
        centroid = float(np.sum(centers * weights) / np.sum(weights))
        assert abs(centroid - 50.0) < 3.0

    def test_histograms_deterministic(self):
        t1 = start_stop_histogram(scenario(shots=20000))
        t2 = start_stop_histogram(scenario(shots=20000))
        assert np.array_equal(t1.signal_on.counts, t2.signal_on.counts)
        assert np.array_equal(t1.pump_only.counts, t2.pump_only.counts)

    def test_gate_integration(self):
        h = Histogram(bin_width_ns=1.0, counts=np.ones(100, dtype=int), window_ns=100.0)
        assert gate_integrate(h, 20.0) == 20.0
        assert gate_integrate(h, 0.0) == 0.0
        with pytest.raises(ValueError, match="exceeds the window"):
            gate_integrate(h, 200.0)

    def test_gate_cut_supplies_beta(self):
        """The 20 ns / 100 ns count ratio in a noise-free signal histogram
        approximates the gate fraction of the pulse."""
        chain = reference_chain()
        triple = start_stop_histogram(scenario(mu=5.0, pump=120.0, shots=150000, seed=33))
        sig = triple.signal_on.counts.astype(float) - triple.pump_only.counts
        h = Histogram(bin_width_ns=0.64, counts=np.clip(sig, 0, None), window_ns=100.0)
        ratio = gate_integrate(h, 20.0) / max(h.counts.sum(), 1.0)
        assert ratio == pytest.approx(chain.beta, abs=0.03)


class TestScenarioValidation:
    def test_negative_inputs(self):
        with pytest.raises(ValueError):
            scenario(mu=-1.0)
        with pytest.raises(ValueError):
            scenario(shots=0)
        with pytest.raises(ValueError):
            scenario(seed=-1)

    def test_period_must_exceed_gate(self):
        chain = reference_chain()
        chain = dataclasses.replace(chain, repetition_rate_mhz=100.0)
        with pytest.raises(ValueError, match="repetition period"):
            scenario(chain=chain)
