"""Stochastic simulator unit tests (determinism, dead time, histograms)."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.stats import chi2_contingency

from oracles import (
    chunked_collect_clicks,
    click_probability,
    dead_time_loop,
    dense_collect_clicks,
    first_per_shot,
    skipped_gates_renewal,
)
from qfcsim import montecarlo, replace
from qfcsim.chain import MAX_SHOTS, reference_chain
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
    DegenerateDenominatorError,
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
        calls, forward = [], []
        collect_clicks = montecarlo._collect_clicks

        def recorded(*args):
            calls.append(args)
            forward.append(collect_clicks(*args))
            return forward[-1]

        monkeypatch.setattr(montecarlo, "_collect_clicks", recorded)
        sc = scenario(shots=20 * _CHUNK + 123, seed=11)
        montecarlo._run_lane(sc, montecarlo._LANE_SIGNAL, sc.mu_in, sc.pump_mw, 20.0)
        forward = np.concatenate(forward)
        assert len(calls) > 1 and forward.size > 0
        assert [ci for args in calls for ci in args[-1]] == list(range(21))
        # the lane's batches, and then its single chunks, in reverse order
        backward = [collect_clicks(*args) for args in reversed(calls)]
        assert np.concatenate(backward[::-1]).tobytes() == forward.tobytes()
        single = [collect_clicks(*calls[0][:-1], range(ci, ci + 1)) for ci in reversed(range(21))]
        assert np.concatenate(single[::-1]).tobytes() == forward.tobytes()


def _state(rng):
    """A bit generator's state with its arrays as lists, comparable by ==."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(rng.state)


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 1, (1 << 128) - 1])
    @pytest.mark.parametrize("lane", [0, 4])
    @pytest.mark.parametrize("chunk", [0, montecarlo._LANE_STRIDE - 1])
    def test_substream_is_numpys_jump(self, seed, lane, chunk):
        (rng,) = montecarlo._substreams(seed, lane, range(chunk, chunk + 1))
        jumped = np.random.Philox(key=seed).jumped(lane * montecarlo._LANE_STRIDE + chunk)
        assert _state(rng.bit_generator) == _state(jumped)

    def test_each_chunk_starts_afresh(self):
        # the draws of one chunk (a 32-bit buffered one among them) leave
        # nothing behind in the next chunk's state
        for ci, rng in zip(range(3, 6), montecarlo._substreams(7, 2, range(3, 6))):
            jumped = np.random.Philox(key=7).jumped(2 * montecarlo._LANE_STRIDE + ci)
            assert _state(rng.bit_generator) == _state(jumped)
            rng.integers(0, 10, 3)
            rng.random(5)

    @pytest.mark.parametrize("buffered", [False, True])
    def test_draws_of_no_values_take_nothing(self, buffered):
        # a chunk skips its normal or uniform draw when it has no event of
        # that kind, which keeps the records only because such a draw takes
        # nothing from the stream, with or without a buffered 32-bit half
        (rng,) = montecarlo._substreams(3, 1, range(2, 3))
        if buffered:
            rng.integers(0, 10, 1)
        before = _state(rng.bit_generator)
        rng.standard_normal(0)
        rng.uniform(0.0, 20.0, 0)
        assert _state(rng.bit_generator) == before


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
        chain = replace(
            chain, detector=replace(chain.detector, dark_rate_per_ns=0.0)
        )
        sc = scenario(chain=chain, shots=100000)
        for lane, mu, pump, window in _lanes(sc.mu_in, sc.pump_mw):
            assert int(ORIGIN_DARK) not in _origins(sc, lane, mu, pump, window), lane


@st.composite
def _shot_sorted_events(draw):
    # few shots and few distinct times, so that shots repeat and times tie
    n = draw(st.integers(0, 60))
    offset = draw(st.integers(0, 2**40))
    shot = np.sort(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))).astype(np.int64)
    t = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=n, max_size=n)))
    # the events' places in draw order
    order = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    return shot + offset, t, order


class TestFirstPerShot:
    @settings(max_examples=300)
    @given(_shot_sorted_events())
    @example((np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.intp)))
    @example((np.array([3]), np.array([2.5]), np.array([0])))
    def test_matches_lexsort(self, events):
        shot, t, order = events
        drawn = np.empty_like(t)
        drawn[order] = t
        got = montecarlo._first_per_shot(shot, drawn, order)
        assert got.tolist() == first_per_shot(shot, t).tolist()

    def test_equal_times_take_the_first(self):
        # shot 4's earliest time is held by its second and third events;
        # shot 7 is alone
        shot, t = np.array([4, 4, 4, 7]), np.array([1.0, 0.5, 0.5, 0.0])
        assert montecarlo._first_per_shot(shot, t, np.arange(4)).tolist() == [1, 3]


@st.composite
def _click_streams(draw):
    n_shots = draw(st.integers(1, 300))
    shots = draw(st.lists(st.integers(0, n_shots - 1), unique=True, max_size=n_shots))
    return n_shots, shots


@st.composite
def _long_click_streams(draw):
    # up to 20,000 shots at up to 0.4 clicks per gate, drawn from a numpy
    # seed, so runs of many accepted clicks form behind isolated ones
    n_shots = draw(st.integers(1, 20_000) | st.integers(15_000, 20_000))
    density = draw(st.floats(0.0, 0.4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n_shots, np.flatnonzero(rng.random(n_shots) < density)


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
    # lone clicks, in no run, mixed with runs: a lone click between two
    # runs, a run at the first click, a run at the last click (its dead
    # window cut short), lone clicks only and one run only
    @example((30, [0, 2, 4, 10, 20, 22, 24]), 3)
    @example((20, [0, 1, 9, 15]), 3)
    @example((14, [0, 6, 12, 13]), 3)
    @example((14, [1, 5, 9, 13]), 3)
    @example((12, [3, 4, 6, 7, 9]), 3)
    def test_matches_loop(self, stream, dead_gates):
        n_shots, shots = stream
        self._check(_clicks(shots), n_shots, dead_gates)

    @settings(max_examples=100, deadline=None)
    @given(_long_click_streams(), st.sampled_from([1, 20, 200, 1000]))
    # no run: every click is isolated
    @example((20_000, range(0, 20_000, 21)), 20)
    # one run spanning every click, whose chain takes every other one
    @example((20_000, range(20_000)), 1)
    # a run that ends on the last click, accepted, its dead window cut short
    @example((30, [0, 10, 25]), 20)
    def test_long_runs_match_loop(self, stream, dead_gates):
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
        # more clicks than one chunk has shots, as in a whole-lane call
        shots = np.random.default_rng(dead_gates).choice(400_000, 150_000, replace=False)
        assert shots.size > _CHUNK
        self._check(_clicks(shots), 400_000, dead_gates)

    @staticmethod
    def _check(clicks, n_shots, dead_gates):
        accepted, skipped = montecarlo._apply_dead_time(clicks, n_shots, dead_gates)
        want, want_skipped = dead_time_loop(clicks, n_shots, dead_gates)
        assert accepted.tobytes() == want.tobytes()
        assert skipped == want_skipped


def _dead_time_chain(dead_gates, dark_rate_per_ns=REFERENCE.detector.dark_rate_per_ns):
    # the reference period is 1 us, so dead_gates us of dead time
    detector = replace(
        REFERENCE.detector, dead_time_us=float(dead_gates), dark_rate_per_ns=dark_rate_per_ns
    )
    return replace(REFERENCE, detector=detector)


def _lane_run(mu, pump, shots, dead_gates, lane=0, window=20.0, noise_alpha=None, **detector):
    chain = _dead_time_chain(dead_gates, **detector)
    if noise_alpha is not None:
        chain = replace(chain, noise=replace(chain.noise, alpha_detected_per_mw=noise_alpha))
    return scenario(mu=mu, pump=pump, shots=shots, seed=5, chain=chain), lane, window


@st.composite
def _lane_runs(draw):
    dead_gates = draw(st.sampled_from([0, 1, 20, 200]))
    chain = _dead_time_chain(dead_gates)
    lane, window = draw(st.sampled_from(list(enumerate([20.0, 20.0, 100.0, 100.0, 100.0]))))
    pump = draw(st.just(0.0) | st.floats(1.0, 600.0))
    signal, noise, dark = chain.event_means(1.0, pump, window)
    # up to the validity bound, with room for rounding
    budget = 0.999 * montecarlo.MAX_EXPECTED_CLICKS_PER_GATE - noise - dark
    mu = draw(st.floats(0.0, 1.0)) * budget / signal if signal > 0 else 0.0
    # up to 8 chunks, ending within two shots of a chunk boundary or anywhere
    offset = draw(st.integers(-2, 2) | st.integers(3, _CHUNK - 3))
    n_shots = max(1, draw(st.integers(0, 8)) * _CHUNK + offset)
    sc = ExperimentScenario(
        chain=chain, mu_in=mu, pump_mw=pump, n_shots=n_shots, seed=draw(st.integers(0, 2**128 - 1))
    )
    assert sc.dead_gates == dead_gates
    return sc, lane, window


class TestBatchedOracle:
    """Batched collection with the carried dead time against the chunk by
    chunk collection and one dead-time pass over the whole lane, bit for
    bit, whatever the batch size."""

    @settings(max_examples=100, deadline=None)
    @given(_lane_runs(), st.sampled_from([None, 1, 3000, 1 << 30]))
    # batches of 7 chunks at the reference rate (2 with a target of 3000
    # events), of one chunk at the dense rate and on the dark floor with a
    # target of 1 event
    @example(_lane_run(6.1, 120.0, 8 * _CHUNK + 5, 20), None)
    @example(_lane_run(6.1, 120.0, 8 * _CHUNK + 5, 200), 3000)
    @example(_lane_run(60.0, 400.0, 5 * _CHUNK - 1, 200), None)
    @example(_lane_run(0.0, 0.0, 3 * _CHUNK, 1, lane=4, window=100.0), 1)
    # the last origin, dark, at zero rate; and every origin at zero rate,
    # which gives no records and no skipped gates
    @example(_lane_run(6.1, 120.0, 3 * _CHUNK + 7, 20, dark_rate_per_ns=0.0), None)
    @example(_lane_run(0.0, 0.0, 2 * _CHUNK + 1, 20, dark_rate_per_ns=0.0), None)
    # signal alone: the first cumulative mean is λ itself, so every event
    # is a signal event and no chunk draws uniform times
    @example(_lane_run(6.1, 120.0, 3 * _CHUNK + 7, 20, noise_alpha=0.0, dark_rate_per_ns=0.0), None)
    def test_matches_chunked(self, run, batch_events):
        sc, lane, window = run
        with pytest.MonkeyPatch.context() as mp:
            if batch_events is not None:
                mp.setattr(montecarlo, "_BATCH_EVENTS", batch_events)
            self._check(sc, lane, sc.mu_in, sc.pump_mw, window)

    def test_dead_window_carried_across_batches(self, monkeypatch):
        # 200 dead gates at 0.09 expected events per gate: the last accepted
        # click of a one-chunk batch blanks the start of the next batch.  A
        # target of 1 event makes every batch one chunk
        monkeypatch.setattr(montecarlo, "_BATCH_EVENTS", 1)
        collected, offered = [], []
        collect_clicks, apply_dead_time = montecarlo._collect_clicks, montecarlo._apply_dead_time

        def collect(*args):
            collected.append(collect_clicks(*args))
            return collected[-1]

        def dead_time(clicks, n_shots, dead_gates):
            offered.append(clicks)
            return apply_dead_time(clicks, n_shots, dead_gates)

        monkeypatch.setattr(montecarlo, "_collect_clicks", collect)
        monkeypatch.setattr(montecarlo, "_apply_dead_time", dead_time)
        sc = scenario(mu=20.0, pump=400.0, shots=4 * _CHUNK + 99, seed=3, chain=_dead_time_chain(200))
        self._check(sc, montecarlo._LANE_SIGNAL, sc.mu_in, sc.pump_mw, 20.0)
        assert len(collected) == 5
        assert any(o.size < c.size for o, c in zip(offered[1:], collected[1:]))

    def test_batch_past_2_31_shots(self, monkeypatch):
        # 2e-6 dark events per gate and an unbounded batch target: one batch
        # of 32,808 chunks, whose shots pass 2**31 within it, where a signed
        # 64-bit sort key of shot << 32 would overflow
        monkeypatch.setattr(montecarlo, "_BATCH_EVENTS", 1 << 30)
        collected = []
        collect_clicks = montecarlo._collect_clicks

        def collect(*args):
            collected.append((args[-1], collect_clicks(*args)))
            return collected[-1][1]

        monkeypatch.setattr(montecarlo, "_collect_clicks", collect)
        chain = _dead_time_chain(20, dark_rate_per_ns=1e-7)
        sc = scenario(mu=0.0, pump=0.0, shots=2**31 + 40 * _CHUNK, seed=5, chain=chain)
        self._check(sc, montecarlo._LANE_HIST_DARK, 0.0, 0.0, 20.0)
        ((chunks, clicks),) = collected
        assert chunks == range(2**15 + 40)
        assert np.count_nonzero(clicks["shot"] >= 2**31) > 0

    def test_vanishing_rate(self):
        # about 1e-315 events per gate: the chunks per batch overflow to
        # inf, which the 2**32-shot bound on a batch caps
        chain = replace(
            REFERENCE, detector=replace(REFERENCE.detector, dark_rate_per_ns=0.0)
        )
        sc = scenario(mu=6.1, pump=1e-310, shots=3 * _CHUNK, chain=chain)
        assert 0 < sum(chain.event_means(sc.mu_in, sc.pump_mw, 20.0)) < 1e-300
        self._check(sc, montecarlo._LANE_SIGNAL, sc.mu_in, sc.pump_mw, 20.0)

    @staticmethod
    def _check(sc, lane, mu, pump, window):
        accepted, skipped = montecarlo._run_lane(sc, lane, mu, pump, window)
        want, want_skipped = montecarlo._apply_dead_time(
            chunked_collect_clicks(sc.chain, mu, pump, sc.n_shots, sc.seed, lane, window),
            sc.n_shots,
            sc.dead_gates,
        )
        assert accepted.dtype == CLICK_DTYPE
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
        old = simulate(replace(sc, seed=other))
        old_hist = start_stop_histogram(replace(hist_sc, seed=other)).signal_on.counts

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
        chain = replace(
            chain, detector=replace(chain.detector, dead_time_us=0.0)
        )
        res = simulate(scenario(chain=chain, shots=30000))
        assert res.skipped_signal == 0
        assert res.alive_signal == 30000

    def test_dead_gates_count(self):
        assert scenario().dead_gates == 20

    def test_dead_window_past_the_run(self):
        # after the first click every later gate is blank, whether the
        # window is n_shots gates or 1e300 us, which no int64 index holds
        shots = 2000
        long, short = (
            simulate(scenario(shots=shots, seed=9, chain=_dead_time_chain(gates)))
            for gates in (1e300, shots)
        )
        assert scenario(chain=_dead_time_chain(1e300)).dead_gates > 2**63
        assert long == short
        assert long.clicks_signal.size == 1
        assert long.skipped_signal == shots - 1 - long.clicks_signal["shot"][0]


class TestRenewalOracle:
    """simulate's skipped gates in both lanes against dead time as a
    renewal process: the dead-time path checked against the physics, not
    only against the loop oracle."""

    SHOTS = 200_000

    @settings(max_examples=60, deadline=None)
    @given(
        budget=st.floats(0.0, 1.0),
        pump=st.floats(1.0, 600.0),
        gate=st.sampled_from(ALLOWED_GATE_WIDTHS_NS),
        dead_gates=st.sampled_from([1, 20, 50]),
        seed=st.integers(0, 2**32 - 1),
    )
    # the reference point's 20 dead gates
    @example(budget=0.0336, pump=120.0, gate=20.0, dead_gates=20, seed=0)
    def test_skipped_gates(self, budget, pump, gate, dead_gates, seed):
        chain = _dead_time_chain(dead_gates).with_gate_width(gate)
        signal, noise, dark = chain.event_means(1.0, pump, gate)
        # mu up to the validity bound, with room for rounding
        mu = budget * (0.999 * montecarlo.MAX_EXPECTED_CLICKS_PER_GATE - noise - dark) / signal
        assume(mu >= 0.0)
        p_lanes = [click_probability(chain, m, pump, gate) for m in (mu, 0.0)]
        # enough clicks for the normal approximation, and the run's end,
        # which moves the count by at most the dead gates, far inside 5 sigma
        assume(min(p_lanes) * self.SHOTS >= 50)
        res = simulate(scenario(mu=mu, pump=pump, shots=self.SHOTS, seed=seed, chain=chain))
        for skipped, p in zip((res.skipped_signal, res.skipped_noise), p_lanes):
            mean, var = skipped_gates_renewal(p, dead_gates, self.SHOTS)
            assert dead_gates < math.sqrt(var)
            assert abs(skipped - mean) < 5.0 * math.sqrt(var)


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


class TestReadOnlyArrays:
    """A record's arrays cannot be written through it, so a value written
    after its checks cannot reach a result; the caller's array stays
    writeable.  A histogram copies its counts, one integer a bin; the
    click arrays, the large ones, are not copied."""

    def test_histogram_counts(self):
        counts = np.ones(100, dtype=int)
        h = Histogram(bin_width_ns=1.0, counts=counts, window_ns=100.0)
        with pytest.raises(ValueError, match="read-only"):
            h.counts[50] = -5
        assert h.total == 100 and gate_integrate(h, 20.0) == 20.0
        assert not np.shares_memory(h.counts, counts)
        counts[0] = -5  # the caller's array stays writeable, and is not the record's
        assert h.counts[0] == 1 and h.total == 100

    def test_start_stop_histograms(self):
        triple = start_stop_histogram(scenario(shots=20000))
        for h in (triple.signal_on, triple.pump_only, triple.dark_only):
            with pytest.raises(ValueError, match="read-only"):
                h.counts[0] = -5

    def test_simulation_clicks(self):
        result = simulate(scenario(shots=20000))
        for clicks in (result.clicks_signal, result.clicks_noise):
            with pytest.raises(ValueError, match="read-only"):
                clicks["time_ns"][0] = -1.0
            with pytest.raises(ValueError, match="read-only"):
                clicks[0] = clicks[0]
        mine = np.zeros(3, dtype=CLICK_DTYPE)
        built = replace(result, clicks_signal=mine)
        assert np.shares_memory(built.clicks_signal, mine)
        mine["shot"] = 7  # the caller's array stays writeable
        assert built.clicks_signal["shot"].tolist() == [7, 7, 7]


class TestScenarioValidation:
    def test_negative_inputs(self):
        with pytest.raises(ValueError):
            scenario(mu=-1.0)
        with pytest.raises(ValueError):
            scenario(shots=0)
        with pytest.raises(ValueError):
            scenario(seed=-1)

    @pytest.mark.parametrize(
        "field, key, value",
        [
            ("n_shots", "montecarlo_shots", 2.5e5),
            ("n_shots", "montecarlo_shots", True),
            ("seed", "montecarlo_seed", 1.5),
            ("seed", "montecarlo_seed", False),
            ("seed", "montecarlo_seed", "7"),
        ],
    )
    def test_non_integers_rejected(self, field, key, value):
        with pytest.raises(TypeError, match=rf"{field} \({key}\) must be an integer"):
            replace(scenario(), **{field: value})

    def test_numpy_integers_accepted(self):
        numpy_ints = simulate(scenario(shots=np.int64(20000), seed=np.uint64(7)))
        python_ints = simulate(scenario(shots=20000, seed=7))
        assert numpy_ints.clicks_signal.tobytes() == python_ints.clicks_signal.tobytes()

    def test_bounds_are_inclusive(self):
        sc = scenario(shots=MAX_SHOTS, seed=(1 << 128) - 1)
        assert (sc.n_shots, sc.seed) == (MAX_SHOTS, (1 << 128) - 1)

    def test_lanes_hold_the_largest_run(self):
        # the last chunk of a MAX_SHOTS run is still in its own lane, and
        # the stride is the one every seeded stream was drawn with
        assert (MAX_SHOTS - 1) // _CHUNK < montecarlo._LANE_STRIDE == 1 << 24

    def test_one_scenario_type(self):
        import qfcsim
        from qfcsim import chain, config

        assert montecarlo.ExperimentScenario is chain.ExperimentScenario
        assert qfcsim.ExperimentScenario is chain.ExperimentScenario
        assert type(config.parse_config(config.REFERENCE_CONFIG)) is chain.ExperimentScenario

    def test_no_noise_click_raises(self):
        # no pump and no dark counts: the input-blocked lane cannot click,
        # so p_N = 0 and the SNR has no denominator
        chain = reference_chain()
        dark_free = replace(
            chain, detector=replace(chain.detector, dark_rate_per_ns=0.0)
        )
        with pytest.raises(DegenerateDenominatorError, match="SNR undefined"):
            simulate(scenario(pump=0.0, shots=1000, chain=dark_free))

    def test_period_must_exceed_gate(self):
        with pytest.raises(ValueError, match="source_repetition_rate period .* detector_gate_width"):
            replace(reference_chain(), repetition_rate_mhz=100.0)
