"""Shot-level stochastic simulation of the conversion experiment.

Per shot, three independent Poisson sources feed the detection window:
input photons thinned through the efficiency chain (times drawn from the
pulse shape), pump-induced noise and dark counts (both uniform over the
window).  ``ConversionChain.event_means``, which the analytic model reads
too, gives their means; the gate cut is in the drawn times, not a β.
Their superposition is one Poisson process of λ = μ·p_surv +
(r_pump + r_dark)·w events per gate, and thinning splits it back into
origins in proportion to the three terms (Lewis & Shedler 1979).  So a
chunk of m shots draws one Poisson(m·λ) event count, then per event a
uniform shot, a uniform u, whose u·λ falls between two cumulative sums
of the three means and so names the origin, and a Gaussian (signal) or
uniform time; events outside the window are dropped and the earliest
one per shot is the click.  At the reference point about 1% of gates
click, so this draws about m/100 events where per-shot draws would need
4m numbers.

Randomness is counter-based (Philox, Salmon et al., SC 2011): each
(lane, chunk) pair owns an independent substream derived from the
scenario seed, so the records do not depend on how the chunks are
grouped.  Each chunk makes only its own draws; the origin lookup, the
window cut and the choice of the first event per shot (one sort of packed
(shot, draw index) keys) run once over a batch of chunks holding about
``_BATCH_EVENTS`` expected events, which shares numpy's fixed per-call cost
among them.  An event alone in its shot is that shot's click, so the
earliest-time choice runs only over the events of shared shots: at the
reference point about 1% of the events in the window.

Gates in the dead time after an accepted click are skipped and excluded
from the probability denominators.  Within a batch, a click more than the
dead gates after the click before it is accepted outright; the others lie
in runs behind such a click.  A click that is also more than the dead
gates before the next one is in no run, and at the reference point that
holds for about two thirds of the input-on clicks and 97% of the blocked
ones.  Only the clicks in runs, compacted, are searched: each one's
successor, the first click past its dead window, is found by one sorted
search, and each run's accepted clicks are the chain of successors from
its head, found for all runs at once by pointer doubling (Hillis & Steele
1986) in ceil(log2 L) rounds for the longest chain, of L clicks.  At the
reference point L was at most 3 in every batch measured (2 rounds).
Between batches only the last accepted shot plus the dead gates carries
over, so a lane keeps only its accepted records, and the results are
bit-reproducible for a given seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .chain import MAX_SHOTS, ConversionChain, ExperimentScenario
from .noise import DegenerateDenominatorError
from .optics import Record, check_range

__all__ = [
    "ExperimentScenario",
    "Histogram",
    "HistogramTriple",
    "SimulationResult",
    "CLICK_DTYPE",
    "ORIGIN_SIGNAL",
    "ORIGIN_PUMP",
    "ORIGIN_DARK",
    "ORIGIN_NAMES",
    "simulate",
    "start_stop_histogram",
    "gate_integrate",
]

ORIGIN_SIGNAL = np.int8(0)
ORIGIN_PUMP = np.int8(1)
ORIGIN_DARK = np.int8(2)
ORIGIN_NAMES = {int(ORIGIN_SIGNAL): "signal", int(ORIGIN_PUMP): "pump-noise", int(ORIGIN_DARK): "dark"}

# origin is diagnostic only; estimators never read it
CLICK_DTYPE = np.dtype(
    [("shot", np.int64), ("time_ns", np.float64), ("origin", np.int8)]
)
# a record as one opaque item of its size: numpy concatenates structured
# records field by field, and these whole
_CLICK_BYTES = np.dtype((np.void, CLICK_DTYPE.itemsize))

_CHUNK = 1 << 16
# expected events per batch of chunks: the work after the draws runs once
# per batch, which shares its fixed numpy cost among the batch's chunks.
# At the reference rate a lane's time fell from _CHUNK // 16 to // 4;
# larger batches saved a few percent more for a larger heap peak
_BATCH_EVENTS = _CHUNK // 4
# a batch spans at most 2**32 shots, so a shot within it and an event index
# pack into one 64-bit sort key
_MAX_BATCH_CHUNKS = (1 << 32) // _CHUNK

# lanes 0/1: simulate (input on / blocked); lanes 2/3/4: histogram passes
_LANE_SIGNAL = 0
_LANE_NOISE = 1
_LANE_HIST_SIGNAL = 2
_LANE_HIST_PUMP = 3
_LANE_HIST_DARK = 4
_LANE_STRIDE = MAX_SHOTS // _CHUNK  # chunks per lane

MAX_EXPECTED_CLICKS_PER_GATE = 0.5


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``, which itself stays writeable: a record stores
    one so that its checks keep holding, and copies nothing."""
    view = array.view()
    view.flags.writeable = False
    return view


class Histogram(Record):
    """Start-stop histogram over the detection window, with a read-only copy of the counts."""

    bin_width_ns: float
    counts: np.ndarray
    window_ns: float
    _bounds = {"bin_width_ns": ("bin_width_ns", 0.0, math.inf, "()")}

    def __post_init__(self):
        object.__setattr__(self, "counts", _read_only(np.array(self.counts)))
        check_range("window_ns", self.window_ns, self.bin_width_ns)  # at least one bin
        if self.counts.ndim != 1 or not np.all(np.isfinite(self.counts) & (self.counts >= 0)):
            raise ValueError("counts must be a 1-d array of finite, nonnegative values")

    @property
    def bin_centers(self) -> np.ndarray:
        return (np.arange(self.counts.size) + 0.5) * self.bin_width_ns

    @property
    def total(self) -> int:
        return int(self.counts.sum())


class HistogramTriple(Record):
    signal_on: Histogram
    pump_only: Histogram
    dark_only: Histogram


def _binomial_err(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


class SimulationResult(Record):
    """The accepted clicks and skipped gates of ``simulate``'s two lanes,
    and what follows from them: each lane's alive gates (``n_shots`` less
    the skipped), its click probability over them (``p_signal``,
    ``p_noise``) with binomial errors, and the unsubtracted SNR
    (p_S - p_N) / p_N with its propagated error.  No click with the input
    blocked leaves p_N at 0 and raises ``DegenerateDenominatorError``."""

    clicks_signal: np.ndarray  # CLICK_DTYPE, input on
    clicks_noise: np.ndarray  # CLICK_DTYPE, input blocked
    n_shots: int
    skipped_signal: int
    skipped_noise: int

    def __post_init__(self):
        for name in ("clicks_signal", "clicks_noise"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        # each lane of simulate keeps at least one alive gate: the first accepted click's
        alive_s = self.n_shots - self.skipped_signal
        alive_n = self.n_shots - self.skipped_noise
        for name, alive, clicks in (("signal", alive_s, self.clicks_signal),
                                    ("noise", alive_n, self.clicks_noise)):
            check_range(f"n_shots - skipped_{name}", alive, max(1, clicks.size), self.n_shots, "[]")
        if self.clicks_noise.size == 0:
            raise DegenerateDenominatorError(
                "zero noise probability; SNR undefined (no click with the input blocked, "
                f"{alive_n} alive gates): pump_power, noise_alpha_detected, filter_bandwidth "
                "and detector_dark_rate set its click rate per gate, and montecarlo_shots "
                "the number of gates"
            )
        p_s = self.clicks_signal.size / alive_s
        p_n = self.clicks_noise.size / alive_n
        err_s = _binomial_err(p_s, alive_s)
        err_n = _binomial_err(p_n, alive_n)
        vars(self).update(
            alive_signal=alive_s, alive_noise=alive_n, p_signal=p_s, p_signal_err=err_s,
            p_noise=p_n, p_noise_err=err_n, snr=(p_s - p_n) / p_n,
            snr_err=math.hypot(err_s / p_n, p_s * err_n / p_n**2),
        )


def _substreams(seed: int, lane: int, chunks: range) -> Iterator[np.random.Generator]:
    """Chunk ci's own substream for each ci in ``chunks``, in order.

    Each has the state of Philox(key=seed).jumped(lane * _LANE_STRIDE + ci),
    since a jump adds to counter word 2.  One generator is set to each
    state in turn, which is cheaper than building one per chunk, so finish
    with each substream before taking the next."""
    bitgen = np.random.Philox(key=seed)
    state = bitgen.state
    rng = np.random.Generator(bitgen)
    for ci in chunks:
        state["state"]["counter"][2] = lane * _LANE_STRIDE + ci
        bitgen.state = state
        yield rng


def _first_per_shot(shot: np.ndarray, t: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Indices of each shot's click in events stably sorted by shot, the
    i-th of which has shot ``shot[i]`` and time ``t[order[i]]``: its
    earliest event, and of equal times the first in the sorted order.

    An event alone in its shot is that shot's click, so the group minimum
    runs only over the events of shared shots, and only their times are
    read."""
    # new[i]: event i starts a shot, new[n] closes the last one
    new = np.ones(shot.size + 1, dtype=bool)
    new[1:-1] = shot[1:] != shot[:-1]
    pick = new[:-1] & new[1:]  # alone in its shot
    shared = np.flatnonzero(~pick)
    ts = t[order[shared]]
    head = new[shared]
    group = np.cumsum(head) - 1
    at_min = np.flatnonzero(ts == np.minimum.reduceat(ts, np.flatnonzero(head))[group])
    pick[shared[at_min[np.diff(group[at_min], prepend=-1) != 0]]] = True
    return np.flatnonzero(pick)


def _collect_clicks(
    chain: ConversionChain,
    mu_in: float,
    pump_mw: float,
    n_shots: int,
    seed: int,
    lane: int,
    window_ns: float,
    chunks: range,
) -> np.ndarray:
    """First detected event per shot in the shots of ``chunks``, before
    dead-time bookkeeping.

    The window spans [0, window_ns) with the pulse centered at its middle.
    Each chunk draws from its own substream: one Poisson(m·λ) event count,
    spread uniformly over its m shots, a uniform u per event, then the
    signal events' Gaussian times and the others' uniform times.  The
    origin of u·λ is the number of cumulative event means at or below it
    (λ, the last, never is), so each origin is drawn in proportion to its
    rate and one of zero rate, whose edge repeats the one before it,
    never.  All that follows the draws runs once over the chunks'
    concatenated events."""
    # the cumulative means; the index of each mean is its origin code
    edges = np.cumsum(chain.event_means(mu_in, pump_mw, window_ns))
    lam = edges[-1]
    base = chunks.start * _CHUNK
    # u·λ <= λ, and the clamp below moves only values at λ, which then lie
    # below edges[0] only if it is λ: so, before the clamp, a chunk's signal
    # events are those below edges[0], or all of them if edges[0] is λ
    all_signal = edges[0] == lam
    rels, draws, normals, uniforms = [], [], [np.empty(0)], [np.empty(0)]
    for ci, rng in zip(chunks, _substreams(seed, lane, chunks)):
        start = ci * _CHUNK
        m = min(_CHUNK, n_shots - start)
        n = int(rng.poisson(m * lam))
        if n == 0:
            continue
        # the draws of integers(0, m), offset by the chunk's start in the batch
        rels.append(rng.integers(start - base, start - base + m, n))
        u = rng.random(n)
        u *= lam
        k = n if all_signal else int(np.count_nonzero(u < edges[0]))
        draws.append(u)
        # a draw of no values takes nothing from the stream: skipping it
        # saves a call and keeps every record
        if k:
            normals.append(rng.standard_normal(k))
        if k < n:
            uniforms.append(rng.uniform(0.0, window_ns, n - k))
    if not rels:
        return np.empty(0, dtype=CLICK_DTYPE)
    u = np.concatenate(draws)
    # u·λ < λ for any normal λ, and the clamp to the double below λ keeps it
    # so for a subnormal one: no draw lands past the last positive rate
    np.minimum(u, np.nextafter(lam, 0.0), out=u)
    signal = u < edges[0]
    t = np.empty(u.size)
    pulse = np.concatenate(normals)
    pulse *= chain.pulse.sigma_ns
    pulse += window_ns / 2.0
    t[signal] = pulse
    t[~signal] = np.concatenate(uniforms)
    # one sort of the events in the window by (shot within the batch, draw
    # index), packed as shot << 32 | index into 64 unsigned bits: the keys
    # are distinct, so the sort is stable by shot, and each half is read
    # back with no gather
    inside = np.flatnonzero((t >= 0.0) & (t < window_ns))
    key = np.concatenate(rels)[inside].view(np.uint64)
    key <<= 32
    key |= inside.view(np.uint64)
    key.sort()
    # both halves as signed integers, which numpy indexes and stores uncast
    order = (key & 0xFFFFFFFF).view(np.intp)
    key >>= 32
    shot = key.view(np.int64)
    # the stable sort keeps each shot's events in draw order
    first = _first_per_shot(shot, t, order)
    drawn = order[first]
    rec = np.empty(first.size, dtype=CLICK_DTYPE)
    rec["shot"] = shot[first] + base
    rec["time_ns"] = t[drawn]
    # the origin: how many of the first two edges lie at or below u·λ
    u = u[drawn]
    rec["origin"] = np.add(u >= edges[0], u >= edges[1], dtype=np.int8)
    return rec


def _apply_dead_time(
    clicks: np.ndarray, n_shots: int, dead_gates: int
) -> tuple[np.ndarray, int]:
    """Drop clicks in gates suppressed by the detector dead time.

    Returns the accepted clicks and the number of skipped gates (gates in
    a dead window are excluded from the denominator entirely).

    A click more than dead_gates after the one before it is isolated and
    accepted whatever came earlier; the others form runs behind isolated
    heads.  A click isolated from the next one too is in no run, so only
    the clicks in runs, compacted, are searched.  There an accepted click
    i blanks the gates up to shot + dead_gates, so the next accepted one
    is ``jump[i]``, the first past that, or the sentinel ``m`` where that
    lies past i's run; the first click past a run is a lone click or the
    next head, so compacting changes no chain.  Pointer doubling follows
    each run's chain head, jump[head], ... at once: while ``kept`` holds
    the first 2^k links of each chain and ``jump`` spans 2^k, ``jump[kept]``
    are the next 2^k and ``jump[jump]`` spans 2^(k+1); ceil(log2 L) rounds
    for the longest chain, L <= 1 + (its run's span) // (dead_gates + 1)."""
    n = clicks.size
    if dead_gates == 0 or n == 0:
        return clicks, 0
    itype = np.int32 if n_shots + dead_gates <= np.iinfo(np.int32).max else np.int64
    shots = clicks["shot"].astype(itype)
    # keep: accepted so far, the isolated clicks and the sentinel
    keep = np.ones(n + 1, dtype=bool)
    np.greater(np.diff(shots), dead_gates, out=keep[1:n])
    runs = np.flatnonzero(~(keep[:n] & keep[1:]))  # the clicks in runs, in order
    m = runs.size
    in_run = shots.take(runs)
    # keep over the clicks in runs and the sentinel: at first the isolated
    # ones, which are the heads of the runs
    keep_run = np.empty(m + 1, dtype=bool)
    keep.take(runs, out=keep_run[:m])
    keep_run[m] = True
    jump = np.empty(m + 1, dtype=itype)
    jump[:m] = np.searchsorted(in_run, in_run + dead_gates, side="right")
    jump[m] = m
    jump[keep_run.take(jump)] = m
    kept = np.flatnonzero(keep_run[:m])
    links = jump.take(kept)
    while (links := links[links < m]).size:
        keep_run[links] = True
        kept = np.concatenate((kept, links))
        jump = jump.take(jump)
        links = jump.take(kept)
    keep[runs] = keep_run[:m]
    # compress copies whole records: faster than a boolean index of them,
    # and as fast as a compress of their raw bytes
    accepted = np.compress(keep[:n], clicks)
    # skipped is the sum of min(s + dead_gates, n_shots - 1) - s over the
    # accepted clicks; they lie more than dead_gates apart, so only the
    # last one's dead window can be cut short by the end of the run
    last = int(accepted["shot"][-1])
    skipped = dead_gates * (accepted.size - 1) + min(last + dead_gates, n_shots - 1) - last
    return accepted, skipped


def _run_lane(
    scenario: ExperimentScenario, lane: int, mu_in: float, pump_mw: float, window_ns: float
) -> tuple[np.ndarray, int]:
    """Accepted clicks and skipped gates of one lane of the scenario.

    The chunks are collected in batches of about ``_BATCH_EVENTS`` expected
    events, and dead time runs once per batch.  Between batches only the
    last accepted shot + dead_gates carries over: a batch's clicks up to it
    are dropped, and the skipped counts add up exactly, because accepted
    clicks lie more than dead_gates apart and only the last dead window of
    the run can be cut short.  A window of n_shots gates already blanks
    the rest of the run, so a longer one is cut to it."""
    chain, n_shots = scenario.chain, scenario.n_shots
    dead_gates = min(scenario.dead_gates, n_shots)
    # as in _collect_clicks; a float, so that a subnormal rate gives inf chunks, not an overflow
    lam = float(np.cumsum(chain.event_means(mu_in, pump_mw, window_ns))[-1])
    if lam > MAX_EXPECTED_CLICKS_PER_GATE:
        raise ValueError(
            f"expected {lam:.3g} clicks per gate exceeds the model validity "
            f"bound of {MAX_EXPECTED_CLICKS_PER_GATE}"
        )
    if lam == 0:
        return np.empty(0, dtype=CLICK_DTYPE), 0
    n_chunks = (n_shots + _CHUNK - 1) // _CHUNK
    per_batch = max(1, int(min(_BATCH_EVENTS / (_CHUNK * lam), _MAX_BATCH_CHUNKS)))
    kept, skipped, dead_until = [], 0, -1
    for lo in range(0, n_chunks, per_batch):
        chunks = range(lo, min(lo + per_batch, n_chunks))
        clicks = _collect_clicks(chain, mu_in, pump_mw, n_shots, scenario.seed, lane, window_ns, chunks)
        clicks = clicks[np.searchsorted(clicks["shot"], dead_until, side="right"):]
        accepted, skip = _apply_dead_time(clicks, n_shots, dead_gates)
        if accepted.size:
            dead_until = int(accepted["shot"][-1]) + dead_gates
        kept.append(accepted.view(_CLICK_BYTES))
        skipped += skip
    return np.concatenate(kept).view(CLICK_DTYPE), skipped


def simulate(scenario: ExperimentScenario) -> SimulationResult:
    """Estimate per-gate click probabilities with the input on (p_S) and
    blocked (p_N), plus the unsubtracted SNR, all with binomial errors.
    Raises ``DegenerateDenominatorError`` when p_N is 0.

    The detection window is the configured gate, centered on the pulse.
    """
    window = scenario.chain.detector.gate_width_ns
    pump = scenario.pump_mw
    clicks_s, skip_s = _run_lane(scenario, _LANE_SIGNAL, scenario.mu_in, pump, window)
    clicks_n, skip_n = _run_lane(scenario, _LANE_NOISE, 0.0, pump, window)
    return SimulationResult(clicks_s, clicks_n, scenario.n_shots, skip_s, skip_n)


def _histogram_from_clicks(
    clicks: np.ndarray, bin_width_ns: float, window_ns: float
) -> Histogram:
    n_bins = int(window_ns / bin_width_ns)
    edges = np.arange(n_bins + 1) * bin_width_ns
    counts, _ = np.histogram(clicks["time_ns"], bins=edges)
    return Histogram(bin_width_ns=bin_width_ns, counts=counts, window_ns=window_ns)


def start_stop_histogram(
    scenario: ExperimentScenario,
    bin_width_ns: float = 0.64,
    window_ns: float = 100.0,
) -> HistogramTriple:
    """Start-stop arrival histograms over a wide detection window.

    Three passes mirror the measurement procedure: input on (signal over
    the noise pedestal), pump only (flat pedestal over dark floor) and
    everything blocked (flat dark floor).
    """
    check_range("bin_width_ns", bin_width_ns, bounds="()")
    # at least one bin, and shorter than the repetition period
    check_range("window_ns", window_ns, bin_width_ns, scenario.chain.gate_period_ns)
    passes = (
        (_LANE_HIST_SIGNAL, scenario.mu_in, scenario.pump_mw),
        (_LANE_HIST_PUMP, 0.0, scenario.pump_mw),
        (_LANE_HIST_DARK, 0.0, 0.0),
    )
    hists = []
    for lane, mu, pump in passes:
        accepted, _ = _run_lane(scenario, lane, mu, pump, window_ns)
        hists.append(_histogram_from_clicks(accepted, bin_width_ns, window_ns))
    return HistogramTriple(*hists)


def gate_integrate(h: Histogram, gate_width_ns: float) -> float:
    """Sum the histogram counts inside a gate centered on the window."""
    check_range("gate width", gate_width_ns)
    if gate_width_ns > h.window_ns:
        raise ValueError(f"gate ({gate_width_ns} ns) exceeds the window ({h.window_ns} ns)")
    center = h.window_ns / 2.0
    centers = h.bin_centers
    mask = (centers >= center - gate_width_ns / 2.0) & (
        centers < center + gate_width_ns / 2.0
    )
    return float(h.counts[mask].sum())
