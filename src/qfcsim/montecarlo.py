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
one per shot is the click.  The shots, the u and the uniform times are
Philox's raw 64-bit words, cut by the package's own transforms into the
numbers numpy's ``integers``, ``random`` and ``uniform`` give, bit for
bit: a shot is the top 16 bits of a 32-bit half, Lemire's multiply-shift
(ACM TOMACS 29(1), 2019), which never rejects for 2**16 shots; a double
is a word's top 53 bits.  The origin compares the u word itself with
each edge's smallest word (``_word_edge``).  The Poisson counts, the
normals and the shots of a lane's partial last chunk are numpy's
``Generator`` methods.  A lane of at most 2.2e-308 events per gate, the
smallest normal double, draws nothing.  At the reference point about 1%
of gates click, so this draws about m/100 events where per-shot draws
would need 4m numbers.

Randomness is counter-based (Philox, Salmon et al., SC 2011): each
(lane, chunk) pair owns an independent substream derived from the
scenario seed, so the records do not depend on how the chunks are
grouped.  Each chunk makes only its own draws; the transforms of the
raw words, the origin lookup, the window cut and the choice of the first
event per shot (one sort of packed (shot, draw index) keys) run once over
a batch of chunks holding about ``_BATCH_EVENTS`` expected events, which
shares numpy's fixed per-call cost among them.  An event alone in its
shot is that shot's click, so the earliest-time choice runs only over the
events of shared shots: at the reference point about 1% of the events in
the window.

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
over, so a lane streams its batches and keeps none: ``simulate`` counts
each batch's accepted clicks by origin and ``start_stop_histogram`` bins
them, and neither's memory grows with the shot count.  The results are
bit-reproducible for a given seed.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator

import numpy as np

from .chain import MAX_SHOTS, ExperimentScenario
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

# a click of one batch; simulate keeps only its lane's counts by origin
CLICK_DTYPE = np.dtype(
    [("shot", np.int64), ("time_ns", np.float64), ("origin", np.int8)]
)

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

# Generator.random's double of a raw word w is (w >> 11) * _U53
_U53 = 2.0**-53
_EMPTY_WORDS = np.empty(0, dtype=np.uint64)

# the most bins a histogram holds: 1 ps bins over the reference 1 us gate
# period, 8 MiB per count array
_MAX_BINS = 1 << 20


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``, which itself stays writeable: a record stores
    one so that its checks keep holding, and copies nothing."""
    view = array.view()
    view.flags.writeable = False
    return view


def _bin_count(bin_width_ns: float, window_ns: float) -> int:
    """The whole bins of the window, 1 to ``_MAX_BINS`` of them; a click
    past the last one is not counted.  ``bin_width_ns`` is positive."""
    bins = window_ns / bin_width_ns
    check_range("bins in the window (window_ns / bin_width_ns)", bins, 1.0, _MAX_BINS, "[]")
    return int(bins)


class Histogram(Record):
    """Start-stop histogram over the detection window, with a read-only copy
    of the counts, one per whole bin of the window (``_bin_count``)."""

    bin_width_ns: float
    counts: np.ndarray
    window_ns: float
    _bounds = {"bin_width_ns": ("bin_width_ns", 0.0, math.inf, "()")}

    def __post_init__(self):
        object.__setattr__(self, "counts", _read_only(np.array(self.counts)))
        counts, n_bins = self.counts, _bin_count(self.bin_width_ns, self.window_ns)
        if counts.shape != (n_bins,) or not np.all(np.isfinite(counts) & (counts >= 0)):
            raise ValueError(f"counts must be {n_bins} finite, nonnegative values, one a whole bin")

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
    (p_S - p_N) / p_N with its propagated error.  A lane's clicks are a
    read-only copy of its 3 counts by origin, indexed by ``ORIGIN_SIGNAL``,
    ``ORIGIN_PUMP`` and ``ORIGIN_DARK``, as int64; their sum is the lane's
    accepted clicks.  No click with the input blocked leaves p_N at 0 and
    raises ``DegenerateDenominatorError``."""

    clicks_signal: np.ndarray  # accepted clicks by origin, input on
    clicks_noise: np.ndarray  # accepted clicks by origin, input blocked
    n_shots: int
    skipped_signal: int
    skipped_noise: int

    def __post_init__(self):
        for name in ("clicks_signal", "clicks_noise"):
            counts = np.asarray(getattr(self, name))
            if counts.shape != (3,) or counts.dtype.kind not in "iu" or np.any(counts < 0):
                raise ValueError(f"{name} must be 3 nonnegative integer counts, one per origin")
            object.__setattr__(self, name, _read_only(counts.astype(np.int64)))
        clicks_s, clicks_n = int(self.clicks_signal.sum()), int(self.clicks_noise.sum())
        # each lane of simulate keeps at least one alive gate: the first accepted click's
        alive_s = self.n_shots - self.skipped_signal
        alive_n = self.n_shots - self.skipped_noise
        for name, alive, clicks in (("signal", alive_s, clicks_s), ("noise", alive_n, clicks_n)):
            check_range(f"n_shots - skipped_{name}", alive, max(1, clicks), self.n_shots, "[]")
        if clicks_n == 0:
            raise DegenerateDenominatorError(
                "zero noise probability; SNR undefined (no click with the input blocked, "
                f"{alive_n} alive gates): pump_power, noise_alpha_detected, filter_bandwidth "
                "and detector_dark_rate set its click rate per gate, and montecarlo_shots "
                "the number of gates"
            )
        p_s = clicks_s / alive_s
        p_n = clicks_n / alive_n
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
    with each substream before taking the next.  A chunk draws through the
    generator's methods and its bit generator's ``random_raw`` alike: both
    read one stream of 64-bit words, and setting the next state drops what
    either left buffered (four words a Philox block, and the spare 32-bit
    half of an odd count of 32-bit draws)."""
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


def _doubles(words: np.ndarray, scale: float) -> np.ndarray:
    """``Generator.random``'s doubles of raw ``words``, (w >> 11)·2**-53,
    times ``scale``: for a scale of w, ``Generator.uniform(0, w)``'s
    doubles, bit for bit (the first product is exact)."""
    doubles = np.multiply(words >> 11, _U53)
    doubles *= scale
    return doubles


def _word_edge(edge: float, lam: float) -> int:
    """The smallest raw word r whose u·λ is at least ``edge``, where u is
    r's double from ``Generator.random``: u·λ < edge exactly when r is below
    it.  2**64, past every word, when no u·λ reaches the edge, as for an
    edge at a normal λ itself.

    u·λ is monotone in r, so a guess from edge / λ is corrected by the
    float predicate itself.  For a normal λ the guess is off by a few steps
    of 2**-53 at most, even where u·λ is subnormal."""
    q = min(math.ceil(edge / lam * 2.0**53), 1 << 53)
    while q > 0 and (q - 1) * _U53 * lam >= edge:
        q -= 1
    while q < 1 << 53 and q * _U53 * lam < edge:
        q += 1
    return q << 11


def _collect_clicks(
    edges: np.ndarray,
    sigma_ns: float,
    n_shots: int,
    seed: int,
    lane: int,
    window_ns: float,
    chunks: range,
) -> np.ndarray:
    """First detected event per shot in the shots of ``chunks``, before
    dead-time bookkeeping, from the lane's cumulative event means ``edges``,
    whose index is the origin code.

    The window spans [0, window_ns) with the pulse centered at its middle.
    Each chunk draws from its own substream: one Poisson(m·λ) event count,
    then in one call the raw words of its events' shots and one u word per
    event, then the signal events' Gaussian times and the raw words of the
    others' uniform times.  A full chunk's n shots are the top 16 bits of
    each 32-bit half of its first ceil(n/2) words, low half first: the draws
    of ``integers(0, 2**16, n)``, since Lemire's multiply-shift never
    rejects for a range of 2**16.  A lane's partial last chunk can reject,
    so it draws its shots with ``integers``.  Beyond its draws a chunk only
    counts its u words below the signal's word edge; every transform runs
    once over the batch.

    No u is made.  The origin of u·λ is the number of the first two edges
    at or below it, which ``_word_edge`` turns into words, so an event's
    origin is the number of those word edges at or below its u word.  λ,
    the last edge, is never reached (u <= 1 - 2**-53, and u·λ rounds below
    any normal λ above 2**-1022), so each origin is drawn in proportion to
    its rate and one of zero rate, whose edge repeats the one before it,
    never.  All that follows the draws runs once over the chunks'
    concatenated events."""
    lam = edges[-1]
    signal_edge, dark_edge = _word_edge(edges[0], lam), _word_edge(edges[1], lam)
    base = chunks.start * _CHUNK
    shot_words, counts, offsets, partial = [], [], [], []
    u_words, normals, time_words = [], [np.empty(0)], [_EMPTY_WORDS]
    for ci, rng in zip(chunks, _substreams(seed, lane, chunks)):
        start = ci * _CHUNK
        m = min(_CHUNK, n_shots - start)
        n = int(rng.poisson(m * lam))
        if n == 0:
            continue
        raw = rng.bit_generator.random_raw
        if m == _CHUNK:
            h = (n + 1) // 2
            words = raw(h + n)
            shot_words.append(words[:h])
            counts.append(n)
            offsets.append(start - base)
            u = words[h:]
        else:
            # the draws of integers(0, m), offset by the chunk's start in the batch
            partial.append(rng.integers(start - base, start - base + m, n).view(np.uint64))
            u = raw(n)
        u_words.append(u)
        # a lane with no signal has its signal word edge at 0: nothing to count
        k = int(np.count_nonzero(u < signal_edge)) if signal_edge else 0
        # a draw of no values takes nothing from the stream: skipping it
        # saves a call and keeps every record
        if k:
            normals.append(rng.standard_normal(k))
        if k < n:
            time_words.append(raw(n - k))
    if not u_words:
        return np.empty(0, dtype=CLICK_DTYPE)
    u = np.concatenate(u_words)
    signal = u < signal_edge
    t = np.empty(u.size)
    pulse = np.concatenate(normals)
    pulse *= sigma_ns
    pulse += window_ns / 2.0
    t[signal] = pulse
    t[~signal] = _doubles(np.concatenate(time_words), window_ns)
    # one sort of the events in the window by (shot within the batch, draw
    # index), packed as shot << 32 | index into 64 unsigned bits: the keys
    # are distinct, so the sort is stable by shot, and each half is read
    # back with no gather
    inside = np.flatnonzero((t >= 0.0) & (t < window_ns))
    key = np.concatenate([_full_chunk_shots(shot_words, counts, offsets), *partial])[inside]
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
    # the origin: how many of the first two word edges lie at or below u's word
    u = u[drawn]
    rec["origin"] = np.add(u >= signal_edge, u >= dark_edge, dtype=np.int8)
    return rec


def _full_chunk_shots(words: list, counts: list, offsets: list) -> np.ndarray:
    """The shots within the batch of the full chunks' events, as uint64.
    Chunk i drew ``counts[i]`` shots from ``words[i]``, ceil(counts[i] / 2)
    raw words, and starts ``offsets[i]`` shots into the batch.

    A shot is the top 16 bits of a word's 32-bit half, low half first: the
    16-bit pieces 1 and 3 of the word's little-endian bytes, which ``astype``
    leaves in place on a little-endian machine and swaps into place on a
    big-endian one.  An odd count leaves its chunk's last high half unused."""
    w = np.concatenate([_EMPTY_WORDS, *words]).astype("<u8", copy=False)
    tops = w.view("<u2")[1::2]
    n = np.array(counts, dtype=np.int64)
    odd = n & 1
    if odd.any():
        tops = np.delete(tops, np.cumsum(n + odd)[odd == 1] - 1)
    shots = np.repeat(np.array(offsets, dtype=np.uint64), n)
    shots += tops
    return shots


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
    shots = clicks["shot"]
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
    jump = np.empty(m + 1, dtype=np.intp)
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
) -> Iterator[tuple[np.ndarray, int]]:
    """Each batch's accepted clicks and skipped gates, in shot order, for one
    lane of the scenario: the lane's are their concatenation and sum.

    The chunks are collected in batches of about ``_BATCH_EVENTS`` expected
    events, and dead time runs once per batch.  Between batches only the
    last accepted shot + dead_gates carries over: a batch's clicks up to it
    are dropped, and the skipped counts add up exactly, because accepted
    clicks lie more than dead_gates apart and only the last dead window of
    the run can be cut short.  A window of n_shots gates already blanks
    the rest of the run, so a longer one is cut to it.  The lane's event
    means are read once, when the first batch is asked for; a lane of at
    most the smallest normal double, 2.2e-308 events per gate, yields
    nothing."""
    n_shots, sigma_ns = scenario.n_shots, scenario.chain.pulse.sigma_ns
    dead_gates = min(scenario.dead_gates, n_shots)
    edges = np.cumsum(scenario.chain.event_means(mu_in, pump_mw, window_ns))
    lam = edges[-1]
    if lam > MAX_EXPECTED_CLICKS_PER_GATE:
        raise ValueError(
            f"expected {lam:.3g} clicks per gate over a {window_ns:g} ns window exceeds the "
            f"model validity bound of {MAX_EXPECTED_CLICKS_PER_GATE}: source_mean_photon_number, "
            "pump_power, noise_alpha_detected, filter_bandwidth, detector_dark_rate and the "
            "window width set it"
        )
    if lam <= sys.float_info.min:
        return
    n_chunks = (n_shots + _CHUNK - 1) // _CHUNK
    per_batch = max(1, int(min(_BATCH_EVENTS / (_CHUNK * lam), _MAX_BATCH_CHUNKS)))
    dead_until = -1
    for lo in range(0, n_chunks, per_batch):
        chunks = range(lo, min(lo + per_batch, n_chunks))
        clicks = _collect_clicks(edges, sigma_ns, n_shots, scenario.seed, lane, window_ns, chunks)
        clicks = clicks[np.searchsorted(clicks["shot"], dead_until, side="right"):]
        accepted, skip = _apply_dead_time(clicks, n_shots, dead_gates)
        if accepted.size:
            dead_until = int(accepted["shot"][-1]) + dead_gates
        yield accepted, skip


def simulate(scenario: ExperimentScenario) -> SimulationResult:
    """Estimate per-gate click probabilities with the input on (p_S) and
    blocked (p_N), plus the unsubtracted SNR, all with binomial errors.
    Raises ``DegenerateDenominatorError`` when p_N is 0.

    The detection window is the configured gate, centered on the pulse.
    Each lane's accepted clicks are counted by origin, batch by batch.
    """
    window = scenario.chain.detector.gate_width_ns
    lanes = []
    for lane, mu in ((_LANE_SIGNAL, scenario.mu_in), (_LANE_NOISE, 0.0)):
        counts, skipped = np.zeros(3, dtype=np.int64), 0
        for accepted, skip in _run_lane(scenario, lane, mu, scenario.pump_mw, window):
            counts += np.bincount(accepted["origin"], minlength=3)
            skipped += skip
        lanes.append((counts, skipped))
    (clicks_s, skip_s), (clicks_n, skip_n) = lanes
    return SimulationResult(clicks_s, clicks_n, scenario.n_shots, skip_s, skip_n)


def _histogram_from_clicks(clicks: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """One batch's clicks counted between ``edges``, those of the window's
    whole bins, which the caller builds once."""
    counts, _ = np.histogram(clicks["time_ns"], bins=edges)
    return counts


def start_stop_histogram(
    scenario: ExperimentScenario,
    bin_width_ns: float = 0.64,
    window_ns: float = 100.0,
) -> HistogramTriple:
    """Start-stop arrival histograms over a wide detection window.

    Three passes mirror the measurement procedure: input on (signal over
    the noise pedestal), pump only (flat pedestal over dark floor) and
    everything blocked (flat dark floor).  The bins are checked and their
    edges built before any pass is drawn.
    """
    check_range("bin_width_ns", bin_width_ns, bounds="()")
    check_range("window_ns", window_ns, high=scenario.chain.gate_period_ns)
    edges = np.arange(_bin_count(bin_width_ns, window_ns) + 1) * bin_width_ns
    passes = (
        (_LANE_HIST_SIGNAL, scenario.mu_in, scenario.pump_mw),
        (_LANE_HIST_PUMP, 0.0, scenario.pump_mw),
        (_LANE_HIST_DARK, 0.0, 0.0),
    )
    hists = []
    for lane, mu, pump in passes:
        counts = np.zeros(edges.size - 1, dtype=np.int64)
        for accepted, _ in _run_lane(scenario, lane, mu, pump, window_ns):
            counts += _histogram_from_clicks(accepted, edges)
        hists.append(Histogram(bin_width_ns, counts, window_ns))
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
