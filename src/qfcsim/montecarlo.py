"""Shot-level stochastic simulation of the conversion experiment.

Per shot, three independent Poisson sources feed the detection window:
input photons thinned through the efficiency chain (times drawn from the
pulse shape), pump-induced noise and dark counts (both uniform over the
window), with the means of ``ConversionChain.event_means``.  Only the
events inside the window are drawn: the signal's mean is cut to the
window's share of the pulse, beta_w (``noise.beta_factor``'s formula), so
``simulate`` uses beta_w itself, as the analytic model does.  The 100 ns
window of ``start_stop_histogram`` holds all but 8e-5 of the pulse, and
its drawn times still check the pulse shape and the gate fraction
(``test_gate_cut_supplies_beta``, ``TestHistogramOracle``).  A chunk of
m = 2**16 shots draws one Poisson(m·mean) event count per origin, laid out
signal, pump noise, dark, so an event's origin is its place, then one raw
Philox word per event: its top 16 bits are its shot, its low 48 bits a
uniform u, which gives pump noise and dark t = u·w and the signal the
normal truncated to the window by inversion, through Wichura's AS241
(Appl. Statist. 37, 477, 1988).  AS241's central branch, all that a
window of up to 36.7 ns needs, is + - × ÷ only, rounded alike on every
IEEE 754 machine; its tail branch uses numpy's ``log`` and ``sqrt``,
whose SIMD kernels can differ from libm in the last bit.  A lane's
partial last chunk draws as a full one and drops its events at shots
past the lane's; the kept ones of each origin are still Poisson
(thinning, Lewis & Shedler 1979).  The earliest event per shot is the
click.

Randomness is counter-based (Philox, Salmon et al., SC 2011): each
(lane, chunk) pair owns an independent substream derived from the
scenario seed, so the records do not depend on how the chunks are
grouped.  Each chunk makes only its own draws; the times and the first
event per shot (one sort of packed (shot, draw index) keys) run once over
a batch of chunks expecting about ``_BATCH_EVENTS`` whole-pulse events,
which shares numpy's fixed per-call cost among them.

Gates in the dead time after an accepted click are skipped and excluded
from the probability denominators (``_apply_dead_time``).  Between
batches only the last accepted shot plus the dead gates carries over, so
a lane streams its batches and keeps none: ``simulate`` counts each
batch's accepted clicks by origin and ``start_stop_histogram`` bins them,
and neither's memory grows with the shot count.  The results are
bit-reproducible for a given seed.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator

import numpy as np

from .chain import MAX_SHOTS, ExperimentScenario
from .noise import DegenerateDenominatorError, _window_fraction
from .optics import Record, check_range

__all__ = [
    "ExperimentScenario", "Histogram", "HistogramTriple", "SimulationResult", "CLICK_DTYPE",
    "ORIGIN_SIGNAL", "ORIGIN_PUMP", "ORIGIN_DARK", "ORIGIN_NAMES",
    "simulate", "start_stop_histogram", "gate_integrate",
]

ORIGIN_SIGNAL = np.int8(0)
ORIGIN_PUMP = np.int8(1)
ORIGIN_DARK = np.int8(2)
ORIGIN_NAMES = {int(ORIGIN_SIGNAL): "signal", int(ORIGIN_PUMP): "pump-noise", int(ORIGIN_DARK): "dark"}
# the origins of a chunk's events, in the order they are laid out
_ORIGINS = np.array([ORIGIN_SIGNAL, ORIGIN_PUMP, ORIGIN_DARK])

# a click of one batch; simulate keeps only its lane's counts by origin
CLICK_DTYPE = np.dtype([("shot", np.int64), ("time_ns", np.float64), ("origin", np.int8)])

_CHUNK = 1 << 16
# expected whole-pulse events per batch of chunks (a batch draws those in
# the window): the work after the draws runs once per batch, sharing its
# fixed numpy cost.  At the reference rate a lane's time fell from _CHUNK // 16
# to // 4; larger batches saved a few percent more for a larger heap peak
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

# a raw word's low 48 bits are its event's time, the top 16 its shot
_TIME_BITS = np.uint64((1 << 48) - 1)

# AS241's PPND16 coefficients, constant term first, a row each: the numerator
# and the denominator of the central branch, then of the tail for r <= 5 and r > 5
_AS241 = np.array("""
3.387132872796366608 1.3314166789178437745e2 1.9715909503065514427e3 1.3731693765509461125e4
4.5921953931549871457e4 6.7265770927008700853e4 3.3430575583588128105e4 2.5090809287301226727e3
1.0 4.2313330701600911252e1 6.871870074920579083e2 5.3941960214247511077e3
2.1213794301586595867e4 3.930789580009271061e4 2.8729085735721942674e4 5.226495278852854561e3
1.42343711074968357734 4.6303378461565452959 5.7694972214606914055 3.64784832476320460504
1.27045825245236838258 2.4178072517745061177e-1 2.27238449892691845833e-2 7.7454501427834140764e-4
1.0 2.05319162663775882187 1.6763848301838038494 6.8976733498510000455e-1
1.4810397642748007459e-1 1.51986665636164571966e-2 5.475938084995344946e-4 1.05075007164441684324e-9
6.6579046435011037772 5.4637849111641143699 1.7848265399172913358 2.9656057182850489123e-1
2.6532189526576123093e-2 1.2426609473880784386e-3 2.71155556874348757815e-5 2.01033439929228813265e-7
1.0 5.9983220655588793769e-1 1.3692988092273580531e-1 1.48753612908506148525e-2
7.868691311456132591e-4 1.8463183175100546818e-5 1.4215117583164458887e-7 2.04426310338993978564e-15
""".split(), dtype=float).reshape(6, 8)

# the most bins a histogram holds: 1 ps bins over the reference 1 us gate
# period, 8 MiB per count array
_MAX_BINS = 1 << 20


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``, which itself stays writeable: a record stores
    one so that its checks keep holding, and copies nothing."""
    view = array.view()
    view.flags.writeable = False
    return view


class Histogram(Record):
    """Start-stop histogram: a read-only copy of 1 to ``_MAX_BINS`` counts,
    one a bin, and ``window_ns``, derived as the last bin edge, which must
    be finite."""

    bin_width_ns: float
    counts: np.ndarray
    _bounds = {"bin_width_ns": ("bin_width_ns", 0.0, math.inf, "()")}

    def __post_init__(self):
        object.__setattr__(self, "counts", _read_only(np.array(self.counts)))
        counts = self.counts
        bins_ok = counts.ndim == 1 and 1 <= counts.size <= _MAX_BINS
        if not bins_ok or not np.all(np.isfinite(counts) & (counts >= 0)):
            raise ValueError(f"counts must be 1 to {_MAX_BINS} finite, nonnegative values, one a bin")
        window = counts.size * self.bin_width_ns
        check_range("window_ns (bins x bin_width_ns)", window, bounds="()")
        vars(self)["window_ns"] = window

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


def _horner(coefs: tuple[float, ...], r: np.ndarray) -> np.ndarray:
    """The polynomial of ``coefs``, constant term first, at ``r``: (c7·r + c6)·r + ... + c0."""
    value = coefs[-1] * r
    for c in coefs[-2:0:-1]:
        value += c
        value *= r
    value += coefs[0]
    return value


def _ndtri(q: np.ndarray) -> np.ndarray:
    """The standard normal quantile Phi^-1(1/2 + q) for q in (-1/2, 1/2) by
    AS241's PPND16, which forms q = p - 1/2 first: taking q, 1/2 + q is never
    rounded.  The central branch, q·A(r)/B(r) at r = 0.180625 - q^2, runs
    for every q; the tail's, for |q| > 0.425, only where needed."""
    r = q * q
    np.subtract(0.180625, r, out=r)
    x = _horner(_AS241[0], r)
    x *= q
    x /= _horner(_AS241[1], r)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        r = np.sqrt(-np.log(0.5 - np.abs(q[tail])))
        v = _horner(_AS241[2], r - 1.6) / _horner(_AS241[3], r - 1.6)
        far = np.flatnonzero(r > 5.0)  # 1/2 - |q| below e^-25
        v[far] = _horner(_AS241[4], r[far] - 5.0) / _horner(_AS241[5], r[far] - 5.0)
        x[tail] = np.copysign(v, q[tail])
    return x


def _event_times(
    words: np.ndarray, n_signal: int, beta: float, sigma_ns: float, window_ns: float
) -> np.ndarray:
    """Each event's time in [0, window_ns) from its raw word's low 48 bits,
    u = (bits + 1/2)·2**-48, exact, in [2**-49, 1 - 2**-49]: for the first
    ``n_signal`` events the pulse truncated to the window, of which it holds
    ``beta``, t = w/2 + sigma·Phi^-1(1/2 + (u - 1/2)·beta), and for the
    others, pump noise and dark, t = u·w."""
    t = np.multiply(words & _TIME_BITS, 2.0**-48)
    t += 2.0**-49
    if n_signal:
        q = t[:n_signal] - 0.5
        q *= beta
        t[:n_signal] = _ndtri(q) * sigma_ns + window_ns / 2.0
    t[n_signal:] *= window_ns
    return t


def _collect_clicks(
    means: tuple[float, float, float], sigma_ns: float, n_shots: int, seed: int, lane: int,
    window_ns: float, chunks: range,
) -> np.ndarray:
    """First detected event per shot in the shots of ``chunks``, before
    dead-time bookkeeping, from the lane's expected (whole-pulse signal,
    pump-noise, dark) events per gate, ``means``, whose index is the origin
    code, over the window [0, window_ns) with the pulse centered in it.

    Each chunk draws from its own substream the Poisson counts of its
    events inside the window, of means 2**16 × (signal·beta_w, pump noise,
    dark), then one raw word per event.  A lane's partial last chunk, of m
    shots, drops its events at shots m and past: each event's shot is
    uniform and independent of its count and time, so the kept ones of each
    origin are Poisson(m·mean) over the m shots.  All that follows the
    draws runs once over the chunks' concatenated events."""
    beta = _window_fraction(sigma_ns, window_ns)
    scaled = (_CHUNK * (means[0] * beta), _CHUNK * means[1], _CHUNK * means[2])
    base = chunks.start * _CHUNK
    words, counts, offsets = ([], [], []), [], []
    for ci, rng in zip(chunks, _substreams(seed, lane, chunks)):
        k = [int(rng.poisson(x)) for x in scaled]
        n = k[0] + k[1] + k[2]
        if n == 0:
            continue
        w = rng.bit_generator.random_raw(n)
        m = n_shots - ci * _CHUNK
        if m < _CHUNK:
            # the events at shots m and past are the words from m << 48 up
            kept = w < np.uint64(m << 48)
            k = [int(np.count_nonzero(part)) for part in np.split(kept, [k[0], k[0] + k[1]])]
            w = w[kept]
        words[0].append(w[:k[0]])
        words[1].append(w[k[0]:k[0] + k[1]])
        words[2].append(w[k[0] + k[1]:])
        counts += k
        offsets.append(ci * _CHUNK - base)
    if not offsets:
        return np.empty(0, dtype=CLICK_DTYPE)
    # the batch's events by origin, and each origin's by chunk: a shot's
    # events, all of one chunk, keep their order of draw
    words = np.concatenate(words[0] + words[1] + words[2])
    counts = np.array(counts).reshape(-1, 3).T
    origin = np.repeat(_ORIGINS, counts.sum(axis=1))
    t = _event_times(words, int(counts[0].sum()), beta, sigma_ns, window_ns)
    # one sort of the events by (shot within the batch, draw index), packed
    # as shot << 32 | index into 64 unsigned bits: the keys are distinct, so
    # the sort is stable by shot, and each half is read back with no gather
    key = words >> 48
    key += np.repeat(np.array(offsets * 3, dtype=np.uint64), counts.ravel())
    key <<= 32
    key |= np.arange(key.size, dtype=np.uint64)
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
    rec["origin"] = origin[drawn]
    return rec


def _apply_dead_time(clicks: np.ndarray, n_shots: int, dead_gates: int) -> tuple[np.ndarray, int]:
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
    means are read once, when the first batch is asked for.  A lane of at
    most the smallest normal double, 2.2e-308 events per gate, yields
    nothing and draws nothing: e^(-2**16·λ) rounds to 1 there, so every
    Poisson count of every chunk would be 0."""
    n_shots, sigma_ns = scenario.n_shots, scenario.chain.pulse.sigma_ns
    dead_gates = min(scenario.dead_gates, n_shots)
    means = scenario.chain.event_means(mu_in, pump_mw, window_ns)
    lam = means[0] + means[1] + means[2]
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
        clicks = _collect_clicks(means, sigma_ns, n_shots, scenario.seed, lane, window_ns, chunks)
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
    scenario: ExperimentScenario, bin_width_ns: float = 0.64, window_ns: float = 100.0
) -> HistogramTriple:
    """Start-stop arrival histograms over a wide detection window.

    Three passes mirror the measurement procedure: input on (signal over
    the noise pedestal), pump only (flat pedestal over dark floor) and
    everything blocked (flat dark floor).  ``window_ns`` is rounded down to
    whole bins, 1 to ``_MAX_BINS`` of them, checked before any pass is
    drawn, and every pass is drawn over them, centered there.  A window
    within 4 ulps of n whole bins holds n (a histogram's own ``window_ns``
    gives its bins back), less one if their last edge reaches the period.
    """
    check_range("bin_width_ns", bin_width_ns, bounds="()")
    period = scenario.chain.gate_period_ns
    check_range("window_ns", window_ns, high=period)
    bins = window_ns / bin_width_ns * (1.0 + 2.0**-50)
    check_range("bins in the window (window_ns / bin_width_ns)", bins, 1.0, _MAX_BINS + 1, "[)")
    edges = np.arange(int(bins) + 1) * bin_width_ns
    edges = edges[:-1] if edges[-1] >= period else edges
    window_ns = float(edges[-1])
    check_range("window_ns in whole bins of bin_width_ns", window_ns, bounds="()")
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
        hists.append(Histogram(bin_width_ns, counts))
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
