"""Shot-level stochastic simulation of the conversion experiment.

Per shot, three independent Poisson sources feed the detection window:
input photons thinned through the efficiency chain (times drawn from the
pulse shape), pump-induced noise and dark counts (both uniform over the
window).  ``ConversionChain.event_means``, which the analytic model reads
too, gives their means; the gate cut is in the drawn times, not a β.
Their superposition is one Poisson process of λ = μ·p_surv +
(r_pump + r_dark)·w events per gate, and thinning splits it back into
origins in proportion to the three terms (Lewis & Shedler 1979).  So a
chunk of m shots draws one Poisson(m·λ) event count, a uniform shot and
a categorical origin per event, and a Gaussian (signal) or uniform time;
events outside the window are dropped and the earliest one per shot is
the click.  At the reference point about 1% of gates click, so this
draws about m/100 events where per-shot draws would need 4m numbers.

Gates in the dead time after an accepted click are skipped and excluded
from the probability denominators.  Each click's successor, the first
click past its dead window, is found by one sorted search; the accepted
clicks are the chain of successors from the first click, found by
pointer doubling (Hillis & Steele 1986) rather than a loop over clicks.

Randomness is counter-based (Philox) and chunked: each (lane, chunk)
pair owns an independent substream derived from the scenario seed, so
chunks may be evaluated in any order or in parallel; results are merged
in fixed chunk order and are bit-reproducible for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ConversionChain

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

_CHUNK = 1 << 16

# lanes 0/1: simulate (input on / blocked); lanes 2/3/4: histogram passes
_LANE_SIGNAL = 0
_LANE_NOISE = 1
_LANE_HIST_SIGNAL = 2
_LANE_HIST_PUMP = 3
_LANE_HIST_DARK = 4
_LANE_STRIDE = 1 << 24

MAX_EXPECTED_CLICKS_PER_GATE = 0.5


@dataclass(frozen=True)
class ExperimentScenario:
    """A chain plus source settings: the unit of simulation."""

    chain: ConversionChain
    mu_in: float
    pump_mw: float
    n_shots: int
    seed: int

    def __post_init__(self):
        if not (0 <= self.mu_in < math.inf and 0 <= self.pump_mw < math.inf):
            raise ValueError("mu_in and pump power must be nonnegative and finite")
        if not self.n_shots > 0:
            raise ValueError(f"n_shots must be positive, got {self.n_shots}")
        if not self.seed >= 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.chain.gate_period_ns <= self.chain.detector.gate_width_ns:
            raise ValueError("repetition period must exceed the gate width")

    @property
    def dead_gates(self) -> int:
        dead_ns = self.chain.detector.dead_time_us * 1e3
        return math.ceil(dead_ns / self.chain.gate_period_ns)


def _check_bins(bin_width_ns: float, window_ns: float) -> None:
    if not (math.isfinite(bin_width_ns) and bin_width_ns > 0):
        raise ValueError(f"bin_width_ns must be positive and finite, got {bin_width_ns}")
    if not (math.isfinite(window_ns) and window_ns >= bin_width_ns):
        raise ValueError(
            f"window_ns must be finite and at least one bin ({bin_width_ns} ns), "
            f"got {window_ns}"
        )


@dataclass(frozen=True)
class Histogram:
    """Start-stop histogram over the detection window."""

    bin_width_ns: float
    counts: np.ndarray
    window_ns: float

    def __post_init__(self):
        _check_bins(self.bin_width_ns, self.window_ns)
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")

    @property
    def bin_centers(self) -> np.ndarray:
        return (np.arange(self.counts.size) + 0.5) * self.bin_width_ns

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class HistogramTriple:
    signal_on: Histogram
    pump_only: Histogram
    dark_only: Histogram


@dataclass(frozen=True)
class SimulationResult:
    p_signal: float
    p_signal_err: float
    p_noise: float
    p_noise_err: float
    snr: float
    snr_err: float
    clicks_signal: np.ndarray  # CLICK_DTYPE, input on
    clicks_noise: np.ndarray  # CLICK_DTYPE, input blocked
    alive_signal: int
    alive_noise: int
    skipped_signal: int
    skipped_noise: int


def _stream(seed: int, lane: int, chunk: int) -> np.random.Generator:
    bitgen = np.random.Philox(key=seed).jumped(lane * _LANE_STRIDE + chunk)
    return np.random.Generator(bitgen)


def _collect_chunk(
    codes: np.ndarray,
    edges: np.ndarray,
    sigma_ns: float,
    window_ns: float,
    n_shots: int,
    seed: int,
    lane: int,
    ci: int,
) -> np.ndarray:
    """First event per shot of chunk ``ci``, drawn from its own substream.

    ``codes`` are the origins with a positive rate and ``edges`` the
    cumulative sums of their expected events per gate, so ``edges[-1]`` is
    the total rate λ.  The chunk's events are one Poisson(m·λ) draw spread
    uniformly over its m shots; each takes an origin with probability
    proportional to its rate."""
    start = ci * _CHUNK
    m = min(_CHUNK, n_shots - start)
    rng = _stream(seed, lane, ci)
    n = int(rng.poisson(m * edges[-1])) if edges.size else 0
    if n == 0:
        return np.empty(0, dtype=CLICK_DTYPE)
    shot = rng.integers(0, m, n)
    # the last edge is left out, so a draw that rounds up to λ still lands
    # on the last origin with a positive rate
    origin = codes[np.searchsorted(edges[:-1], rng.random(n) * edges[-1], side="right")]
    signal = origin == ORIGIN_SIGNAL
    n_signal = int(np.count_nonzero(signal))
    t = np.empty(n)
    t[signal] = window_ns / 2.0 + sigma_ns * rng.standard_normal(n_signal)
    t[~signal] = rng.uniform(0.0, window_ns, n - n_signal)
    inside = (t >= 0.0) & (t < window_ns)
    shot, t, origin = shot[inside], t[inside], origin[inside]
    order = np.lexsort((t, shot))
    _, first = np.unique(shot[order], return_index=True)
    first = order[first]
    rec = np.empty(first.size, dtype=CLICK_DTYPE)
    rec["shot"] = shot[first] + start
    rec["time_ns"] = t[first]
    rec["origin"] = origin[first]
    return rec


def _collect_clicks(
    chain: ConversionChain,
    mu_in: float,
    pump_mw: float,
    n_shots: int,
    seed: int,
    lane: int,
    window_ns: float,
) -> np.ndarray:
    """First detected event per shot, before dead-time bookkeeping.

    The window spans [0, window_ns) with the pulse centered at its middle.
    """
    # expected events per gate by origin; the index of each is its code
    means = np.array(chain.event_means(mu_in, pump_mw, window_ns))
    mean = means.sum()
    if mean > MAX_EXPECTED_CLICKS_PER_GATE:
        raise ValueError(
            f"expected {mean:.3f} clicks per gate exceeds the model validity "
            f"bound of {MAX_EXPECTED_CLICKS_PER_GATE}"
        )
    codes = np.flatnonzero(means > 0).astype(np.int8)
    edges = np.cumsum(means[codes])
    n_chunks = (n_shots + _CHUNK - 1) // _CHUNK
    return np.concatenate([
        _collect_chunk(codes, edges, chain.pulse.sigma_ns, window_ns, n_shots, seed, lane, ci)
        for ci in range(n_chunks)
    ])


def _apply_dead_time(
    clicks: np.ndarray, n_shots: int, dead_gates: int
) -> tuple[np.ndarray, int]:
    """Drop clicks in gates suppressed by the detector dead time.

    Returns the accepted clicks and the number of skipped gates (gates in
    a dead window are excluded from the denominator entirely).

    Click i, if accepted, blanks the gates up to its shot + dead_gates, so
    the next accepted click is ``jump[i]``, the first one past that, or the
    sentinel ``n``.  The accepted clicks are the chain 0, jump[0],
    jump[jump[0]], ...  Pointer doubling finds it in log2(chain length)
    rounds: while ``kept`` holds the first 2^k links and ``jump`` spans
    2^k links, ``jump[kept]`` are the next 2^k, and ``jump[jump]`` spans
    2^(k+1).  ``jump`` is nondecreasing, so the chain is complete once
    ``jump[0]`` is the sentinel."""
    n = clicks.size
    if dead_gates == 0 or n == 0:
        return clicks, 0
    # int32 where shot + dead_gates fits, and the search in blocks, so the
    # temporaries stay small beside the records
    itype = np.int32 if n_shots + dead_gates <= np.iinfo(np.int32).max else np.int64
    shots = clicks["shot"].astype(itype)
    jump = np.empty(n + 1, dtype=itype)
    for lo in range(0, n, _CHUNK):
        block = shots[lo:lo + _CHUNK]
        jump[lo:lo + block.size] = np.searchsorted(shots, block + dead_gates, side="right")
    jump[n] = n
    del shots  # before the doubling rounds, which need only ``jump``
    kept = np.zeros(1, dtype=itype)
    while jump[0] < n:
        kept = np.concatenate((kept, jump[kept]))
        # fancy indexing casts int32 indices in buffered pieces, where
        # np.take would first copy them all to intp
        jump = jump[jump]
    accepted = clicks[kept[kept < n]]
    # skipped is the sum of min(s + dead_gates, n_shots - 1) - s over the
    # accepted clicks; they lie more than dead_gates apart, so only the
    # last one's dead window can be cut short by the end of the run
    last = int(accepted["shot"][-1])
    skipped = dead_gates * (accepted.size - 1) + min(last + dead_gates, n_shots - 1) - last
    return accepted, skipped


def _run_lane(
    scenario: ExperimentScenario, lane: int, mu_in: float, pump_mw: float, window_ns: float
) -> tuple[np.ndarray, int]:
    """Accepted clicks and skipped gates of one lane of the scenario."""
    clicks = _collect_clicks(
        scenario.chain, mu_in, pump_mw, scenario.n_shots, scenario.seed, lane, window_ns
    )
    return _apply_dead_time(clicks, scenario.n_shots, scenario.dead_gates)


def _binomial_err(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n) if n > 0 else math.nan


def simulate(scenario: ExperimentScenario) -> SimulationResult:
    """Estimate per-gate click probabilities with the input on (p_S) and
    blocked (p_N), plus the unsubtracted SNR, all with binomial errors.

    The detection window is the configured gate, centered on the pulse.
    """
    window = scenario.chain.detector.gate_width_ns
    pump = scenario.pump_mw
    clicks_s, skip_s = _run_lane(scenario, _LANE_SIGNAL, scenario.mu_in, pump, window)
    clicks_n, skip_n = _run_lane(scenario, _LANE_NOISE, 0.0, pump, window)
    alive_s = scenario.n_shots - skip_s
    alive_n = scenario.n_shots - skip_n
    p_s = clicks_s.size / alive_s
    p_n = clicks_n.size / alive_n
    err_s = _binomial_err(p_s, alive_s)
    err_n = _binomial_err(p_n, alive_n)
    if p_n > 0:
        snr_est = (p_s - p_n) / p_n
        snr_err = math.hypot(err_s / p_n, p_s * err_n / p_n**2)
    else:
        snr_est = math.nan
        snr_err = math.nan
    return SimulationResult(
        p_signal=p_s,
        p_signal_err=err_s,
        p_noise=p_n,
        p_noise_err=err_n,
        snr=snr_est,
        snr_err=snr_err,
        clicks_signal=clicks_s,
        clicks_noise=clicks_n,
        alive_signal=alive_s,
        alive_noise=alive_n,
        skipped_signal=skip_s,
        skipped_noise=skip_n,
    )


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
    _check_bins(bin_width_ns, window_ns)
    period = scenario.chain.gate_period_ns
    if not window_ns < period:
        raise ValueError(
            f"window_ns ({window_ns} ns) must be shorter than the repetition period ({period} ns)"
        )
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
    if not gate_width_ns >= 0:
        raise ValueError(f"gate width must be nonnegative, got {gate_width_ns}")
    if gate_width_ns > h.window_ns:
        raise ValueError(
            f"gate ({gate_width_ns} ns) exceeds the window ({h.window_ns} ns)"
        )
    center = h.window_ns / 2.0
    centers = h.bin_centers
    mask = (centers >= center - gate_width_ns / 2.0) & (
        centers < center + gate_width_ns / 2.0
    )
    return float(h.counts[mask].sum())
