"""Shot-level stochastic simulation of the conversion experiment.

Per shot: a Poisson number of input photons is thinned through the
efficiency chain (times drawn from the pulse shape), pump-induced noise
and dark counts arrive as homogeneous Poisson processes over the
detection window, the earliest event in the window registers as the
click, and gates falling in the dead time after a click are skipped and
excluded from the probability denominators.

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
        if not (self.mu_in >= 0 and self.pump_mw >= 0):
            raise ValueError("mu_in and pump power must be nonnegative")
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
    center = window_ns / 2.0
    sigma = chain.pulse.sigma_ns
    p_surv = chain.eta_device_no_gate * chain.conversion_fraction(pump_mw)
    pump_rate = chain.noise.noise_rate_per_ns(pump_mw, chain.filter_stage.bandwidth_nm)
    dark_rate = chain.detector.dark_rate_per_ns
    mean = mu_in * p_surv + (pump_rate + dark_rate) * window_ns
    if mean > MAX_EXPECTED_CLICKS_PER_GATE:
        raise ValueError(
            f"expected {mean:.3f} clicks per gate exceeds the model validity "
            f"bound of {MAX_EXPECTED_CLICKS_PER_GATE}"
        )

    out = []
    n_chunks = (n_shots + _CHUNK - 1) // _CHUNK
    for ci in range(n_chunks):
        start = ci * _CHUNK
        m = min(_CHUNK, n_shots - start)
        rng = _stream(seed, lane, ci)

        shots: list[np.ndarray] = []
        times: list[np.ndarray] = []
        origins: list[np.ndarray] = []
        if mu_in > 0 and p_surv > 0:
            n = rng.poisson(mu_in, m)
            k = rng.binomial(n, p_surv)
            total = int(k.sum())
            if total:
                t = center + sigma * rng.standard_normal(total)
                s = np.repeat(np.arange(m, dtype=np.int64), k)
                keep = (t >= 0.0) & (t < window_ns)
                shots.append(s[keep])
                times.append(t[keep])
                origins.append(np.full(int(keep.sum()), ORIGIN_SIGNAL))
        for rate, origin in ((pump_rate, ORIGIN_PUMP), (dark_rate, ORIGIN_DARK)):
            if rate <= 0:
                continue
            c = rng.poisson(rate * window_ns, m)
            total = int(c.sum())
            if total:
                t = rng.uniform(0.0, window_ns, total)
                shots.append(np.repeat(np.arange(m, dtype=np.int64), c))
                times.append(t)
                origins.append(np.full(total, origin))
        if not shots:
            continue
        s = np.concatenate(shots)
        t = np.concatenate(times)
        o = np.concatenate(origins)
        order = np.lexsort((t, s))
        s, t, o = s[order], t[order], o[order]
        _, first = np.unique(s, return_index=True)
        rec = np.empty(first.size, dtype=CLICK_DTYPE)
        rec["shot"] = s[first] + start
        rec["time_ns"] = t[first]
        rec["origin"] = o[first]
        out.append(rec)
    if not out:
        return np.empty(0, dtype=CLICK_DTYPE)
    return np.concatenate(out)


def _apply_dead_time(
    clicks: np.ndarray, n_shots: int, dead_gates: int
) -> tuple[np.ndarray, int]:
    """Drop clicks in gates suppressed by the detector dead time.

    Returns the accepted clicks and the number of skipped gates (gates in
    a dead window are excluded from the denominator entirely)."""
    if dead_gates == 0 or clicks.size == 0:
        return clicks, 0
    keep = np.zeros(clicks.size, dtype=bool)
    skipped = 0
    dead_until = -1
    shots = clicks["shot"]
    for i in range(clicks.size):
        s = int(shots[i])
        if s <= dead_until:
            continue
        keep[i] = True
        end = min(s + dead_gates, n_shots - 1)
        skipped += end - s
        dead_until = end
    return clicks[keep], skipped


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
