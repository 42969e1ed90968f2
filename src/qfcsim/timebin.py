"""Time-bin qubits, interferometer slot statistics and fidelity bounds.

A pair of coherent pulses with relative phase phi enters an unbalanced
interferometer whose delay matches the bin separation; photons exit in
three time slots.  The outer slots are phase-insensitive; the central
slot interferes the early-long and late-short paths with fringe phase
phi - gamma.

Convention: slot counts are normalized to the total lossless throughput
of the interferometer (both output ports), while the fringe is the one
seen at the monitored cross port, scaled accordingly.  With this
normalization the gamma-averaged slot fractions are (1/4, 1/2, 1/4) for
an equal-amplitude qubit and 50/50 splitters, and the central slot reads
(mu/2) * (1 + V_max cos(phi - gamma)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .fitting import Dataset

__all__ = [
    "TimeBinQubit",
    "Interferometer",
    "SlotCounts",
    "QuantumRegimeRow",
    "slot_statistics",
    "visibility_model",
    "fringe_scan",
    "fidelity_from_visibility",
    "classical_fidelity_bound",
    "quantum_regime_report",
]


@dataclass(frozen=True)
class TimeBinQubit:
    """|e> + e^{i phi} |l> with optional unequal amplitudes."""

    phase: float
    separation_ns: float
    early_weight: float = 0.5
    late_weight: float = 0.5

    def __post_init__(self):
        if not self.separation_ns > 0:
            raise ValueError("bin separation must be positive")
        if not (self.early_weight >= 0 and self.late_weight >= 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.early_weight + self.late_weight - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class Interferometer:
    """Unbalanced fiber interferometer built from two beam splitters."""

    delay_ns: float
    phase: float = 0.0
    max_visibility: float = 1.0
    splitter_ratio: float = 0.5

    def __post_init__(self):
        if not self.delay_ns > 0:
            raise ValueError("delay must be positive")
        if not 0.0 <= self.max_visibility <= 1.0:
            raise ValueError("max visibility must be in [0, 1]")
        if not 0.0 < self.splitter_ratio < 1.0:
            raise ValueError("splitter ratio must be in (0, 1)")


@dataclass(frozen=True)
class SlotCounts:
    early: float
    central: float
    late: float

    def __post_init__(self):
        for name in ("early", "central", "late"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} slot count must be nonnegative")


def slot_statistics(
    qubit: TimeBinQubit,
    ifm: Interferometer,
    mu: float,
    noise_per_slot: float = 0.0,
) -> SlotCounts:
    """Expected counts in the three exit slots for mean photon number mu.

    The interferometer delay must match the qubit bin separation.  The
    fringe contrast of the central slot is capped by the intrinsic
    interferometer visibility.
    """
    if not mu >= 0:
        raise ValueError("mean photon number must be nonnegative")
    if not noise_per_slot >= 0:
        raise ValueError("noise per slot must be nonnegative")
    if abs(ifm.delay_ns - qubit.separation_ns) > 1e-9 * qubit.separation_ns:
        raise ValueError(
            f"interferometer delay ({ifm.delay_ns} ns) does not match the "
            f"qubit bin separation ({qubit.separation_ns} ns)"
        )
    t1 = t2 = ifm.splitter_ratio
    we, wl = qubit.early_weight, qubit.late_weight
    early = 2.0 * mu * we * t1 * (1.0 - t2)
    late = 2.0 * mu * wl * (1.0 - t1) * t2
    cross = 2.0 * math.sqrt(we * wl * t1 * t2 * (1.0 - t1) * (1.0 - t2))
    central = 2.0 * mu * (
        we * (1.0 - t1) * t2
        + wl * t1 * (1.0 - t2)
        + cross * ifm.max_visibility * math.cos(qubit.phase - ifm.phase)
    )
    return SlotCounts(
        early=early + noise_per_slot,
        central=central + noise_per_slot,
        late=late + noise_per_slot,
    )


def visibility_model(mu_in: float, mu_1: float, v0: float) -> float:
    """Fringe visibility limited by the signal to noise ratio:
    V = V0 * mu_in / (mu_in + mu_1 / 2)."""
    if not 0 <= mu_in < math.inf:
        raise ValueError(f"mu_in must be nonnegative and finite, got {mu_in}")
    if not mu_1 > 0:
        raise ValueError("mu_1 must be positive")
    return v0 * mu_in / (mu_in + mu_1 / 2.0)


def fringe_scan(
    qubit: TimeBinQubit,
    ifm: Interferometer,
    mu: float,
    noise_per_slot: float,
    gammas: Sequence[float],
    shots_per_point: int | None = None,
    seed: int | None = None,
) -> tuple[Dataset, float]:
    """Central-slot counts versus the interferometer phase, plus the
    visibility (max-min)/(max+min) extracted from a sinusoid fit.

    The grid must cover at least one full period with at least 5 points
    per period.  With ``shots_per_point`` the expected counts are Poisson
    sampled (seeded) to emulate a counting measurement.
    """
    g = np.asarray(list(gammas), dtype=float)
    if g.size < 2:
        raise ValueError("need at least 2 phase points")
    span = float(np.max(g) - np.min(g))
    # an evenly spaced open grid (endpoint omitted) still covers a period
    effective = span * g.size / (g.size - 1)
    if effective < 2.0 * math.pi - 1e-9:
        raise ValueError("phase grid must cover at least one full period")
    if g.size / (effective / (2.0 * math.pi)) < 5.0:
        raise ValueError("under-sampled phase grid: need >= 5 points per period")

    counts = np.empty_like(g)
    for i, gamma in enumerate(g):
        ifm_i = replace(ifm, phase=float(gamma))
        counts[i] = slot_statistics(qubit, ifm_i, mu, noise_per_slot).central
    if shots_per_point is not None:
        rng = np.random.default_rng(seed)
        counts = rng.poisson(counts * shots_per_point).astype(float) / shots_per_point

    # linear-in-parameters sinusoid: a + b cos(gamma) + c sin(gamma)
    design = np.column_stack([np.ones_like(g), np.cos(g), np.sin(g)])
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    offset = coef[0]
    amplitude = math.hypot(coef[1], coef[2])
    if offset <= 0:
        raise ValueError("degenerate fringe: nonpositive mean count level")
    visibility = amplitude / offset
    data = Dataset(x=g, y=counts, xlabel="gamma_rad", ylabel="central_counts")
    return data, visibility


def fidelity_from_visibility(visibility: float) -> float:
    """Conditional qubit fidelity from fringe visibility: (1 + V) / 2."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    return (1.0 + visibility) / 2.0


def classical_fidelity_bound(mu_in: float, eta: float) -> float:
    """Best measure-and-prepare fidelity for a Poissonian input of mean
    mu_in detected with efficiency eta.

    Per photon number n the optimal classical fidelity is (n+1)/(n+2);
    the weights are Poisson probabilities conditioned on at least one
    photon being detected, w(n) proportional to P(n; mu) (1-(1-eta)^n).
    The series is truncated once the Poisson tail bound falls below
    1e-12 of the accumulated weight.
    """
    if not (math.isfinite(mu_in) and mu_in > 0):
        raise ValueError(f"mu_in must be positive and finite, got {mu_in}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    # exp(-mu_in) underflows to 0 beyond mu_in ~ 745.  The factor is common
    # to numerator and weight, so start from a clipped value and rescale
    # pmf, numerator and weight together whenever pmf grows too large; at
    # mu_in <= 700 neither step changes a bit of the result.
    pmf = math.exp(-min(mu_in, 700.0))  # n = 0
    numerator = 0.0
    weight = 0.0
    miss = 1.0 - eta
    n = 0
    # the tail test stops the series within about mu_in + 10 sqrt(mu_in) terms
    n_max = int(mu_in + 20.0 * math.sqrt(mu_in)) + 100000
    while True:
        n += 1
        pmf *= mu_in / n
        if pmf > 1e300:
            pmf *= 1e-300
            numerator *= 1e-300
            weight *= 1e-300
        w = pmf * (1.0 - miss**n)
        weight += w
        numerator += w * (n + 1) / (n + 2)
        if n > mu_in:
            ratio = mu_in / (n + 1)
            tail = pmf * ratio / (1.0 - ratio)
            if tail <= 1e-12 * weight:
                break
        if n > n_max:  # pragma: no cover - defensive
            raise RuntimeError("classical bound series did not truncate")
    return numerator / weight


@dataclass(frozen=True)
class QuantumRegimeRow:
    mu_in: float
    visibility: float
    fidelity: float
    bound_unit: float
    bound_ext: float
    bound_dev: float
    exceeds_ext: bool


def quantum_regime_report(
    visibility_vs_mu: Dataset, eta_ext: float, eta_dev: float
) -> list[QuantumRegimeRow]:
    """Compare measured fidelities against the classical measure-and-
    prepare bounds at unit efficiency, the external conversion efficiency
    and the device efficiency.

    The bounds increase as the efficiency decreases (conditioning on a
    detection shifts weight to larger photon numbers), so the device-
    efficiency bound is the hardest to beat.
    """
    rows = []
    for mu, v in zip(visibility_vs_mu.x, visibility_vs_mu.y):
        f = fidelity_from_visibility(float(v))
        b1 = classical_fidelity_bound(float(mu), 1.0)
        b_ext = classical_fidelity_bound(float(mu), eta_ext)
        b_dev = classical_fidelity_bound(float(mu), eta_dev)
        rows.append(
            QuantumRegimeRow(
                mu_in=float(mu),
                visibility=float(v),
                fidelity=f,
                bound_unit=b1,
                bound_ext=b_ext,
                bound_dev=b_dev,
                exceeds_ext=f > b_ext,
            )
        )
    return rows
