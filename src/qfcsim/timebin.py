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
import numbers
from typing import TYPE_CHECKING, Sequence

from .optics import Record, check_range, replace

if TYPE_CHECKING:  # pragma: no cover
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


class TimeBinQubit(Record):
    """|e> + e^{i phi} |l> with optional unequal amplitudes."""

    phase: float
    separation_ns: float
    early_weight: float = 0.5
    late_weight: float = 0.5
    _bounds = {"phase": ("phase", -math.inf, math.inf, "()"),
               "separation_ns": ("separation_ns", 0.0, math.inf, "()"),
               "early_weight": ("early_weight", 0.0, 1.0, "[]"),
               "late_weight": ("late_weight", 0.0, 1.0, "[]")}

    def __post_init__(self):
        if abs(self.early_weight + self.late_weight - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")


class Interferometer(Record):
    """Unbalanced fiber interferometer built from two beam splitters."""

    delay_ns: float
    phase: float = 0.0
    max_visibility: float = 1.0
    splitter_ratio: float = 0.5
    _bounds = {"delay_ns": ("delay_ns", 0.0, math.inf, "()"),
               "phase": ("phase", -math.inf, math.inf, "()"),
               "max_visibility": ("max visibility", 0.0, 1.0, "[]"),
               "splitter_ratio": ("splitter ratio", 0.0, 1.0, "()")}


class SlotCounts(Record):
    early: float
    central: float
    late: float
    _bounds = {n: (f"{n} slot count", 0.0, math.inf, "[)") for n in ("early", "central", "late")}


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
    check_range("mean photon number", mu)
    check_range("noise per slot", noise_per_slot)
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
    return SlotCounts(early + noise_per_slot, central + noise_per_slot, late + noise_per_slot)


def visibility_model(mu_in: float, mu_1: float, v0: float) -> float:
    """Fringe visibility limited by the signal to noise ratio:
    V = V0 * mu_in / (mu_in + mu_1 / 2)."""
    check_range("mu_in", mu_in)
    check_range("mu_1", mu_1, bounds="()")
    check_range("v0", v0, 0.0, 1.0, "[]")
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
    sampled (seeded) to emulate a counting measurement; it must be a
    positive integer.
    """
    # bool is an Integral, but True is no shot count
    if shots_per_point is not None and (
        isinstance(shots_per_point, bool)
        or not (isinstance(shots_per_point, numbers.Integral) and shots_per_point > 0)
    ):
        raise ValueError(f"shots_per_point must be a positive integer, got {shots_per_point!r}")
    import numpy as np

    from .fitting import Dataset

    g = np.asarray(list(gammas), dtype=float)
    # the grid checks below compare, so a NaN point would pass them all
    if not np.all(np.isfinite(g)):
        raise ValueError(f"gammas must be finite, got {g[~np.isfinite(g)][0]}")
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
    check_range("visibility", visibility, 0.0, 1.0, "[]")
    return (1.0 + visibility) / 2.0


# (-1)^j / (j + 2)!: g(x) = sum_j c_j x^j.  25 terms reach 1e-17 of g and of
# its divided differences for arguments below 2.
_G_SERIES = tuple((-1) ** j / math.factorial(j + 2) for j in range(25))


def classical_fidelity_bound(mu_in: float, eta: float) -> float:
    """Best measure-and-prepare fidelity for a Poissonian input of mean
    mu_in detected with efficiency eta (Specht et al., Nature 473, 190
    (2011); Gündoğan et al., PRL 108, 190504 (2012)).

    Per photon number n the optimal classical fidelity is (n+1)/(n+2);
    the weights are Poisson probabilities conditioned on at least one
    photon being detected, w(n) = P(n; mu) (1 - q^n) with q = 1 - eta.
    With a = mu eta, b = mu q and g(x) = sum_n P(n; x)/(n+2) =
    (x - 1 + e^-x)/x^2 the sums close:

        F = 1 - S/W,   S = g(mu) - e^-a g(b),   W = 1 - e^-a.

    Taken as written, S loses digits as a -> 0 (relative error about
    eps/a).  So S/W = g(b) + (a/W) g[mu, b] is evaluated through the
    divided difference g[mu, b] = (g(mu) - g(b))/a, which is never formed
    by subtracting nearby values:

    - b >= 1: g = 1/x - 1/x^2 + e^-x/x^2 term by term, which gives
      S/W = g(b) - e^-b/mu^2 + (a/W) ((1 - e^-b)(1/b + 1/mu) - 1)/(mu b);
    - b < 1, mu >= 2: then a > 1, so the difference is taken directly, with
      g(b) from its Taylor series g(x) = sum_j (-x)^j/(j+2)!;
    - b < 1, mu < 2: from the Taylor series, with
      (mu^j - b^j)/(mu - b) = mu^(j-1) + mu^(j-2) b + ... + b^(j-1).

    Each branch costs O(1) in mu_in.
    """
    check_range("mu_in", mu_in, bounds="()")
    check_range("eta", eta, 0.0, 1.0, "(]")
    a = mu_in * eta
    b = mu_in * (1.0 - eta)
    w = -math.expm1(-a)
    # a/W -> 1 as a -> 0 (a = mu eta is 0 only below the smallest double);
    # unlike eta/W it keeps its digits where a is subnormal
    a_over_w = a / w if w else 1.0
    if b >= 1.0:
        e = math.exp(-b)
        s_over_w = (
            (b - 1.0 + e) / b / b
            - e / mu_in / mu_in
            + a_over_w * ((1.0 - e) * (1.0 / b + 1.0 / mu_in) - 1.0) / mu_in / b
        )
    elif mu_in >= 2.0:
        g_b = 0.0
        for c in reversed(_G_SERIES):
            g_b = g_b * b + c
        g_mu = (mu_in - 1.0 + math.exp(-mu_in)) / mu_in / mu_in
        s_over_w = g_b + (g_mu - g_b) / w
    else:
        g_b = divided = 0.0
        power_difference = 0.0  # (mu^j - b^j) / (mu - b)
        b_power = 1.0
        for c in _G_SERIES:
            g_b += c * b_power
            divided += c * power_difference
            power_difference = mu_in * power_difference + b_power
            b_power *= b
        s_over_w = g_b + a_over_w * divided
    return 1.0 - s_over_w


class QuantumRegimeRow(Record):
    """One (mu, visibility) pair and its classical bounds; the fidelity
    (1 + V) / 2 and whether it beats the external-efficiency bound
    (``exceeds_ext``) are derived."""

    mu_in: float
    visibility: float
    bound_unit: float
    bound_ext: float
    bound_dev: float

    def __post_init__(self):
        object.__setattr__(self, "fidelity", fidelity_from_visibility(self.visibility))
        object.__setattr__(self, "exceeds_ext", self.fidelity > self.bound_ext)


def quantum_regime_report(
    mus: Sequence[float], visibilities: Sequence[float], eta_ext: float, eta_dev: float
) -> list[QuantumRegimeRow]:
    """Compare measured fidelities against the classical measure-and-
    prepare bounds at unit efficiency, the external conversion efficiency
    and the device efficiency, one row per (mu, visibility) pair in
    ascending mu.

    The bounds increase as the efficiency decreases (conditioning on a
    detection shifts weight to larger photon numbers), so the device-
    efficiency bound is the hardest to beat.
    """
    mus = [float(mu) for mu in mus]
    visibilities = [float(v) for v in visibilities]
    if len(mus) != len(visibilities):
        raise ValueError(
            f"mus and visibilities must have equal length, got {len(mus)} and {len(visibilities)}"
        )
    etas = (1.0, eta_ext, eta_dev)
    return [QuantumRegimeRow(mu, v, *[classical_fidelity_bound(mu, eta) for eta in etas])
            for mu, v in sorted(zip(mus, visibilities), key=lambda pair: pair[0])]
