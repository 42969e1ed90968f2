"""Independent oracles for cross-checking the library implementations.

Everything here is deliberately written with a different method than the
library: numerical quadrature instead of error functions, complex
amplitude enumeration instead of closed-form intensities, and a fixed-
length brute-force sum with log-space Poisson weights instead of an
adaptively truncated, rescaled series.
"""

from __future__ import annotations

import cmath
import math


def beta_quadrature(fwhm_ns: float, gate_ns: float, n_steps: int = 200001) -> float:
    """Fraction of a normalized Gaussian inside a centered gate, by
    Simpson integration of the density itself."""
    sigma = fwhm_ns / (2.0 * math.sqrt(2.0 * math.log(2.0)))

    def density(t: float) -> float:
        return math.exp(-(t**2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))

    a, b = -gate_ns / 2.0, gate_ns / 2.0
    h = (b - a) / (n_steps - 1)
    total = density(a) + density(b)
    for i in range(1, n_steps - 1):
        total += density(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


def interferometer_slots(
    phi: float,
    gamma: float,
    mu: float,
    weights: tuple[float, float] = (0.5, 0.5),
    splitter: float = 0.5,
    max_visibility: float = 1.0,
) -> tuple[float, float, float]:
    """Slot intensities from explicit path amplitudes, summed over both
    output ports and scaled so the monitored cross port carries the
    +cos(phi - gamma) fringe at twice its bare intensity.

    Field amplitudes: early bin sqrt(w_e), late bin sqrt(w_l) e^{i phi}.
    At the cross port the short path transmits at the first coupler and
    reflects at the second (amplitude i sqrt(t1 (1-t2))), the long path
    reflects then transmits (amplitude i sqrt((1-t1) t2) e^{i gamma}).
    Residual interferometer imperfection multiplies the interference
    cross-term by max_visibility.
    """
    t1 = t2 = splitter
    we, wl = weights
    a_early = math.sqrt(we)
    a_late = math.sqrt(wl) * cmath.exp(1j * phi)
    long_phase = cmath.exp(1j * gamma)

    # cross port (monitored); the common factor i drops out of intensities
    short_amp = math.sqrt(t1 * (1.0 - t2))
    long_amp = math.sqrt((1.0 - t1) * t2)

    early_slot = abs(a_early * short_amp) ** 2
    late_slot = abs(a_late * long_amp * long_phase) ** 2
    c1 = a_early * long_amp * long_phase
    c2 = a_late * short_amp
    # |c1 + c2|^2 with the cross-term scaled by the intrinsic visibility
    central = (
        abs(c1) ** 2
        + abs(c2) ** 2
        + 2.0 * max_visibility * (c1.conjugate() * c2).real
    )
    scale = 2.0 * mu
    return scale * early_slot, scale * central, scale * late_slot


def classical_bound_bruteforce(mu: float, eta: float, n_max: int = 200) -> float:
    """Measure-and-prepare fidelity bound by direct summation to n_max."""
    num = 0.0
    den = 0.0
    for n in range(1, n_max + 1):
        pmf = math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))
        w = pmf * (1.0 - (1.0 - eta) ** n)
        num += w * (n + 1) / (n + 2)
        den += w
    return num / den
