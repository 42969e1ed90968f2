"""Independent oracles for cross-checking the library implementations.

Everything here is deliberately written with a different method than the
library: numerical quadrature instead of error functions, complex
amplitude enumeration instead of closed-form intensities, a fixed-
length brute-force sum with log-space Poisson weights instead of an
adaptively truncated, rescaled series, dense per-shot Monte Carlo draws
instead of a superposed, thinned event stream, and a sequential dead-time
scan instead of pointer jumping.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from qfcsim.montecarlo import (
    _CHUNK,
    CLICK_DTYPE,
    ORIGIN_DARK,
    ORIGIN_PUMP,
    ORIGIN_SIGNAL,
    _stream,
)


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


def dense_collect_clicks(chain, mu_in, pump_mw, n_shots, seed, lane, window_ns):
    """First event per shot from per-shot draws: a Poisson photon number
    thinned binomially, and a Poisson count of pump-noise and of dark
    events in every shot, whether or not anything arrives."""
    center = window_ns / 2.0
    sigma = chain.pulse.sigma_ns
    # the rates from the primitive fields, not from the chain's event_means
    filt, det, noise = chain.filter_stage, chain.detector, chain.noise
    eta = chain.waveguide.max_external_efficiency * filt.total_transmission * det.efficiency
    p_surv = eta * chain.conversion_fraction(pump_mw)
    alpha_unit = noise.alpha_detected_per_mw / (
        noise.reference_gate_ns * noise.reference_bandwidth_nm
    )
    pump_rate = alpha_unit * filt.bandwidth_nm * pump_mw
    dark_rate = det.dark_rate_per_ns

    out = [np.empty(0, dtype=CLICK_DTYPE)]
    for ci in range((n_shots + _CHUNK - 1) // _CHUNK):
        start = ci * _CHUNK
        m = min(_CHUNK, n_shots - start)
        rng = _stream(seed, lane, ci)
        shots, times, origins = [], [], []
        if mu_in > 0 and p_surv > 0:
            k = rng.binomial(rng.poisson(mu_in, m), p_surv)
            t = center + sigma * rng.standard_normal(int(k.sum()))
            s = np.repeat(np.arange(m, dtype=np.int64), k)
            keep = (t >= 0.0) & (t < window_ns)
            shots.append(s[keep])
            times.append(t[keep])
            origins.append(np.full(int(keep.sum()), ORIGIN_SIGNAL))
        for rate, origin in ((pump_rate, ORIGIN_PUMP), (dark_rate, ORIGIN_DARK)):
            if rate > 0:
                c = rng.poisson(rate * window_ns, m)
                shots.append(np.repeat(np.arange(m, dtype=np.int64), c))
                times.append(rng.uniform(0.0, window_ns, int(c.sum())))
                origins.append(np.full(int(c.sum()), origin))
        if not shots:
            continue
        s, t, o = np.concatenate(shots), np.concatenate(times), np.concatenate(origins)
        order = np.lexsort((t, s))
        s, t, o = s[order], t[order], o[order]
        _, first = np.unique(s, return_index=True)
        rec = np.empty(first.size, dtype=CLICK_DTYPE)
        rec["shot"] = s[first] + start
        rec["time_ns"] = t[first]
        rec["origin"] = o[first]
        out.append(rec)
    return np.concatenate(out)


def dead_time_loop(clicks, n_shots, dead_gates):
    """Accepted clicks and skipped gates by one pass over the clicks: a
    click is accepted when it falls after the dead window of the last
    accepted one, which then blanks the next ``dead_gates`` gates."""
    keep = np.zeros(clicks.size, dtype=bool)
    skipped = 0
    dead_until = -1
    for i, s in enumerate(clicks["shot"].tolist()):
        if s <= dead_until:
            continue
        keep[i] = True
        end = min(s + dead_gates, n_shots - 1)
        skipped += end - s
        dead_until = end
    return clicks[keep], skipped
