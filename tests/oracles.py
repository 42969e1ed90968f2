"""Independent oracles for cross-checking the library implementations.

Everything here is deliberately written with a different method than the
library: numerical quadrature instead of error functions, complex
amplitude enumeration instead of closed-form intensities, sums over
photon number (a fixed-length one with log-space Poisson weights, and an
adaptively truncated, rescaled one) instead of the closed-form fidelity
bound, 50-digit decimal arithmetic instead of the expm1 form of the SNR,
dense per-shot Monte Carlo draws instead of a superposed, thinned
event stream, a sequential dead-time scan instead of pointer jumping,
dead time as a renewal process instead of a count of skipped gates,
numpy arrays with their own Jacobian and LAPACK solves instead of the
math-only fitting core and its closed-form 2x2 inverses, and the event
means from a chain's primitive fields instead of the factors it caches.
"""

from __future__ import annotations

import cmath
import math
from decimal import Decimal, localcontext

import numpy as np

from qfcsim.montecarlo import (
    _CHUNK,
    _LANE_STRIDE,
    CLICK_DTYPE,
    ORIGIN_DARK,
    ORIGIN_PUMP,
    ORIGIN_SIGNAL,
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


def snr_unsubtracted_decimal(signal: float, pump_noise: float, dark: float) -> float:
    """(p_S - p_N) / p_N of the in-gate means, with p = 1 - exp(-mean) and
    the difference formed as written, in 50-digit decimal arithmetic, which
    has digits to spare for the cancellation."""
    with localcontext() as ctx:
        ctx.prec = 50
        noise = Decimal(pump_noise) + Decimal(dark)
        p_signal = 1 - (-(Decimal(signal) + noise)).exp()
        p_noise = 1 - (-noise).exp()
        return float((p_signal - p_noise) / p_noise)


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


def classical_bound_series(mu_in: float, eta: float) -> float:
    """Best measure-and-prepare fidelity for a Poissonian input of mean
    mu_in detected with efficiency eta, summed over photon number.

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


def _sin2_and_jacobian(p, eta, eta_n, length_cm):
    """eta sin^2(u), u = L sqrt(p eta_n), and its Jacobian in (eta, eta_n),
    with numpy and d(sin^2 u)/du written as 2 sin u cos u."""
    root_p = np.sqrt(p)
    u = length_cm * root_p * math.sqrt(eta_n)
    s, c = np.sin(u), np.cos(u)
    jac = np.column_stack([s * s, eta * s * c * length_cm * root_p / math.sqrt(eta_n)])
    return eta * s * s, jac


def levenberg_lapack(x, y, w, eta, eta_n, length_cm):
    """``fitting._levenberg`` with numpy arrays and a LAPACK solve
    (``np.linalg.solve``) for every damped Gauss-Newton step: the same
    start, damping schedule and stopping rule, and the same return, in
    the same plain-float form."""
    x, y, w = (np.asarray(v, dtype=float) for v in (x, y, w))
    p = np.array([eta, eta_n])
    lam = 1e-3
    converged = True
    model, jac = _sin2_and_jacobian(x, p[0], p[1], length_cm)
    r = y - model
    cost = float(np.sum(w * r**2))
    for _ in range(200):
        a = jac.T @ (w[:, None] * jac)
        g = jac.T @ (w * r)
        step = None
        for _ in range(60):
            try:
                cand_step = np.linalg.solve(a + lam * np.diag(np.diag(a)), g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = p + cand_step
            if np.any(cand <= 0):
                lam *= 10.0
                continue
            cand_model, cand_jac = _sin2_and_jacobian(x, cand[0], cand[1], length_cm)
            cand_r = y - cand_model
            cand_cost = float(np.sum(w * cand_r**2))
            if cand_cost <= cost:
                step, p, r, jac, cost = cand_step, cand, cand_r, cand_jac, cand_cost
                lam = max(lam / 10.0, 1e-14)
                break
            lam *= 10.0
        if step is None:
            break
        if np.all(np.abs(step) <= 1e-12 * np.abs(p)):
            break
    else:
        converged = False
    return tuple(p.tolist()), (jac.T @ (w[:, None] * jac)).tolist(), cost, converged


def event_means_from_fields(chain, mu_in: float, pump_mw: float, window_ns: float):
    """``ConversionChain.event_means`` written out from the chain's own
    fields on every call, with nothing taken from what the chain derived
    when it was built.  The operations and their order are the library's,
    so the two agree to the bit: the external efficiency is the cascade's
    coupling * (cap / coupling), not the cap itself."""
    wg, filt, det, noise = chain.waveguide, chain.filter_stage, chain.detector, chain.noise
    coupling = chain.budget.signal.coupling
    eta = coupling * (wg.max_external_efficiency / coupling) * filt.total_transmission
    fraction = math.sin(wg.length_cm * math.sqrt(pump_mw * 1e-3 * wg.normalized_efficiency)) ** 2
    alpha_unit = noise.alpha_detected_per_mw / (noise.reference_gate_ns * noise.reference_bandwidth_nm)
    signal = mu_in * (eta * det.efficiency * fraction)
    pump_noise = alpha_unit * filt.bandwidth_nm * pump_mw * window_ns
    return signal, pump_noise, det.dark_rate_per_ns * window_ns


def jumped_stream(seed: int, lane: int, chunk: int) -> np.random.Generator:
    """Substream of one chunk of one lane, by numpy's own jump."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(lane * _LANE_STRIDE + chunk))


def first_per_shot(shot, t):
    """Index of each shot's first event, in order of shot: the earliest,
    and of equal times the first in the arrays, by a stable lexsort on
    (shot, time) and ``np.unique``."""
    order = np.lexsort((t, shot))
    _, first = np.unique(shot[order], return_index=True)
    return order[first]


def dense_collect_clicks(chain, mu_in, pump_mw, n_shots, seed, lane, window_ns, chunks):
    """First event per shot in the shots of ``chunks`` from per-shot draws:
    a Poisson photon number thinned binomially, and a Poisson count of
    pump-noise and of dark events in every shot, whether or not anything
    arrives."""
    center = window_ns / 2.0
    sigma = chain.pulse.sigma_ns
    # the rates from the primitive fields, not from the chain's event_means
    wg, filt, det, noise = chain.waveguide, chain.filter_stage, chain.detector, chain.noise
    eta = wg.max_external_efficiency * filt.total_transmission * det.efficiency
    p_surv = eta * math.sin(wg.length_cm * math.sqrt(pump_mw * 1e-3 * wg.normalized_efficiency)) ** 2
    alpha_unit = noise.alpha_detected_per_mw / (
        noise.reference_gate_ns * noise.reference_bandwidth_nm
    )
    pump_rate = alpha_unit * filt.bandwidth_nm * pump_mw
    dark_rate = det.dark_rate_per_ns

    out = [np.empty(0, dtype=CLICK_DTYPE)]
    for ci in chunks:
        start = ci * _CHUNK
        m = min(_CHUNK, n_shots - start)
        rng = jumped_stream(seed, lane, ci)
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
        first = first_per_shot(s, t)
        rec = np.empty(first.size, dtype=CLICK_DTYPE)
        rec["shot"] = s[first] + start
        rec["time_ns"] = t[first]
        rec["origin"] = o[first]
        out.append(rec)
    return np.concatenate(out)


def chunked_collect_clicks(chain, mu_in, pump_mw, n_shots, seed, lane, window_ns):
    """First event per shot of a whole lane from the thinned event stream,
    one chunk at a time: per chunk, the same draws from the same substream
    as the library, an origin by sorted search and the first event per shot
    by ``first_per_shot``."""
    means = np.array(chain.event_means(mu_in, pump_mw, window_ns))
    codes = np.flatnonzero(means > 0).astype(np.int8)
    edges = np.cumsum(means[codes])
    sigma_ns = chain.pulse.sigma_ns
    out = [np.empty(0, dtype=CLICK_DTYPE)]
    for ci in range((n_shots + _CHUNK - 1) // _CHUNK):
        start = ci * _CHUNK
        m = min(_CHUNK, n_shots - start)
        rng = jumped_stream(seed, lane, ci)
        n = int(rng.poisson(m * edges[-1])) if edges.size else 0
        if n == 0:
            continue
        shot = rng.integers(0, m, n)
        origin = codes[np.searchsorted(edges[:-1], rng.random(n) * edges[-1], side="right")]
        signal = origin == ORIGIN_SIGNAL
        n_signal = int(np.count_nonzero(signal))
        t = np.empty(n)
        t[signal] = window_ns / 2.0 + sigma_ns * rng.standard_normal(n_signal)
        t[~signal] = rng.uniform(0.0, window_ns, n - n_signal)
        inside = (t >= 0.0) & (t < window_ns)
        shot, t, origin = shot[inside], t[inside], origin[inside]
        first = first_per_shot(shot, t)
        rec = np.empty(first.size, dtype=CLICK_DTYPE)
        rec["shot"] = shot[first] + start
        rec["time_ns"] = t[first]
        rec["origin"] = origin[first]
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


def click_probability(chain, mu_in: float, pump_mw: float, window_ns: float) -> float:
    """A gate's click probability, 1 - exp(-m), with m the expected events
    in a window centered on the pulse: its whole-pulse signal mean times
    the Gaussian share erf(w / (2 sqrt(2) sigma)) inside the window, plus
    the pump-noise and dark means, all from the chain's primitive fields."""
    signal, pump_noise, dark = event_means_from_fields(chain, mu_in, pump_mw, window_ns)
    inside = math.erf(window_ns / (2.0 * math.sqrt(2.0) * chain.pulse.sigma_ns))
    return -math.expm1(-(signal * inside + pump_noise + dark))


def skipped_gates_renewal(p: float, dead_gates: int, n_gates: int) -> tuple[float, float]:
    """Mean and variance of the gates skipped over ``n_gates`` gates that
    click with probability ``p`` while alive, with dead time as a renewal
    process (Cox, *Renewal Theory*, 1962; Mueller, Nucl. Instrum. Meth. 112,
    47 (1973)).  A cycle is Geom(p) alive gates, up to and with a click,
    then D = ``dead_gates`` dead ones, so it lasts 1/p + D gates with
    variance (1 - p)/p^2, and n gates hold about n p / (1 + p D) cycles
    with variance n p (1 - p) / (1 + p D)^3; each cycle skips D gates.  The
    end of the run, which can cut the last dead window short, moves the
    count by at most D."""
    d = dead_gates
    cycles = n_gates * p / (1.0 + p * d)
    return d * cycles, d * d * n_gates * p * (1.0 - p) / (1.0 + p * d) ** 3
