"""Pump-induced noise, gated detection and the analytic figures of merit.

The noise model keeps two experimentally calibrated constants:

* ``alpha_detected`` -- detected noise counts per gate per mW of pump,
  calibrated at a reference gate width and filter bandwidth.  Internally
  this is one constant per (mW * ns * nm): the noise pedestal is flat in
  time and flat in the spectral passband, so gate width and filter
  bandwidth rescale it linearly.
* ``alpha_crystal`` -- unconditional noise photons per mW per ns referenced
  to the waveguide output, used for noise-floor projections to other
  filter bandwidths.

Both are stored as calibrated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .optics import GaussianPulse, _check_fraction, bandwidth_nm_to_ghz

if TYPE_CHECKING:  # pragma: no cover
    from .chain import ConversionChain

__all__ = [
    "NoiseModel",
    "FilterStage",
    "DetectorConfig",
    "RateBreakdown",
    "ExtrapolationWarning",
    "DegenerateDenominatorError",
    "beta_factor",
    "detection_probabilities",
    "snr",
    "mu1",
    "projected_noise_floor",
]

ALLOWED_GATE_WIDTHS_NS = (20.0, 50.0, 100.0)

# Tunable range of the grating-based filter stage, nm.
FILTER_BANDWIDTH_MIN_NM = 0.65
FILTER_BANDWIDTH_MAX_NM = 2.3


class ExtrapolationWarning(UserWarning):
    """A projection left the experimentally covered parameter range."""


class DegenerateDenominatorError(ZeroDivisionError):
    """SNR denominator is zero or negative (no noise above dark counts)."""


@dataclass(frozen=True)
class NoiseModel:
    """Linear pump-induced noise; the dark counts are the detector's.

    ``alpha_detected_per_mw`` is the detected noise slope (counts per gate
    per mW) at ``reference_gate_ns`` / ``reference_bandwidth_nm``;
    ``alpha_crystal_per_mw_ns`` is the noise floor at the waveguide output
    for the same reference bandwidth.
    """

    alpha_detected_per_mw: float
    alpha_crystal_per_mw_ns: float
    reference_bandwidth_nm: float
    reference_gate_ns: float

    def __post_init__(self):
        for name in ("alpha_detected_per_mw", "alpha_crystal_per_mw_ns"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if not (self.reference_bandwidth_nm > 0 and self.reference_gate_ns > 0):
            raise ValueError("reference bandwidth and gate width must be positive")

    @property
    def alpha_unit(self) -> float:
        """Detected noise constant per (mW * ns * nm)."""
        return self.alpha_detected_per_mw / (
            self.reference_gate_ns * self.reference_bandwidth_nm
        )


@dataclass(frozen=True)
class FilterStage:
    """Tunable grating-based spectral filter after the waveguide."""

    bandwidth_nm: float
    fiber_coupling: float
    grating: float
    bandpass_longpass: float
    total_transmission: float
    allow_extrapolation: bool = False

    def __post_init__(self):
        for name in ("fiber_coupling", "grating", "bandpass_longpass", "total_transmission"):
            _check_fraction(name, getattr(self, name))
        product = self.fiber_coupling * self.grating * self.bandpass_longpass
        if not abs(self.total_transmission - product) <= 0.01:
            raise ValueError(
                f"total_transmission {self.total_transmission} inconsistent "
                f"with element product {product:.4f}"
            )
        if not self.bandwidth_nm > 0:
            raise ValueError("filter bandwidth must be positive")
        in_range = (
            FILTER_BANDWIDTH_MIN_NM <= self.bandwidth_nm <= FILTER_BANDWIDTH_MAX_NM
        )
        if not in_range and not self.allow_extrapolation:
            raise ValueError(
                f"filter bandwidth {self.bandwidth_nm} nm outside the physical "
                f"range [{FILTER_BANDWIDTH_MIN_NM}, {FILTER_BANDWIDTH_MAX_NM}] nm "
                "(set allow_extrapolation to project anyway)"
            )


@dataclass(frozen=True)
class DetectorConfig:
    """Gated single-photon detector (non photon-number resolving)."""

    gate_width_ns: float
    efficiency: float  # detector x fiber connection, excludes the gate fraction
    dark_rate_per_ns: float
    dead_time_us: float
    allow_any_gate: bool = False

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"detector efficiency must be in [0, 1], got {self.efficiency}")
        if not self.dead_time_us >= 0:
            raise ValueError("dead time must be nonnegative")
        if not self.dark_rate_per_ns >= 0:
            raise ValueError("dark rate must be nonnegative")
        if self.gate_width_ns not in ALLOWED_GATE_WIDTHS_NS and not self.allow_any_gate:
            raise ValueError(
                f"gate width {self.gate_width_ns} ns not in the supported set "
                f"{ALLOWED_GATE_WIDTHS_NS} (set allow_any_gate to override)"
            )


@dataclass(frozen=True)
class RateBreakdown:
    """Per-gate expected counts and click probabilities.

    ``signal_total`` / ``noise_total`` are the gate-integrated means S and
    N (N includes dark counts, S includes everything); ``p_signal`` /
    ``p_noise`` the corresponding click probabilities with the input on /
    blocked.
    """

    p_signal: float
    p_noise: float
    dark: float
    signal_total: float
    noise_total: float

    def __post_init__(self):
        if not (self.p_signal >= self.p_noise >= 0.0):
            raise ValueError("expected p_signal >= p_noise >= 0")
        if not (self.signal_total >= self.noise_total >= self.dark >= 0.0):
            raise ValueError("expected S >= N >= dark >= 0")


def beta_factor(pulse: GaussianPulse, gate: DetectorConfig) -> float:
    """Fraction of the pulse energy falling inside the detection gate.

    The gate is centered on the pulse arrival time; the fraction is the
    Gaussian error integral over the window, erf(half gate / (sigma sqrt 2)).
    """
    s = pulse.sigma_ns * math.sqrt(2.0)
    half = gate.gate_width_ns / 2.0
    return math.erf(half / s)


def detection_probabilities(
    mu_in: float, pump_mw: float, chain: "ConversionChain"
) -> RateBreakdown:
    """Expected per-gate rates and click probabilities for the full chain.

    The chain's ``event_means`` over the gate, the signal cut to ``beta``:
    mu_in * eta_tot_max * fhat(P_p) and noise alpha * P_p + dark.  Click
    probabilities use Poissonian thinning, p = 1 - exp(-mean), which
    reduces to the linear estimate at the small rates of interest.
    """
    signal, pump_noise, dark = chain.event_means(mu_in, pump_mw, chain.detector.gate_width_ns)
    lam_signal = signal * chain.beta
    lam_noise = pump_noise + dark
    return RateBreakdown(
        p_signal=1.0 - math.exp(-(lam_signal + lam_noise)),
        p_noise=1.0 - math.exp(-lam_noise),
        dark=dark,
        signal_total=lam_signal + lam_noise,
        noise_total=lam_noise,
    )


def snr(rates: RateBreakdown, subtract_dark: bool = True) -> float:
    """Signal to noise ratio of a rate breakdown.

    With dark-count subtraction: (S - N) / (N - DC).  Without:
    (p_S - p_N) / p_N, the quantity limited by the detection system.
    """
    if subtract_dark:
        denom = rates.noise_total - rates.dark
        if denom <= 0:
            raise DegenerateDenominatorError(
                "no noise above dark counts; dark-subtracted SNR undefined"
            )
        return (rates.signal_total - rates.noise_total) / denom
    if rates.p_noise <= 0:
        raise DegenerateDenominatorError("zero noise probability; SNR undefined")
    return (rates.p_signal - rates.p_noise) / rates.p_noise


def mu1(chain: "ConversionChain", pump_mw: float) -> float:
    """Mean input photon number at which the dark-subtracted SNR equals 1.

    The subtracted SNR is linear in mu_in, so the crossing is closed form:
    mu_1 = (N - DC) / (eta_tot_max * fhat(P_p)), with N - DC = alpha * P_p
    taken directly, since at a tiny pump it cancels to 0 in N - DC.
    """
    if not pump_mw > 0:
        raise ValueError(f"pump power must be positive, got {pump_mw}")
    signal, noise_above_dark, _ = chain.event_means(1.0, pump_mw, chain.detector.gate_width_ns)
    signal_slope = signal * chain.beta
    if signal_slope <= 0:
        raise DegenerateDenominatorError(
            "zero signal efficiency at this pump power; mu_1 undefined"
        )
    return noise_above_dark / signal_slope


def projected_noise_floor(
    target_bandwidth_ghz: float, chain: "ConversionChain"
) -> tuple[float, float]:
    """Project the crystal noise floor to another filter bandwidth.

    Returns ``(alpha_crystal_scaled, photons_per_pulse)``: the linearly
    rescaled unconditional noise floor (photons per mW per ns at the
    waveguide output) and the noise photons per pulse it implies at the
    maximum-conversion pump power for the configured gate width.

    Projections below the measured 80 GHz range are allowed but flagged
    with an ``ExtrapolationWarning``.
    """
    if not 0 < target_bandwidth_ghz < math.inf:
        raise ValueError(
            f"target bandwidth must be positive and finite, got {target_bandwidth_ghz}"
        )
    if target_bandwidth_ghz < 80.0:
        warnings.warn(
            f"projecting the noise floor to {target_bandwidth_ghz} GHz, below "
            "the measured 80 GHz range; linear scaling is an extrapolation",
            ExtrapolationWarning,
            stacklevel=2,
        )
    reference_ghz = bandwidth_nm_to_ghz(
        chain.noise.reference_bandwidth_nm, chain.output_wavelength_nm
    )
    alpha_scaled = (
        chain.noise.alpha_crystal_per_mw_ns * target_bandwidth_ghz / reference_ghz
    )
    pump_mw = chain.optimal_pump_mw
    photons = alpha_scaled * pump_mw * chain.detector.gate_width_ns
    return alpha_scaled, photons

