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
import sys
import warnings
from typing import TYPE_CHECKING

from .optics import GaussianPulse, Record, bandwidth_nm_to_ghz, check_range

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

# Below this a signal mean is subnormal and has lost digits.
_SMALLEST_NORMAL = sys.float_info.min


class ExtrapolationWarning(UserWarning):
    """A projection left the experimentally covered parameter range."""


class DegenerateDenominatorError(ZeroDivisionError):
    """SNR denominator is zero or negative (no noise above dark counts)."""


class NoiseModel(Record):
    """Linear pump-induced noise; the dark counts are the detector's.

    ``alpha_detected_per_mw`` is the detected noise slope (counts per gate
    per mW) at ``reference_gate_ns`` / ``reference_bandwidth_nm``;
    ``alpha_crystal_per_mw_ns`` is the noise floor at the waveguide output
    for the same reference bandwidth.  ``alpha_unit``, derived here, is the
    detected noise constant per (mW * ns * nm).
    """

    alpha_detected_per_mw: float
    alpha_crystal_per_mw_ns: float
    reference_bandwidth_nm: float
    reference_gate_ns: float
    _bounds = {"alpha_detected_per_mw": ("alpha_detected_per_mw", 0.0, math.inf, "[)"),
               "alpha_crystal_per_mw_ns": ("alpha_crystal_per_mw_ns", 0.0, math.inf, "[)"),
               "reference_bandwidth_nm": ("reference bandwidth", 0.0, math.inf, "()"),
               "reference_gate_ns": ("reference gate width", 0.0, math.inf, "()")}

    def __post_init__(self):
        product = self.reference_gate_ns * self.reference_bandwidth_nm
        unit = self.alpha_detected_per_mw / product if product else math.inf
        if unit == math.inf:  # the product underflowed, or the quotient overflowed
            raise ValueError(
                "alpha_detected_per_mw / (reference_gate_ns * reference_bandwidth_nm) must "
                f"be finite, got {self.alpha_detected_per_mw:g} / ({self.reference_gate_ns:g}"
                f" * {self.reference_bandwidth_nm:g}); set noise_reference_gate and "
                "noise_reference_bandwidth to a larger product"
            )
        object.__setattr__(self, "alpha_unit", unit)


class FilterStage(Record):
    """Tunable grating-based spectral filter after the waveguide."""

    bandwidth_nm: float
    fiber_coupling: float
    grating: float
    bandpass_longpass: float
    total_transmission: float
    allow_extrapolation: bool = False
    _bounds = {"bandwidth_nm": ("filter bandwidth", 0.0, math.inf, "()"),
               **{n: (n, 0.0, 1.0, "[]") for n in (
                   "fiber_coupling", "grating", "bandpass_longpass", "total_transmission")}}

    def __post_init__(self):
        product = self.fiber_coupling * self.grating * self.bandpass_longpass
        if not abs(self.total_transmission - product) <= 0.01:
            raise ValueError(
                f"total_transmission {self.total_transmission} inconsistent "
                f"with element product {product:.4f}"
            )
        in_range = FILTER_BANDWIDTH_MIN_NM <= self.bandwidth_nm <= FILTER_BANDWIDTH_MAX_NM
        if not in_range and not self.allow_extrapolation:
            raise ValueError(
                f"filter bandwidth {self.bandwidth_nm} nm outside the physical "
                f"range [{FILTER_BANDWIDTH_MIN_NM}, {FILTER_BANDWIDTH_MAX_NM}] nm "
                "(set allow_extrapolation to project anyway)"
            )


class DetectorConfig(Record):
    """Gated single-photon detector (non photon-number resolving)."""

    gate_width_ns: float
    efficiency: float  # detector x fiber connection, excludes the gate fraction
    dark_rate_per_ns: float
    dead_time_us: float
    allow_any_gate: bool = False
    _bounds = {"gate_width_ns": ("gate width", 0.0, math.inf, "()"),
               "efficiency": ("detector efficiency", 0.0, 1.0, "[]"),
               "dark_rate_per_ns": ("dark rate", 0.0, math.inf, "[)"),
               "dead_time_us": ("dead time", 0.0, math.inf, "[)")}

    def __post_init__(self):
        if self.gate_width_ns not in ALLOWED_GATE_WIDTHS_NS and not self.allow_any_gate:
            raise ValueError(
                f"gate width {self.gate_width_ns} ns not in the supported set "
                f"{ALLOWED_GATE_WIDTHS_NS} (set allow_any_gate to override)"
            )


class RateBreakdown(Record):
    """The in-gate means of one chain and the click probabilities they give.

    ``signal``, ``pump_noise`` and ``dark`` are the chain's ``event_means``
    over the gate, the signal already cut to ``beta``; ``p_signal`` /
    ``p_noise`` are the click probabilities with the input on / blocked,
    by Poissonian thinning, p = 1 - exp(-mean), written as -expm1(-mean)
    so that it keeps its digits at the small rates of interest.
    """

    signal: float
    pump_noise: float
    dark: float
    _bounds = {"signal": ("signal mean", 0.0, math.inf, "[)"),
               "pump_noise": ("pump-noise mean", 0.0, math.inf, "[)"),
               "dark": ("dark mean", 0.0, math.inf, "[)")}

    @property
    def p_signal(self) -> float:
        return -math.expm1(-(self.signal + (self.pump_noise + self.dark)))

    @property
    def p_noise(self) -> float:
        return -math.expm1(-(self.pump_noise + self.dark))

    @property
    def p_net(self) -> float:
        """p_S - p_N, written as exp(-noise) (1 - exp(-signal)) so that it
        does not cancel at a small signal."""
        return math.exp(-(self.pump_noise + self.dark)) * -math.expm1(-self.signal)


def beta_factor(pulse: GaussianPulse, gate: DetectorConfig) -> float:
    """Fraction of the pulse energy falling inside the detection gate.

    The gate is centered on the pulse arrival time; the fraction is the
    Gaussian error integral over the window, erf(half gate / (sigma sqrt 2)).
    """
    return _window_fraction(pulse.sigma_ns, gate.gate_width_ns)


def _window_fraction(sigma_ns: float, window_ns: float) -> float:
    """``beta_factor`` of a pulse of ``sigma_ns`` and a centered window, which
    the Monte Carlo's in-window signal draws read too."""
    s = sigma_ns * math.sqrt(2.0)
    half = window_ns / 2.0
    return math.erf(half / s)


def detection_probabilities(
    mu_in: float, pump_mw: float, chain: "ConversionChain"
) -> RateBreakdown:
    """Expected per-gate rates, and so click probabilities, for the full chain.

    The chain's ``event_means`` over the gate, the signal cut to ``beta``:
    mu_in * eta_tot_max * fhat(P_p) and noise alpha * P_p + dark.  A
    signal mean of exactly 0 is valid (no input, or the pump off); a
    subnormal one has lost the digits of every rate formed from it and is
    rejected.  So is a positive mu_in that a positive total efficiency
    scales below the smallest normal float, even where the pump makes the
    signal exactly 0.
    """
    signal, pump_noise, dark = chain.event_means(mu_in, pump_mw, chain.detector.gate_width_ns)
    signal *= chain.beta
    if signal < _SMALLEST_NORMAL:
        full = mu_in * chain.eta_tot_max
        if signal > 0 or (full < _SMALLEST_NORMAL and mu_in > 0 and chain.eta_tot_max > 0):
            raise ValueError(
                f"source_mean_photon_number = {mu_in:g} at pump power {pump_mw:g} mW gives "
                f"a signal mean of {signal:.3g} per gate ({full:.3g} at full conversion), "
                "below the smallest normal float"
            )
    return RateBreakdown(signal, pump_noise, dark)


def snr(rates: RateBreakdown, subtract_dark: bool = True) -> float:
    """Signal to noise ratio of a rate breakdown.

    With dark-count subtraction: signal / pump noise, both read from the
    breakdown.  Without: (p_S - p_N) / p_N, the quantity limited by the
    detection system, with p_S - p_N read from ``RateBreakdown.p_net``.
    """
    if subtract_dark:
        if not rates.pump_noise > 0:
            raise DegenerateDenominatorError(
                "no noise above dark counts; dark-subtracted SNR undefined: pump_power, "
                "noise_alpha_detected and filter_bandwidth set the pump noise per gate"
            )
        return rates.signal / rates.pump_noise
    p_noise = rates.p_noise
    if p_noise <= 0:
        raise DegenerateDenominatorError(
            "zero noise probability; SNR undefined: pump_power, noise_alpha_detected, "
            "filter_bandwidth and detector_dark_rate set the noise per gate"
        )
    return rates.p_net / p_noise


def mu1(chain: "ConversionChain", pump_mw: float) -> float:
    """Mean input photon number at which the dark-subtracted SNR equals 1.

    The subtracted SNR is linear in mu_in, so the crossing is closed form:
    mu_1 = pump noise / signal of the breakdown at mu_in = 1.
    """
    check_range("pump power (pump_power)", pump_mw, bounds="()")
    rates = detection_probabilities(1.0, pump_mw, chain)
    if rates.signal <= 0:
        raise DegenerateDenominatorError(
            f"zero signal efficiency at pump power {pump_mw:g} mW (eta_tot = "
            f"{chain.eta_tot_max:g}); mu_1 undefined: pump_power, waveguide_length and "
            "waveguide_normalized_efficiency set the sin^2 factor, and "
            "waveguide_max_external_efficiency, filter_total_transmission and "
            "detector_efficiency set eta_tot"
        )
    return rates.pump_noise / rates.signal


def projected_noise_floor(
    target_bandwidth_ghz: float, chain: "ConversionChain"
) -> tuple[float, float]:
    """Project the crystal noise floor to another filter bandwidth.

    Returns ``(alpha_crystal_scaled, photons_per_pulse)``: the linearly
    rescaled unconditional noise floor (photons per mW per ns at the
    waveguide output) and the noise photons per pulse it implies at the
    maximum-conversion pump power for the configured gate width.  A
    projection that overflows raises ``OverflowError``.

    Projections below the measured 80 GHz range are allowed but flagged
    with an ``ExtrapolationWarning``.
    """
    check_range("target bandwidth", target_bandwidth_ghz, bounds="()")
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
    if not math.isfinite(photons):  # so is an overflowed alpha_scaled: pump and gate are positive
        raise OverflowError(f"the noise floor projected to {target_bandwidth_ghz:g} GHz overflows")
    return alpha_scaled, photons

