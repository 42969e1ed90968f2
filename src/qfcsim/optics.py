"""Static optical description of the frequency converter.

Wavelength bookkeeping for difference frequency generation (DFG), the
per-element loss budget, the nested efficiency cascade and the
pump-power-dependent conversion efficiency of the nonlinear waveguide.

Conventions: wavelengths in nm, pump powers in W (watts) unless a name
says otherwise, waveguide length in cm, all transmissions and
efficiencies as dimensionless fractions in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "GaussianPulse",
    "WaveguideParams",
    "ElementTransmissions",
    "LossBudget",
    "EfficiencyCascade",
    "dfg_output_wavelength",
    "external_efficiency",
    "conversion_fraction",
    "optimal_pump_power",
    "cascade",
    "combined_linewidth",
    "pulse_bandwidth",
    "bandwidth_nm_to_ghz",
    "bandwidth_ghz_to_nm",
]

_SPEED_OF_LIGHT_M_S = 2.99792458e8

# FWHM = 2 sqrt(2 ln 2) sigma for a Gaussian
_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class GaussianPulse:
    """Gaussian temporal intensity profile, FWHM and center in ns."""

    fwhm_ns: float
    center_ns: float = 0.0

    def __post_init__(self):
        if self.fwhm_ns <= 0:
            raise ValueError(f"pulse FWHM must be positive, got {self.fwhm_ns}")

    @property
    def sigma_ns(self) -> float:
        return self.fwhm_ns * _FWHM_TO_SIGMA


@dataclass(frozen=True)
class WaveguideParams:
    """Nonlinear waveguide: length (cm), normalized conversion efficiency
    (fraction per W per cm^2) and the saturation cap on the external
    conversion efficiency.

    The cap is an independent fitted parameter, not derived from the loss
    budget; the distinct quantity eta_n * L^2 (total normalized conversion,
    fraction per W) is available as ``total_normalized_efficiency``.
    """

    length_cm: float
    normalized_efficiency: float  # per (W * cm^2)
    max_external_efficiency: float

    def __post_init__(self):
        if self.length_cm <= 0:
            raise ValueError(f"waveguide length must be positive, got {self.length_cm}")
        if self.normalized_efficiency <= 0:
            raise ValueError(
                f"normalized efficiency must be positive, got {self.normalized_efficiency}"
            )
        _check_fraction("max_external_efficiency", self.max_external_efficiency)

    @property
    def total_normalized_efficiency(self) -> float:
        """eta_n * L^2, fraction per W."""
        return self.normalized_efficiency * self.length_cm**2


@dataclass(frozen=True)
class ElementTransmissions:
    """Per-element transmissions along the converter at one wavelength."""

    input_lens: float
    coupling: float
    propagation: float
    output_lens: float

    def __post_init__(self):
        for name in ("input_lens", "coupling", "propagation", "output_lens"):
            _check_fraction(name, getattr(self, name))

    @property
    def total(self) -> float:
        return self.input_lens * self.coupling * self.propagation * self.output_lens


@dataclass(frozen=True)
class LossBudget:
    """Loss budget recorded separately at the input and pump wavelengths."""

    signal: ElementTransmissions
    pump: ElementTransmissions


@dataclass(frozen=True)
class EfficiencyCascade:
    """Nested efficiencies: internal -> external -> device -> total.

    Inputs are the individual factors (coupling, internal conversion,
    filter, detection); the cumulative values are derived products.
    """

    eta_coupling: float
    eta_int_max: float
    eta_filter: float
    eta_detection: float
    eta_ext_max: float = field(init=False)
    eta_dev_max: float = field(init=False)
    eta_tot_max: float = field(init=False)

    def __post_init__(self):
        for name in ("eta_coupling", "eta_int_max", "eta_filter", "eta_detection"):
            _check_fraction(name, getattr(self, name))
        object.__setattr__(self, "eta_ext_max", self.eta_coupling * self.eta_int_max)
        object.__setattr__(self, "eta_dev_max", self.eta_ext_max * self.eta_filter)
        object.__setattr__(self, "eta_tot_max", self.eta_dev_max * self.eta_detection)


def dfg_output_wavelength(lambda_in_nm: float, lambda_pump_nm: float) -> float:
    """Output wavelength of difference frequency generation.

    Energy conservation: 1/lambda_out = 1/lambda_in - 1/lambda_pump.
    The pump must be the longer wavelength (down-conversion).
    """
    if lambda_in_nm <= 0 or lambda_pump_nm <= 0:
        raise ValueError("wavelengths must be positive")
    if lambda_pump_nm <= lambda_in_nm:
        raise ValueError(
            f"pump wavelength ({lambda_pump_nm} nm) must exceed the input "
            f"wavelength ({lambda_in_nm} nm) for down-conversion"
        )
    return 1.0 / (1.0 / lambda_in_nm - 1.0 / lambda_pump_nm)


def external_efficiency(pump_w: float, wg: WaveguideParams) -> float:
    """External conversion efficiency at pump power ``pump_w`` (W).

    eta_ext(P) = eta_ext_max * sin^2(L * sqrt(P * eta_n)); the undepleted
    classical-pump result for a quasi-phase-matched waveguide.
    """
    return wg.max_external_efficiency * conversion_fraction(pump_w, wg)


def conversion_fraction(pump_w: float, wg: WaveguideParams) -> float:
    """external_efficiency normalized to 1 at its peak: sin^2(L sqrt(P eta_n))."""
    if pump_w < 0:
        raise ValueError(f"pump power must be nonnegative, got {pump_w}")
    arg = wg.length_cm * math.sqrt(pump_w * wg.normalized_efficiency)
    return math.sin(arg) ** 2


def optimal_pump_power(wg: WaveguideParams) -> float:
    """Smallest pump power (W) at which the conversion efficiency peaks.

    L * sqrt(P * eta_n) = pi/2  =>  P = (pi/2)^2 / (L^2 * eta_n).
    """
    return (math.pi / 2.0) ** 2 / (wg.length_cm**2 * wg.normalized_efficiency)


def cascade(
    budget: LossBudget,
    eta_int_max: float,
    eta_filter: float,
    eta_detection: float,
) -> EfficiencyCascade:
    """Build the efficiency cascade from a loss budget and the remaining
    individual factors. The waveguide coupling at the input wavelength is
    taken from the budget."""
    return EfficiencyCascade(
        eta_coupling=budget.signal.coupling,
        eta_int_max=eta_int_max,
        eta_filter=eta_filter,
        eta_detection=eta_detection,
    )


def combined_linewidth(lorentzian_fwhm_mhz: float, gaussian_fwhm_mhz: float) -> float:
    """FWHM of the convolution of a Lorentzian and a Gaussian line (Voigt
    profile), via the standard Olivero-Longbothum approximation."""
    if lorentzian_fwhm_mhz < 0 or gaussian_fwhm_mhz < 0:
        raise ValueError("linewidths must be nonnegative")
    fl = lorentzian_fwhm_mhz
    fg = gaussian_fwhm_mhz
    return 0.5346 * fl + math.sqrt(0.2166 * fl**2 + fg**2)


def pulse_bandwidth(pulse: GaussianPulse) -> float:
    """Transform-limited bandwidth (MHz) of a Gaussian pulse: 0.44 / FWHM."""
    return 0.44 / pulse.fwhm_ns * 1e3


def bandwidth_nm_to_ghz(bandwidth_nm: float, wavelength_nm: float) -> float:
    """Convert a spectral width from nm to GHz around ``wavelength_nm``."""
    return (
        _SPEED_OF_LIGHT_M_S * bandwidth_nm * 1e-9 / (wavelength_nm * 1e-9) ** 2 / 1e9
    )


def bandwidth_ghz_to_nm(bandwidth_ghz: float, wavelength_nm: float) -> float:
    """Convert a spectral width from GHz to nm around ``wavelength_nm``."""
    return bandwidth_ghz * 1e9 * (wavelength_nm * 1e-9) ** 2 / _SPEED_OF_LIGHT_M_S * 1e9
