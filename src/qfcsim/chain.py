"""Full experiment description: source, waveguide, filter, detector, noise.

``ConversionChain`` ties the static optics to the noise and detection
models and exposes the derived per-gate means that both the analytic
module and the Monte Carlo simulator consume.  ``reference_chain`` builds
the chain with the published apparatus values, which live only in the
shipped scenario file ``data/reference.cfg``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .noise import DetectorConfig, FilterStage, NoiseModel, beta_factor, noise_counts
from .optics import (
    EfficiencyCascade,
    GaussianPulse,
    LossBudget,
    WaveguideParams,
    conversion_fraction,
    dfg_output_wavelength,
    optimal_pump_power,
)

__all__ = ["ConversionChain", "reference_chain"]


@dataclass(frozen=True)
class ConversionChain:
    input_wavelength_nm: float
    pump_wavelength_nm: float
    pulse: GaussianPulse
    waveguide: WaveguideParams
    budget: LossBudget
    filter_stage: FilterStage
    detector: DetectorConfig
    noise: NoiseModel
    repetition_rate_mhz: float
    _cascade: EfficiencyCascade = field(init=False, repr=False)

    def __post_init__(self):
        if not self.repetition_rate_mhz > 0:
            raise ValueError("repetition rate must be positive")
        # validates the down-conversion ordering
        dfg_output_wavelength(self.input_wavelength_nm, self.pump_wavelength_nm)
        coupling = self.budget.signal.coupling
        if not coupling > 0:
            raise ValueError(f"losses_input_coupling must be positive, got {coupling}")
        eta_int_max = self.waveguide.max_external_efficiency / coupling
        if not eta_int_max <= 1.0:
            raise ValueError(
                "waveguide_max_external_efficiency exceeds losses_input_coupling "
                f"({self.waveguide.max_external_efficiency} > {coupling})"
            )
        cascade = EfficiencyCascade(
            coupling, eta_int_max, self.filter_stage.total_transmission,
            self.detector.efficiency * self.beta,
        )
        object.__setattr__(self, "_cascade", cascade)

    @property
    def output_wavelength_nm(self) -> float:
        return dfg_output_wavelength(self.input_wavelength_nm, self.pump_wavelength_nm)

    @property
    def gate_period_ns(self) -> float:
        return 1e3 / self.repetition_rate_mhz

    @property
    def beta(self) -> float:
        """Detected signal fraction for the configured pulse and gate."""
        return beta_factor(self.pulse, self.detector)

    def cascade(self) -> EfficiencyCascade:
        """The nested efficiencies, built once with the chain."""
        return self._cascade

    @property
    def eta_tot_max(self) -> float:
        return self._cascade.eta_tot_max

    @property
    def eta_device_no_gate(self) -> float:
        """Waveguide-to-click efficiency at peak conversion, excluding the
        gate fraction (used by the Monte Carlo thinning; the gate cut
        supplies beta there)."""
        return (
            self.waveguide.max_external_efficiency
            * self.filter_stage.total_transmission
            * self.detector.efficiency
        )

    def conversion_fraction(self, pump_mw: float) -> float:
        """sin^2 conversion factor, normalized to 1 at the optimum."""
        return conversion_fraction(pump_mw * 1e-3, self.waveguide)

    @property
    def optimal_pump_mw(self) -> float:
        return optimal_pump_power(self.waveguide) * 1e3

    def signal_mean_per_gate(self, mu_in: float, pump_mw: float) -> float:
        """Mean detected signal photons per gate."""
        return mu_in * self.eta_tot_max * self.conversion_fraction(pump_mw)

    def noise_mean_per_gate(self, pump_mw: float) -> float:
        """Mean noise counts per gate (pump-induced plus dark)."""
        return noise_counts(
            pump_mw, self.noise, self.detector, self.filter_stage.bandwidth_nm
        )

    def with_filter_bandwidth(self, bandwidth_nm: float) -> "ConversionChain":
        return replace(
            self, filter_stage=replace(self.filter_stage, bandwidth_nm=bandwidth_nm)
        )

    def with_gate_width(self, gate_width_ns: float) -> "ConversionChain":
        return replace(
            self, detector=replace(self.detector, gate_width_ns=gate_width_ns)
        )


def reference_chain() -> ConversionChain:
    """Chain with the published apparatus values of ``data/reference.cfg``."""
    from .config import REFERENCE_CONFIG, parse_config  # config imports this module

    return parse_config(REFERENCE_CONFIG).chain
