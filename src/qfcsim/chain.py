"""Full experiment description: source, waveguide, filter, detector, noise.

``ConversionChain`` ties the static optics to the noise and detection
models.  Its ``event_means`` states the rate model once: the analytic
rates and mu_1 (``noise``) and the Monte Carlo both read their expected
signal, pump-noise and dark events from it.  ``reference_chain`` builds
the chain with the published apparatus values, which live only in the
shipped scenario file ``data/reference.cfg``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .noise import DetectorConfig, FilterStage, NoiseModel, beta_factor
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
    beta: float = field(init=False)  # detected signal fraction inside the gate
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
        object.__setattr__(self, "beta", beta_factor(self.pulse, self.detector))
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

    def cascade(self) -> EfficiencyCascade:
        """The nested efficiencies, built once with the chain."""
        return self._cascade

    @property
    def eta_tot_max(self) -> float:
        return self._cascade.eta_tot_max

    def conversion_fraction(self, pump_mw: float) -> float:
        """sin^2 conversion factor, normalized to 1 at the optimum."""
        return conversion_fraction(pump_mw * 1e-3, self.waveguide)

    @property
    def optimal_pump_mw(self) -> float:
        return optimal_pump_power(self.waveguide) * 1e3

    def event_means(
        self, mu_in: float, pump_mw: float, window_ns: float
    ) -> tuple[float, float, float]:
        """Expected detected (signal, pump-noise, dark) events per pulse in
        a ``window_ns`` window.  The signal is the whole pulse, before the
        gate cut to ``beta``; pump noise (alpha * P_p) is flat in time and
        in the filter passband, and dark counts are flat in time."""
        if not pump_mw >= 0:
            raise ValueError(f"pump power must be nonnegative, got {pump_mw}")
        eta = (
            self.waveguide.max_external_efficiency
            * self.filter_stage.total_transmission
            * self.detector.efficiency
        )
        signal = mu_in * (eta * self.conversion_fraction(pump_mw))
        alpha = self.noise.alpha_unit * self.filter_stage.bandwidth_nm
        pump_noise = alpha * pump_mw * window_ns
        dark = self.detector.dark_rate_per_ns * window_ns
        return signal, pump_noise, dark

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
