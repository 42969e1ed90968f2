"""Full experiment description: source, waveguide, filter, detector, noise.

``ConversionChain`` ties the static optics to the noise and detection
models.  Its ``event_means`` states the rate model once: the analytic
rates and mu_1 (``noise``) and the Monte Carlo both read their expected
signal, pump-noise and dark events from it.  ``reference_chain`` builds
the chain with the published apparatus values, which live only in the
shipped scenario file ``data/reference.cfg``.  ``ExperimentScenario`` adds
the source and run settings; it is the one place they are checked, and
``config.parse_config`` returns one.
"""

from __future__ import annotations

import math
import numbers

from .noise import DetectorConfig, FilterStage, NoiseModel, beta_factor
from .optics import (
    EfficiencyCascade,
    GaussianPulse,
    LossBudget,
    Record,
    WaveguideParams,
    check_range,
    conversion_model,
    dfg_output_wavelength,
    optimal_pump_power,
    replace,
)

__all__ = ["ConversionChain", "ExperimentScenario", "MAX_SHOTS", "reference_chain"]

# Most shots in one run: each Monte Carlo lane owns this many shots of the
# Philox stream (Salmon et al., SC 2011); past it two lanes share numbers.
MAX_SHOTS = 1 << 40


class ConversionChain(Record):
    input_wavelength_nm: float
    pump_wavelength_nm: float
    pulse: GaussianPulse
    waveguide: WaveguideParams
    budget: LossBudget
    filter_stage: FilterStage
    detector: DetectorConfig
    noise: NoiseModel
    repetition_rate_mhz: float
    # derived: output_wavelength_nm, beta (the signal fraction inside the gate),
    # _cascade, _event_factors
    _bounds = {"repetition_rate_mhz": ("repetition rate", 0.0, math.inf, "()")}

    def __post_init__(self):
        if not self.gate_period_ns > self.detector.gate_width_ns:
            raise ValueError(
                f"the source_repetition_rate period ({self.gate_period_ns:g} ns) must "
                f"exceed the detector_gate_width ({self.detector.gate_width_ns:g} ns)"
            )
        # validates the down-conversion ordering; 1/lambda_in can overflow, and the
        # difference of the inverses underflow
        out = dfg_output_wavelength(self.input_wavelength_nm, self.pump_wavelength_nm)
        check_range("output wavelength (source_input_wavelength, pump_wavelength)", out,
                    bounds="()")
        object.__setattr__(self, "output_wavelength_nm", out)
        coupling = self.budget.signal.coupling
        check_range("losses_input_coupling", coupling, bounds="()")
        eta_int_max = self.waveguide.max_external_efficiency / coupling
        if eta_int_max > 1.0:
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
        # event_means' factors, once per chain
        wg, det, alpha = self.waveguide, self.detector, self.noise.alpha_unit
        object.__setattr__(self, "_event_factors", (
            cascade.eta_dev_max * det.efficiency, alpha * self.filter_stage.bandwidth_nm,
            det.dark_rate_per_ns, wg.normalized_efficiency, wg.length_cm))

    @property
    def gate_period_ns(self) -> float:
        return 1e3 / self.repetition_rate_mhz

    def cascade(self) -> EfficiencyCascade:
        """The nested efficiencies, built once with the chain."""
        return self._cascade

    @property
    def eta_tot_max(self) -> float:
        return self._cascade.eta_tot_max

    @property
    def optimal_pump_mw(self) -> float:
        return optimal_pump_power(self.waveguide) * 1e3

    def event_means(
        self, mu_in: float, pump_mw: float, window_ns: float
    ) -> tuple[float, float, float]:
        """Expected detected (signal, pump-noise, dark) events per pulse in
        a ``window_ns`` window.  The signal is the whole pulse, before the
        gate cut to ``beta``; pump noise (alpha * P_p) is flat in time and
        in the filter passband, and dark counts are flat in time.  Both
        ``mu_in`` and ``pump_mw`` must be finite and nonnegative."""
        check_range("mu_in", mu_in)
        check_range("pump power", pump_mw)
        eta, alpha, dark_rate, eta_n, length_cm = self._event_factors
        # optics.conversion_fraction(pump_mw * 1e-3, self.waveguide), the pump checked above
        fraction = conversion_model(pump_mw * 1e-3, 1.0, eta_n, length_cm)
        signal = mu_in * (eta * fraction)
        pump_noise = alpha * pump_mw * window_ns
        dark = dark_rate * window_ns
        return signal, pump_noise, dark

    def with_filter_bandwidth(self, bandwidth_nm: float) -> "ConversionChain":
        return replace(
            self, filter_stage=replace(self.filter_stage, bandwidth_nm=bandwidth_nm)
        )

    def with_gate_width(self, gate_width_ns: float) -> "ConversionChain":
        return replace(
            self, detector=replace(self.detector, gate_width_ns=gate_width_ns)
        )


class ExperimentScenario(Record):
    """A chain plus source and run settings: the unit of simulation."""

    chain: ConversionChain
    mu_in: float
    pump_mw: float
    n_shots: int
    seed: int
    _bounds = {"mu_in": ("mu_in (source_mean_photon_number)", 0.0, math.inf, "[)"),
               "pump_mw": ("pump power (pump_power)", 0.0, math.inf, "[)")}

    def __post_init__(self):
        for name, key in (("n_shots", "montecarlo_shots"), ("seed", "montecarlo_seed")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} ({key}) must be an integer, got {value!r}")
        # after the type checks: a string would fail the comparison with another TypeError
        check_range("n_shots (montecarlo_shots)", self.n_shots, 0, MAX_SHOTS, "(]")
        check_range("seed (montecarlo_seed)", self.seed, 0, 1 << 128)

    @property
    def dead_gates(self) -> int:
        dead_ns = self.chain.detector.dead_time_us * 1e3
        try:
            return math.ceil(dead_ns / self.chain.gate_period_ns)
        except OverflowError:  # the ceiling of inf
            raise OverflowError(
                f"the detector dead time ({self.chain.detector.dead_time_us:g} us) spans "
                "more gate periods than a float holds"
            ) from None


def reference_chain() -> ConversionChain:
    """Chain with the published apparatus values of ``data/reference.cfg``."""
    from .config import REFERENCE_CONFIG, parse_config  # config imports this module

    return parse_config(REFERENCE_CONFIG).chain
