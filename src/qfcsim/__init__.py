"""Simulation and analysis toolkit for single-photon-level frequency
conversion of weak coherent pulses to the telecom band.

Modules: ``optics`` (conversion physics and loss cascades), ``noise``
(pump-induced noise and gated detection), ``chain`` (the assembled
experiment), ``montecarlo`` (shot-level simulation), ``fitting``
(least-squares estimation), ``timebin`` (interferometer statistics and
fidelity bounds), ``config`` / ``cli`` (scenario files and orchestration).

The names of ``fitting``, ``montecarlo`` and ``timebin`` are loaded on
first use, so ``import qfcsim`` imports no numpy, and each command of the
``qfcsim`` CLI loads only the submodules it uses.
"""

import importlib

from .chain import ConversionChain, ExperimentScenario, reference_chain
from .config import (
    REFERENCE_CONFIG,
    ConfigError,
    config_hash,
    load_config,
    parse_config,
    serialize,
    with_overrides,
)
from .noise import (
    DegenerateDenominatorError,
    DetectorConfig,
    ExtrapolationWarning,
    FilterStage,
    NoiseModel,
    RateBreakdown,
    beta_factor,
    detection_probabilities,
    mu1,
    projected_noise_floor,
    snr,
)
from .optics import (
    EfficiencyCascade,
    ElementTransmissions,
    GaussianPulse,
    LossBudget,
    WaveguideParams,
    conversion_fraction,
    conversion_model,
    dfg_output_wavelength,
    external_efficiency,
    optimal_pump_power,
    replace,
)

__version__ = "0.1.0"

# name -> the submodule that defines it, imported by the first access
_LAZY = {
    **dict.fromkeys(["Dataset", "FitConvergenceError", "FitResult", "extract_mu1",
                     "fit_conversion", "fit_linear"], "fitting"),
    **dict.fromkeys(["Histogram", "HistogramTriple", "SimulationResult", "gate_integrate",
                     "simulate", "start_stop_histogram"], "montecarlo"),
    **dict.fromkeys(["Interferometer", "QuantumRegimeRow", "SlotCounts", "TimeBinQubit",
                     "classical_fidelity_bound", "fidelity_from_visibility", "fringe_scan",
                     "quantum_regime_report", "slot_statistics", "visibility_model"], "timebin"),
}


def __getattr__(name: str):
    # Not cached in the module globals: the submodule's binding is read on
    # every access, so a wrapper installed on it and later removed is seen
    # only while it is installed.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
