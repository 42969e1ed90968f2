"""Simulation and analysis toolkit for single-photon-level frequency
conversion of weak coherent pulses to the telecom band.

Modules: ``optics`` (conversion physics and loss cascades), ``noise``
(pump-induced noise and gated detection), ``chain`` (the assembled
experiment), ``montecarlo`` (shot-level simulation), ``fitting``
(least-squares estimation), ``timebin`` (interferometer statistics and
fidelity bounds), ``config`` / ``cli`` (scenario files and orchestration).
"""

from .chain import ConversionChain, reference_chain
from .config import (
    REFERENCE_CONFIG,
    ConfigError,
    ScenarioConfig,
    config_hash,
    load_config,
    parse_config,
    serialize,
    with_overrides,
)
from .fitting import (
    Dataset,
    FitConvergenceError,
    FitResult,
    conversion_model,
    extract_mu1,
    fit_conversion,
    fit_linear,
)
from .montecarlo import (
    ExperimentScenario,
    Histogram,
    HistogramTriple,
    SimulationResult,
    gate_integrate,
    simulate,
    start_stop_histogram,
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
    noise_counts,
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
    dfg_output_wavelength,
    external_efficiency,
    optimal_pump_power,
)
from .timebin import (
    Interferometer,
    QuantumRegimeRow,
    SlotCounts,
    TimeBinQubit,
    classical_fidelity_bound,
    fidelity_from_visibility,
    fringe_scan,
    quantum_regime_report,
    slot_statistics,
    visibility_model,
)

__version__ = "0.1.0"
