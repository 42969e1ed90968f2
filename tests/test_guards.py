"""The guards reject NaN, which passes any plain ``x < 0`` test, and the
other non-finite or out-of-range inputs they name."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qfcsim import reference_chain, replace
from qfcsim.chain import MAX_SHOTS
from qfcsim.cli import _read_dataset_csv
from qfcsim.config import REFERENCE_CONFIG, parse_config, with_overrides
from qfcsim.fitting import Dataset, extract_mu1
from qfcsim.montecarlo import (
    ExperimentScenario,
    Histogram,
    SimulationResult,
    gate_integrate,
    simulate,
    start_stop_histogram,
)
from qfcsim.noise import (
    DegenerateDenominatorError,
    RateBreakdown,
    detection_probabilities,
    mu1,
    projected_noise_floor,
    snr,
)
from qfcsim.optics import conversion_fraction, dfg_output_wavelength, external_efficiency
from qfcsim.timebin import (
    Interferometer,
    SlotCounts,
    TimeBinQubit,
    fringe_scan,
    quantum_regime_report,
    slot_statistics,
    visibility_model,
)

CHAIN = reference_chain()
CONFIG = parse_config(REFERENCE_CONFIG)
SCENARIO = ExperimentScenario(chain=CHAIN, mu_in=6.1, pump_mw=120.0, n_shots=10, seed=1)
HIST = Histogram(bin_width_ns=1.0, counts=np.ones(100, dtype=int))
QUBIT = TimeBinQubit(phase=0.0, separation_ns=50.0)
IFM = Interferometer(delay_ns=50.0)
GAMMAS = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)

# (a valid instance, the field set to NaN)
CASES = [
    (CHAIN.pulse, "fwhm_ns"),
    (CHAIN.waveguide, "length_cm"),
    (CHAIN.noise, "alpha_detected_per_mw"),
    (CHAIN.detector, "dead_time_us"),
    (replace(CHAIN.filter_stage, allow_extrapolation=True), "bandwidth_nm"),
    (CHAIN, "repetition_rate_mhz"),
    (SCENARIO, "mu_in"),
    (QUBIT, "separation_ns"),
    (IFM, "delay_ns"),
    (SlotCounts(early=1.0, central=2.0, late=1.0), "early"),
    (HIST, "bin_width_ns"),
]


@pytest.mark.parametrize(
    "valid, field", CASES, ids=[f"{type(v).__name__}.{f}" for v, f in CASES]
)
def test_nan_rejected(valid, field):
    with pytest.raises(ValueError):
        replace(valid, **{field: math.nan})


def _read_csv_text(text: str):
    """``_read_dataset_csv`` of a file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "data.csv")
        path.write_text(text)
        return _read_dataset_csv(path)


# (a call with one NaN or otherwise invalid argument, the name the error
# message must give[, the error's class if not ValueError])
SCALAR_CASES = {
    "conversion_fraction": (lambda: conversion_fraction(math.nan, CHAIN.waveguide), "pump power"),
    "external_efficiency": (lambda: external_efficiency(math.nan, CHAIN.waveguide), "pump power"),
    "event_means": (lambda: CHAIN.event_means(0.0, math.nan, 20.0), "pump power"),
    "mu1": (lambda: mu1(CHAIN, math.nan), "pump power"),
    "gate_integrate": (lambda: gate_integrate(HIST, math.nan), "gate width"),
    "detection_probabilities.mu_in": (
        lambda: detection_probabilities(math.nan, 120.0, CHAIN), "mu_in"
    ),
    "detection_probabilities.pump_mw": (
        lambda: detection_probabilities(6.1, math.nan, CHAIN), "pump power"
    ),
    # infinite source means and pumps, each rejected before any arithmetic
    "conversion_fraction.inf": (lambda: conversion_fraction(math.inf, CHAIN.waveguide), "pump power"),
    "external_efficiency.inf": (lambda: external_efficiency(math.inf, CHAIN.waveguide), "pump power"),
    "event_means.mu_in_inf": (lambda: CHAIN.event_means(math.inf, 120.0, 20.0), "mu_in"),
    "event_means.pump_inf": (lambda: CHAIN.event_means(6.1, math.inf, 20.0), "pump power"),
    "detection_probabilities.mu_in_inf": (
        lambda: detection_probabilities(math.inf, 120.0, CHAIN), "mu_in"
    ),
    "detection_probabilities.pump_inf": (
        lambda: detection_probabilities(6.1, math.inf, CHAIN), "pump power"
    ),
    "mu1.inf": (lambda: mu1(CHAIN, math.inf), "pump power"),
    "simulate.mu_in_inf": (lambda: simulate(replace(SCENARIO, mu_in=math.inf)), "mu_in"),
    "simulate.pump_inf": (lambda: simulate(replace(SCENARIO, pump_mw=math.inf)), "pump power"),
    "dfg_output_wavelength": (lambda: dfg_output_wavelength(780.24, math.nan), "wavelength"),
    "projected_noise_floor": (lambda: projected_noise_floor(math.nan, CHAIN), "bandwidth"),
    "projected_noise_floor.inf": (lambda: projected_noise_floor(math.inf, CHAIN), "bandwidth"),
    "visibility_model.mu_in": (lambda: visibility_model(math.nan, 0.47, 1.0), "mu_in"),
    "visibility_model.mu_in_inf": (lambda: visibility_model(math.inf, 0.47, 1.0), "mu_in"),
    "visibility_model.mu_1": (lambda: visibility_model(6.1, math.nan, 1.0), "mu_1"),
    "visibility_model.mu_1_inf": (lambda: visibility_model(6.1, math.inf, 1.0), "mu_1"),
    "visibility_model.v0": (lambda: visibility_model(6.1, 0.47, math.nan), "v0"),
    "visibility_model.v0_above_one": (lambda: visibility_model(6.1, 0.47, 5.0), "v0"),
    "visibility_model.v0_negative": (lambda: visibility_model(6.1, 0.47, -1.0), "v0"),
    "slot_statistics.mu": (lambda: slot_statistics(QUBIT, IFM, math.nan), "mean photon number"),
    "slot_statistics.noise_per_slot": (
        lambda: slot_statistics(QUBIT, IFM, 1.0, math.nan), "noise per slot"
    ),
    "slot_statistics.mu_inf": (lambda: slot_statistics(QUBIT, IFM, math.inf), "mean photon number"),
    "slot_statistics.noise_per_slot_inf": (
        lambda: slot_statistics(QUBIT, IFM, 1.0, math.inf), "noise per slot"
    ),
    # 1e308 is finite, but its slot counts overflow
    "slot_statistics.mu_overflow": (lambda: slot_statistics(QUBIT, IFM, 1e308), "slot count"),
    "SlotCounts.early_inf": (lambda: SlotCounts(early=math.inf, central=1.0, late=1.0), "early"),
    # the phases and time scales of the qubit and the interferometer
    "TimeBinQubit.phase_nan": (lambda: replace(QUBIT, phase=math.nan), "phase"),
    "TimeBinQubit.phase_inf": (lambda: replace(QUBIT, phase=math.inf), "phase"),
    "TimeBinQubit.separation_inf": (
        lambda: replace(QUBIT, separation_ns=math.inf), "separation_ns"
    ),
    "Interferometer.phase_nan": (lambda: replace(IFM, phase=math.nan), "phase"),
    "Interferometer.phase_inf": (lambda: replace(IFM, phase=-math.inf), "phase"),
    "Interferometer.delay_inf": (lambda: replace(IFM, delay_ns=math.inf), "delay_ns"),
    # a sampled fringe scan needs a positive whole number of shots per point
    "fringe_scan.shots_zero": (
        lambda: fringe_scan(QUBIT, IFM, 1.0, 0.0, GAMMAS, shots_per_point=0), "shots_per_point"
    ),
    "fringe_scan.shots_fraction": (
        lambda: fringe_scan(QUBIT, IFM, 1.0, 0.0, GAMMAS, shots_per_point=0.5),
        "shots_per_point",
    ),
    "fringe_scan.shots_negative": (
        lambda: fringe_scan(QUBIT, IFM, 1.0, 0.0, GAMMAS, shots_per_point=-5), "shots_per_point"
    ),
    # bool is an Integral, but True is no shot count
    "fringe_scan.shots_bool": (
        lambda: fringe_scan(QUBIT, IFM, 1.0, 0.0, GAMMAS, shots_per_point=True), "shots_per_point"
    ),
    # a non-finite phase point would pass the span and density checks of the grid
    "fringe_scan.gammas_nan": (
        lambda: fringe_scan(QUBIT, IFM, 1.0, 0.0, [*GAMMAS[:-1], math.nan]), "gammas"
    ),
    "fringe_scan.gammas_inf": (
        lambda: fringe_scan(QUBIT, IFM, 1.0, 0.0, [*GAMMAS[:-1], math.inf]), "gammas"
    ),
    # counts that no histogram has; NaN passes a plain counts < 0 test
    "Histogram.counts_nan": (lambda: Histogram(1.0, np.full(100, math.nan)), "counts"),
    "Histogram.counts_inf": (lambda: Histogram(1.0, np.full(100, math.inf)), "counts"),
    "Histogram.counts_negative": (lambda: Histogram(1.0, np.full(100, -1)), "counts"),
    "Histogram.counts_2d": (lambda: Histogram(1.0, np.ones((10, 10), dtype=int)), "counts"),
    "Histogram.counts_0d": (lambda: Histogram(1.0, np.array(5)), "counts"),
    # 3 bins of 1 ns span a 3 ns window, which a 20 ns gate does not fit in
    "gate_integrate.short_counts": (
        lambda: gate_integrate(Histogram(1.0, [1, 2, 3]), 20.0), "exceeds the window"
    ),
    # bins too wide for the window they span to be a finite double
    "Histogram.bins_inf": (lambda: Histogram(1e308, [1, 1]), "window_ns"),
    "start_stop_histogram.bins_inf": (
        lambda: start_stop_histogram(SCENARIO, bin_width_ns=5e-324), "bins in the window"
    ),
    # one bin past 2**20, 1 ps bins over the reference 1 us gate period
    "Histogram.bins_over_max": (
        lambda: Histogram(1.0, np.zeros(2**20 + 1, dtype=int)), "counts must be 1 to 1048576"
    ),
    # a lane's clicks are 3 nonnegative integer counts, one per origin
    "SimulationResult.clicks_floats": (
        lambda: SimulationResult([1.0, 0.0, 0.0], [1, 0, 0], 10, 0, 0), "clicks_signal"
    ),
    "SimulationResult.clicks_two": (
        lambda: SimulationResult([1, 0, 0], [1, 0], 10, 0, 0), "clicks_noise"
    ),
    "SimulationResult.clicks_negative": (
        lambda: SimulationResult([2, -1, 0], [1, 0, 0], 10, 0, 0), "clicks_signal"
    ),
    # non-finite, non-positive or sub-bin histogram settings, before any collection
    "start_stop_histogram.bin_width_nan": (
        lambda: start_stop_histogram(SCENARIO, bin_width_ns=math.nan), "bin_width_ns"
    ),
    "start_stop_histogram.bin_width_inf": (
        lambda: start_stop_histogram(SCENARIO, bin_width_ns=math.inf), "bin_width_ns"
    ),
    "start_stop_histogram.window_nan": (
        lambda: start_stop_histogram(SCENARIO, window_ns=math.nan), "window_ns"
    ),
    "start_stop_histogram.window_zero": (
        lambda: start_stop_histogram(SCENARIO, window_ns=0.0), "window_ns"
    ),
    "start_stop_histogram.window_negative": (
        lambda: start_stop_histogram(SCENARIO, window_ns=-100.0), "window_ns"
    ),
    "start_stop_histogram.window_below_bin": (
        lambda: start_stop_histogram(SCENARIO, bin_width_ns=0.64, window_ns=0.5), "window_ns"
    ),
    # a 5000 ns window at 1 MHz would span five repetition periods
    "start_stop_histogram.window_over_period": (
        lambda: start_stop_histogram(SCENARIO, window_ns=5000.0), "window_ns"
    ),
    # elements within 0.01 of a total above one
    "FilterStage.total_transmission": (
        lambda: replace(
            CHAIN.filter_stage,
            fiber_coupling=1.0,
            grating=1.0,
            bandpass_longpass=0.996,
            total_transmission=1.005,
        ),
        "total_transmission",
    ),
    # overrides of the wrong kind, once stored as given, truncated or read as truthy
    "with_overrides.shots_fraction": (
        lambda: with_overrides(CONFIG, montecarlo_shots=2.5), "montecarlo_shots"
    ),
    "with_overrides.extrapolation_string": (
        lambda: with_overrides(CONFIG, filter_allow_extrapolation="no"),
        "filter_allow_extrapolation",
    ),
    "with_overrides.pump_string": (lambda: with_overrides(CONFIG, pump_power="120"), "pump_power"),
    "with_overrides.pump_overflow": (lambda: with_overrides(CONFIG, pump_power=10**400), "pump_power"),
    "with_overrides.seed_bool": (
        lambda: with_overrides(CONFIG, montecarlo_seed=True), "montecarlo_seed"
    ),
    # past Philox's 128-bit key, and past the shots one lane's substream holds
    "ExperimentScenario.seed_2_128": (
        lambda: ExperimentScenario(CHAIN, 6.1, 120.0, 10, 1 << 128), "montecarlo_seed"
    ),
    "ExperimentScenario.shots_over_max": (
        lambda: ExperimentScenario(CHAIN, 6.1, 120.0, MAX_SHOTS + 1, 1), "montecarlo_shots"
    ),
    "with_overrides.seed_2_128": (
        lambda: with_overrides(CONFIG, montecarlo_seed=1 << 128), "montecarlo_seed"
    ),
    "with_overrides.shots_over_max": (
        lambda: with_overrides(CONFIG, montecarlo_shots=MAX_SHOTS + 1), "montecarlo_shots"
    ),
    # +inf, which "not x > 0" and "not x >= 0" let through: a record field
    # that accepted it gave mu_1 = 0 or inf, an OverflowError in simulate, or
    # a "math domain error" that named no field
    "GaussianPulse.fwhm_inf": (lambda: replace(CHAIN.pulse, fwhm_ns=math.inf), "pulse FWHM"),
    "WaveguideParams.length_inf": (
        lambda: replace(CHAIN.waveguide, length_cm=math.inf), "waveguide length"
    ),
    "WaveguideParams.normalized_efficiency_inf": (
        lambda: replace(CHAIN.waveguide, normalized_efficiency=math.inf), "normalized efficiency"
    ),
    "NoiseModel.alpha_detected_inf": (
        lambda: replace(CHAIN.noise, alpha_detected_per_mw=math.inf), "alpha_detected_per_mw"
    ),
    "NoiseModel.alpha_crystal_inf": (
        lambda: replace(CHAIN.noise, alpha_crystal_per_mw_ns=math.inf), "alpha_crystal_per_mw_ns"
    ),
    "NoiseModel.reference_bandwidth_inf": (
        lambda: replace(CHAIN.noise, reference_bandwidth_nm=math.inf), "reference bandwidth"
    ),
    "NoiseModel.reference_gate_inf": (
        lambda: replace(CHAIN.noise, reference_gate_ns=math.inf), "reference gate width"
    ),
    "FilterStage.bandwidth_inf": (
        lambda: replace(CHAIN.filter_stage, bandwidth_nm=math.inf, allow_extrapolation=True),
        "filter bandwidth",
    ),
    "DetectorConfig.dead_time_inf": (
        lambda: replace(CHAIN.detector, dead_time_us=math.inf), "dead time"
    ),
    "DetectorConfig.dark_rate_inf": (
        lambda: replace(CHAIN.detector, dark_rate_per_ns=math.inf), "dark rate"
    ),
    "DetectorConfig.gate_width_inf": (
        lambda: replace(CHAIN.detector, gate_width_ns=math.inf, allow_any_gate=True), "gate width"
    ),
    "dfg_output_wavelength.pump_inf": (
        lambda: dfg_output_wavelength(780.24, math.inf), "pump wavelength"
    ),
    # a zero pump converts no light, so mu_1 is undefined
    "mu1.zero": (lambda: mu1(CHAIN, 0.0), "pump_power"),
    # no noise at all: p_N = 0 divides the unsubtracted SNR
    "snr.zero_noise": (
        lambda: snr(RateBreakdown(1.0, 0.0, 0.0), subtract_dark=False), "noise_alpha_detected",
        DegenerateDenominatorError,
    ),
    "snr.no_pump_noise": (lambda: snr(RateBreakdown(1.0, 0.0, 0.5)), "pump_power",
                          DegenerateDenominatorError),
    # inputs of the CSV reader, the config grammar and the analysis helpers
    "_read_dataset_csv.non_numeric": (
        lambda: _read_csv_text("P_p_W,eta_ext\n0.1,x\n"), "non-numeric dataset entry"
    ),
    "parse_config.unit_on_dimensionless": (
        lambda: parse_config("[source]\nmean_photon_number = 6.1 mW\n[pump]\npower = 120.0 mW\n"),
        "source_mean_photon_number is dimensionless",
    ),
    "parse_config.key_outside_section": (
        lambda: parse_config("power = 120.0 mW\n"), "key outside any section"
    ),
    "extract_mu1.negative_slope": (
        lambda: extract_mu1(Dataset([1.0, 2.0], [2.0, -2.0])), "nonpositive SNR slope"
    ),
    "fringe_scan.one_point": (
        lambda: fringe_scan(QUBIT, IFM, 1.0, 0.0, [0.0]), "at least 2 phase points"
    ),
    # no light and no noise: every count is 0
    "fringe_scan.dark": (lambda: fringe_scan(QUBIT, IFM, 0.0, 0.0, GAMMAS), "degenerate fringe"),
    "quantum_regime_report.lengths": (
        lambda: quantum_regime_report([1.0, 2.0], [0.5], 0.25, 0.066), "equal length"
    ),
}


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_scalar_nan_rejected(case):
    call, name, *error = SCALAR_CASES[case]
    with pytest.raises(error[0] if error else ValueError, match=name):
        call()
