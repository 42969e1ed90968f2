"""The guards reject NaN, which passes any plain ``x < 0`` test, and the
other non-finite or out-of-range inputs they name."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qfcsim.chain import reference_chain
from qfcsim.montecarlo import (
    ExperimentScenario,
    Histogram,
    gate_integrate,
    simulate,
    start_stop_histogram,
)
from qfcsim.noise import detection_probabilities, mu1, projected_noise_floor
from qfcsim.optics import conversion_fraction, dfg_output_wavelength, external_efficiency
from qfcsim.timebin import (
    Interferometer,
    SlotCounts,
    TimeBinQubit,
    slot_statistics,
    visibility_model,
)

CHAIN = reference_chain()
SCENARIO = ExperimentScenario(chain=CHAIN, mu_in=6.1, pump_mw=120.0, n_shots=10, seed=1)
HIST = Histogram(bin_width_ns=1.0, counts=np.ones(100, dtype=int), window_ns=100.0)
QUBIT = TimeBinQubit(phase=0.0, separation_ns=50.0)
IFM = Interferometer(delay_ns=50.0)

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
    (HIST, "window_ns"),
]


@pytest.mark.parametrize(
    "valid, field", CASES, ids=[f"{type(v).__name__}.{f}" for v, f in CASES]
)
def test_nan_rejected(valid, field):
    with pytest.raises(ValueError):
        replace(valid, **{field: math.nan})


# (a call with one NaN or otherwise invalid argument, the name the error
# message must give)
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
}


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_scalar_nan_rejected(case):
    call, name = SCALAR_CASES[case]
    with pytest.raises(ValueError, match=name):
        call()
