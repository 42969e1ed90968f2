"""The dataclass guards reject NaN, which passes any plain ``x < 0`` test."""

import math
from dataclasses import replace

import pytest

from qfcsim.chain import reference_chain
from qfcsim.montecarlo import ExperimentScenario
from qfcsim.timebin import Interferometer, TimeBinQubit

CHAIN = reference_chain()

# (a valid instance, the field set to NaN)
CASES = [
    (CHAIN.pulse, "fwhm_ns"),
    (CHAIN.waveguide, "length_cm"),
    (CHAIN.noise, "alpha_detected_per_mw"),
    (CHAIN.detector, "dead_time_us"),
    (CHAIN, "repetition_rate_mhz"),
    (ExperimentScenario(chain=CHAIN, mu_in=6.1, pump_mw=120.0, n_shots=10, seed=1), "mu_in"),
    (TimeBinQubit(phase=0.0, separation_ns=50.0), "separation_ns"),
    (Interferometer(delay_ns=50.0), "delay_ns"),
]


@pytest.mark.parametrize(
    "valid, field", CASES, ids=[f"{type(v).__name__}.{f}" for v, f in CASES]
)
def test_nan_rejected(valid, field):
    with pytest.raises(ValueError):
        replace(valid, **{field: math.nan})
