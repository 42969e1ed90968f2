"""The frozen records: fields, construction, equality, hashing and
``replace``, all read from the annotated names of each class body."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qfcsim import (
    ConversionChain,
    DegenerateDenominatorError,
    DetectorConfig,
    EfficiencyCascade,
    ExperimentScenario,
    GaussianPulse,
    Interferometer,
    NoiseModel,
    RateBreakdown,
    SlotCounts,
    TimeBinQubit,
    beta_factor,
    detection_probabilities,
    parse_config,
    reference_chain,
    replace,
)
from qfcsim.config import REFERENCE_CONFIG
from qfcsim.fitting import Dataset, FitResult, fit_conversion, fit_linear
from qfcsim.montecarlo import Histogram, HistogramTriple, SimulationResult
from qfcsim.optics import Record
from qfcsim.timebin import QuantumRegimeRow


def detector(**changes):
    fields = dict(gate_width_ns=20.0, efficiency=0.1, dark_rate_per_ns=1e-5, dead_time_us=10.0)
    return DetectorConfig(**{**fields, **changes})


def _clicks(k):
    """k accepted clicks counted by origin: all of them signal."""
    return np.array([k, 0, 0])


def _records(cls=Record):
    # the package's record classes, not the ones tests define
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("qfcsim."):
            yield sub
        yield from _records(sub)


CHAIN = reference_chain()
_COUNTS = np.ones(4, dtype=int)
# one instance of every record class, and the attributes each derives in __post_init__
INSTANCES = {
    type(r): r for r in [
        CHAIN, CHAIN.pulse, CHAIN.waveguide, CHAIN.budget, CHAIN.budget.signal, CHAIN.cascade(),
        CHAIN.noise, CHAIN.filter_stage, CHAIN.detector, detection_probabilities(6.1, 120.0, CHAIN),
        ExperimentScenario(CHAIN, 6.1, 120.0, 10, 1),
        TimeBinQubit(0.0, 50.0), Interferometer(50.0), SlotCounts(1.0, 2.0, 1.0),
        QuantumRegimeRow(1.0, 0.9, 0.9, 0.9, 0.9),
        Histogram(1.0, _COUNTS, 4.0), HistogramTriple(*[Histogram(1.0, _COUNTS, 4.0)] * 3),
        SimulationResult(_clicks(2), _clicks(2), 10, 0, 0),
        Dataset(x=[1.0, 2.0, 3.0], y=[1.0, 2.0, 3.0]),
        FitResult(np.ones(1), np.ones((1, 1)), np.ones(1), 0.0, 1, ("slope",), {}),
    ]
}
DERIVED = {
    ConversionChain: {"output_wavelength_nm", "beta", "_cascade", "_event_factors"},
    EfficiencyCascade: {"eta_ext_max", "eta_dev_max", "eta_tot_max"},
    NoiseModel: {"alpha_unit"},
    QuantumRegimeRow: {"fidelity", "exceeds_ext"},
    SimulationResult: {"alive_signal", "alive_noise", "p_signal", "p_signal_err", "p_noise",
                       "p_noise_err", "snr", "snr_err"},
}


class TestInstanceDict:
    """Each record stores its fields, and then its derived attributes, in
    its instance dict, and nothing else."""

    def test_every_record_class_has_an_instance(self):
        assert set(INSTANCES) == set(_records())

    @pytest.mark.parametrize("record", INSTANCES.values(), ids=[c.__name__ for c in INSTANCES])
    def test_vars_are_the_fields_and_derived_attributes(self, record):
        derived = DERIVED.get(type(record), set())
        assert tuple(vars(record))[:len(record._fields)] == record._fields
        assert set(vars(record)) == {*record._fields, *derived}

    @pytest.mark.parametrize("record", INSTANCES.values(), ids=[c.__name__ for c in INSTANCES])
    def test_no_attribute_assigned_or_deleted(self, record):
        before = dict(vars(record))
        for name in before:
            with pytest.raises(AttributeError, match=name):
                setattr(record, name, 1.0)
            with pytest.raises(AttributeError, match=name):
                delattr(record, name)
        assert vars(record).keys() == before.keys()
        assert all(vars(record)[n] is before[n] for n in before)


class TestFrozen:
    def test_assignment_rejected(self):
        det = detector()
        with pytest.raises(AttributeError, match="gate_width_ns"):
            det.gate_width_ns = 50.0
        with pytest.raises(AttributeError):
            det.new_name = 1.0
        assert det.gate_width_ns == 20.0 and not hasattr(det, "new_name")

    def test_deletion_rejected(self):
        chain = reference_chain()
        for name in ("detector", "beta"):
            with pytest.raises(AttributeError, match=name):
                delattr(chain, name)
        assert chain.detector.gate_width_ns == 20.0


class TestEqualityAndHash:
    def test_reference_chain_equal(self):
        cfg = parse_config(REFERENCE_CONFIG)
        assert cfg.chain == reference_chain()
        assert hash(cfg.chain) == hash(reference_chain())
        assert cfg.chain is not reference_chain()

    def test_follow_the_fields(self):
        assert detector() == detector()
        assert hash(detector()) == hash(detector())
        assert detector() != detector(dead_time_us=11.0)
        assert detector() != detector(allow_any_gate=True)
        assert len({detector(), detector(), detector(dead_time_us=11.0)}) == 2

    def test_other_class_unequal(self):
        # same field values, different record class
        class Scenario(ExperimentScenario):
            pass

        cfg = parse_config(REFERENCE_CONFIG)
        scenario = Scenario(cfg.chain, cfg.mu_in, cfg.pump_mw, cfg.n_shots, cfg.seed)
        assert scenario != cfg and cfg != scenario
        assert GaussianPulse(30.0) != 30.0

    def test_array_fields_compare_as_one_bool(self):
        # two distinct but equal fits, which once raised numpy's
        # "truth value of an array is ambiguous"
        x, y = [1.0, 2.0, 3.0], [1.0, 2.5, 2.9]
        first = fit_linear(Dataset(x=x, y=y))
        assert first == fit_linear(Dataset(x=x[::-1], y=y[::-1]))
        assert first in [fit_linear(Dataset(x=x[:2], y=y[:2])), fit_linear(Dataset(x=x, y=y))]
        assert first != fit_linear(Dataset(x=x, y=[1.0, 2.5, 3.0]))
        assert first != fit_linear(Dataset(x=x, y=y), force_zero_intercept=True)
        with pytest.raises(TypeError):
            hash(first)

    def test_datasets_compare_and_hash_as_tuples(self):
        first = Dataset(x=[1.0, 2.0, 3.0], y=[1.0, 2.0, 3.0])
        assert first == Dataset(x=[3.0, 2.0, 1.0], y=[3.0, 2.0, 1.0])
        assert hash(first) == hash(Dataset(x=[3.0, 2.0, 1.0], y=[3.0, 2.0, 1.0]))
        assert first in [Dataset(x=[1.0, 2.0], y=[1.0, 2.0]),
                         Dataset(x=[1.0, 2.0, 3.0], y=[1.0, 2.0, 3.0])]
        assert first != Dataset(x=[1.0, 2.0, 3.0], y=[1.0, 2.0, 4.0])
        assert first != Dataset(x=[1.0, 2.0], y=[1.0, 2.0])
        assert first != Dataset(x=[1.0, 2.0, 3.0], y=[1.0, 2.0, 3.0], sigma=[1.0, 1.0, 1.0])

    @pytest.mark.parametrize("make", [
        lambda counts: FitResult(counts, np.diag(counts), counts, 0.0, 1, ("a", "b"), {}),
        lambda counts: HistogramTriple(*[Histogram(1.0, counts, float(counts.size))] * 3),
        # 3 counts by origin, repeating the given ones
        lambda counts: SimulationResult(np.resize(counts.astype(int), 3), _clicks(1), 10, 0, 0),
    ], ids=["FitResult", "Histogram", "SimulationResult"])
    def test_array_records_equal_by_elements(self, make):
        counts = np.array([1.0, 2.0])
        assert make(counts) == make(counts.copy())
        assert make(counts) != make(np.array([1.0, 3.0]))
        assert make(counts) != make(np.array([1.0, 2.0, 0.0]))
        with pytest.raises(TypeError):
            hash(make(counts))

    def test_derived_attributes_are_not_fields(self):
        cascade = EfficiencyCascade(0.61, 0.4, 0.26, 0.04)
        assert cascade.eta_tot_max == pytest.approx(0.61 * 0.4 * 0.26 * 0.04, rel=1e-15)
        assert repr(cascade) == (
            "EfficiencyCascade(eta_coupling=0.61, eta_int_max=0.4, eta_filter=0.26, "
            "eta_detection=0.04)"
        )
        assert "beta" not in repr(reference_chain())


class TestConstruction:
    def test_positional_keyword_and_default(self):
        positional = DetectorConfig(20.0, 0.1, 1e-5, 10.0)
        keyword = DetectorConfig(
            dead_time_us=10.0, dark_rate_per_ns=1e-5, efficiency=0.1, gate_width_ns=20.0
        )
        assert positional == keyword == detector(allow_any_gate=False)
        assert positional.allow_any_gate is False
        ifm = Interferometer(5.0)
        assert (ifm.delay_ns, ifm.phase, ifm.max_visibility, ifm.splitter_ratio) == (
            5.0, 0.0, 1.0, 0.5
        )
        assert Interferometer(5.0, 1.0, splitter_ratio=0.4).splitter_ratio == 0.4

    def test_missing_argument_rejected(self):
        message = r"DetectorConfig.__init__\(\) missing 1 required positional argument: 'dead_time_us'"
        with pytest.raises(TypeError, match=message):
            DetectorConfig(20.0, 0.1, 1e-5)
        with pytest.raises(TypeError):
            GaussianPulse()

    @pytest.mark.parametrize("call", [
        lambda: detector(gate_width=20.0),
        lambda: GaussianPulse(30.0, 40.0),
        lambda: DetectorConfig(20.0, 0.1, 1e-5, 10.0, gate_width_ns=20.0),
    ], ids=["unknown", "too_many", "twice"])
    def test_unknown_or_extra_argument_rejected(self, call):
        with pytest.raises(TypeError):
            call()

    def test_each_fit_gets_its_own_extras(self):
        data = Dataset(x=[1.0, 2.0, 3.0], y=[2.0, 4.1, 5.9])
        first, second = fit_linear(data), fit_linear(data)
        assert first.extras == {} and first.extras is not second.extras
        first.extras["k"] = 1.0
        assert second.extras == {} and fit_linear(data).extras == {}
        curve = Dataset(x=[0.1, 0.2, 0.3, 0.4, 0.5], y=[0.05, 0.15, 0.22, 0.25, 0.2])
        fits = [fit_conversion(curve, 3.0) for _ in range(2)]
        assert fits[0].extras == fits[1].extras and fits[0].extras is not fits[1].extras
        assert set(fits[0].extras) == {"total_normalized_per_w", "total_normalized_ci95"}
        given = {"k": 2.0}
        assert replace(first, extras=given).extras is given


class TestFields:
    def test_subclass_fields_follow_the_base(self):
        class Labelled(ExperimentScenario):
            label: str = ""

        scenario_fields = ("chain", "mu_in", "pump_mw", "n_shots", "seed")
        assert ExperimentScenario._fields == scenario_fields
        assert Labelled._fields == (*scenario_fields, "label")
        assert list(inspect.signature(Labelled).parameters) == [*scenario_fields, "label"]

    def test_signature(self):
        assert list(inspect.signature(RateBreakdown).parameters) == [
            "signal", "pump_noise", "dark"]
        rb = RateBreakdown(0.1, 0.05, 0.05)
        assert repr(rb) == "RateBreakdown(signal=0.1, pump_noise=0.05, dark=0.05)"
        assert rb.p_signal == -math.expm1(-0.2) and rb.p_noise == -math.expm1(-0.1)


class TestDerivedValues:
    """What a result record derives from its fields equals, to the bit, the
    expression that computed it where the record was built; ``repr`` tells
    apart the values and types that ``==`` would not (0.0 and -0.0, 1 and 1.0)."""

    finite = st.floats(min_value=0.0, allow_infinity=False)

    @given(finite, finite, finite)
    def test_rate_breakdown(self, signal, pump_noise, dark):
        rb = RateBreakdown(signal, pump_noise, dark)
        noise = pump_noise + dark
        assert repr((rb.p_signal, rb.p_noise)) == repr(
            (-math.expm1(-(signal + noise)), -math.expm1(-noise)))
        assert rb.p_signal >= rb.p_noise >= 0.0

    @given(st.data())
    def test_simulation_result(self, data):
        n_shots = data.draw(st.integers(1, 10**12))
        skip_s, skip_n = (data.draw(st.integers(0, n_shots - 1)) for _ in range(2))
        k_s = data.draw(st.integers(0, min(n_shots - skip_s, 3000)))
        k_n = data.draw(st.integers(1, min(n_shots - skip_n, 3000)))
        res = SimulationResult(_clicks(k_s), _clicks(k_n), n_shots, skip_s, skip_n)
        alive_s, alive_n = n_shots - skip_s, n_shots - skip_n
        p_s, p_n = k_s / alive_s, k_n / alive_n
        err_s = math.sqrt(p_s * (1.0 - p_s) / alive_s)
        err_n = math.sqrt(p_n * (1.0 - p_n) / alive_n)
        expected = {
            "alive_signal": alive_s, "alive_noise": alive_n, "p_signal": p_s,
            "p_signal_err": err_s, "p_noise": p_n, "p_noise_err": err_n,
            "snr": (p_s - p_n) / p_n, "snr_err": math.hypot(err_s / p_n, p_s * err_n / p_n**2),
        }
        assert {n: repr(getattr(res, n)) for n in expected} == {
            n: repr(v) for n, v in expected.items()}

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_quantum_regime_row(self, visibility, bound_ext):
        row = QuantumRegimeRow(1.0, visibility, 2.0 / 3.0, bound_ext, 0.9)
        fidelity = (1.0 + visibility) / 2.0
        assert repr((row.fidelity, row.exceeds_ext)) == repr((fidelity, fidelity > bound_ext))

    def test_quantum_regime_row_checks_the_visibility(self):
        with pytest.raises(ValueError, match="visibility must be in"):
            QuantumRegimeRow(1.0, 1.5, 2.0 / 3.0, 0.7, 0.9)

    def test_simulation_result_alive_and_skipped_add_up(self):
        res = SimulationResult(_clicks(3), _clicks(2), 100, 7, 4)
        assert res.alive_signal + res.skipped_signal == res.n_shots == 100
        assert res.alive_noise + res.skipped_noise == 100
        assert (res.p_signal, res.p_noise) == (3 / 93, 2 / 96)
        # more gates skipped than shots, or fewer alive than clicks, or none
        for skip_s, skip_n in ((101, 4), (7, 99), (7, 100)):
            with pytest.raises(ValueError, match="n_shots - skipped_"):
                SimulationResult(_clicks(3), _clicks(2), 100, skip_s, skip_n)

    def test_simulation_result_without_a_noise_click_raises(self):
        message = r"no click with the input blocked, 96 alive gates\): pump_power, .*dark_rate"
        with pytest.raises(DegenerateDenominatorError, match=message):
            SimulationResult(_clicks(3), _clicks(0), 100, 7, 4)


class TestReplace:
    def test_revalidates(self):
        with pytest.raises(ValueError, match="gate width 33.0 ns"):
            replace(detector(), gate_width_ns=33.0)
        assert replace(detector(), gate_width_ns=33.0, allow_any_gate=True).gate_width_ns == 33.0

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="gate_width"):
            replace(detector(), gate_width=50.0)

    def test_copies_and_rederives(self):
        chain = reference_chain()
        assert replace(chain) == chain and replace(chain) is not chain
        wide = replace(chain, detector=replace(chain.detector, gate_width_ns=50.0))
        assert wide.detector.gate_width_ns == 50.0 and chain.detector.gate_width_ns == 20.0
        assert wide.beta == beta_factor(chain.pulse, wide.detector) > chain.beta
        assert wide.cascade().eta_detection == wide.detector.efficiency * wide.beta

    def test_subclass_keeps_its_class(self):
        class Labelled(ExperimentScenario):
            label: str = ""

        cfg = parse_config(REFERENCE_CONFIG)
        labelled = Labelled(cfg.chain, cfg.mu_in, cfg.pump_mw, cfg.n_shots, cfg.seed, "run 1")
        changed = replace(labelled, seed=5)
        assert type(changed) is Labelled
        assert (changed.seed, changed.label) == (5, "run 1")
