"""Configuration parsing, serialization and command-line behavior."""

import io
import itertools
import json
import math
import random
import re
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import qfcsim
from qfcsim import reference_chain
from qfcsim.config import (
    _DEFAULTS,
    _REQUIRED,
    _SCHEMA,
    _values,
    REFERENCE_CONFIG,
    ConfigError,
    config_hash,
    parse_config,
    serialize,
    with_overrides,
)
from qfcsim.cli import _OVERRIDES, PRESETS, run
from qfcsim.fitting import FitConvergenceError, fit_conversion
from qfcsim.noise import ALLOWED_GATE_WIDTHS_NS, DegenerateDenominatorError, detection_probabilities
from qfcsim.optics import Record

SCHEMA_KEYS = [(section, key) for section in _SCHEMA for key in _SCHEMA[section]]

# the largest signal mean per unit input over 1-600 mW, reference configuration
_PEAK_SIGNAL_PER_MU = max(
    detection_probabilities(1.0, float(p), parse_config(REFERENCE_CONFIG).chain).signal
    for p in range(1, 601)
)

# every non-bool config key, set to each non-finite value in turn
NONFINITE_CASES = [
    (section, key, kind, value)
    for section, keys in _SCHEMA.items()
    for key, (kind, _) in keys.items()
    if kind != "bool"
    for value in ("nan", "inf")
]

# every float override flag, set to each non-finite value in turn
FLOAT_FLAG_CASES = [
    (flag, key, value)
    for flag, kind, key in _OVERRIDES
    if kind is float
    for value in ("nan", "inf", "-inf")
]
COMMANDS = {
    "report": ["report"],
    "simulate": ["simulate"],
    "fit": ["fit", "data.csv"],
    **{f"sweep_{preset}": ["sweep", "--preset", preset] for preset in PRESETS},
}


# every float config key, set to each extreme magnitude in turn
EXTREMES = ("0.0", "5e-324", "1e-300", "1e300", repr(sys.float_info.max))
EXTREME_CASES = [
    (section, key, value if kind is None else f"{value} {kind}")
    for section, keys in _SCHEMA.items()
    for key, (kind, _) in keys.items()
    if kind not in ("int", "bool")
    for value in EXTREMES
]
# scenarios of the seeded multi-key probe, each run through every command
RANDOM_SCENARIOS = 200
# fit datasets: the columns of a sin^2-like curve, each scaled to a tiny,
# normal or huge magnitude or left out, as (column name, values) lists
_COLUMNS = (("P_p_W", (0.1, 0.2, 0.3, 0.4, 0.5)), ("eta_ext", (0.05, 0.15, 0.22, 0.25, 0.2)),
            ("sigma", (0.01,) * 5))
EXTREME_DATASETS = [
    [(name, [m * v for v in values]) for (name, values), m in zip(_COLUMNS, scales) if m]
    for scales in itertools.product((1e-300, 1.0, 1e300, None), repeat=3)
]

# values of the wrong kind for each kind of key, given alike as a document
# entry and through with_overrides: bool keys take only a bool, int keys an
# integral value that is no bool, float keys a finite real
_WRONG_KIND = {
    "bool": (1, 0.5, "yes"),
    "int": (2.5, True, "x", math.nan),
    "float": (True, "x", math.nan, math.inf, -math.inf, 10**400),
}
GRAMMAR_CASES = [
    (section, key, kind, value)
    for section, keys in _SCHEMA.items()
    for key, (kind, _) in keys.items()
    for value in _WRONG_KIND[kind if kind in ("bool", "int") else "float"]
]
# Python's own texts of an arithmetic failure, which name no config key
_BARE_ARITHMETIC = ("float division by zero", "division by zero", "math range error",
                    "math domain error", "(34, 'Numerical result out of range')",
                    "cannot convert float infinity to integer")


# valid values for every key but the filter's transmissions, which stay at
# the reference because their product must match the total; each range
# lies inside the constraints the other keys impose at their reference
# values
_REQUIRED_VALUES = {
    ("source", "mean_photon_number"): st.floats(0.0, 100.0),
    ("pump", "power"): st.floats(0.0, 1000.0),
}
_OPTIONAL_VALUES = {
    ("source", "input_wavelength"): st.floats(500.0, 1000.0),
    ("source", "pulse_fwhm"): st.floats(1.0, 100.0),
    ("source", "repetition_rate"): st.floats(0.1, 10.0),
    ("pump", "wavelength"): st.floats(1500.0, 1700.0),
    ("waveguide", "length"): st.floats(0.5, 5.0),
    ("waveguide", "normalized_efficiency"): st.floats(0.1, 2.0),
    ("waveguide", "max_external_efficiency"): st.floats(0.0, 0.6),
    ("losses_input", "input_lens"): st.floats(0.0, 1.0),
    ("losses_input", "coupling"): st.floats(0.6, 1.0),
    ("losses_input", "propagation"): st.floats(0.0, 1.0),
    ("losses_input", "output_lens"): st.floats(0.0, 1.0),
    ("losses_pump", "input_lens"): st.floats(0.0, 1.0),
    ("losses_pump", "coupling"): st.floats(0.0, 1.0),
    ("losses_pump", "propagation"): st.floats(0.0, 1.0),
    ("losses_pump", "output_lens"): st.floats(0.0, 1.0),
    ("filter", "bandwidth"): st.floats(0.65, 2.3),
    ("filter", "allow_extrapolation"): st.booleans(),
    ("detector", "gate_width"): st.sampled_from([20.0, 50.0, 100.0]),
    ("detector", "efficiency"): st.floats(0.0, 1.0),
    ("detector", "dark_rate"): st.floats(0.0, 1e-3),
    ("detector", "dead_time"): st.floats(0.0, 100.0),
    ("detector", "allow_any_gate"): st.booleans(),
    ("noise", "alpha_detected"): st.floats(0.0, 1e-4),
    ("noise", "alpha_crystal"): st.floats(0.0, 1e-4),
    ("noise", "reference_bandwidth"): st.floats(0.1, 3.0),
    ("noise", "reference_gate"): st.floats(1.0, 100.0),
    ("montecarlo", "shots"): st.integers(1, 10**9),
    ("montecarlo", "seed"): st.integers(0, 2**63 - 1),
}


def _document(entries: dict) -> str:
    """A scenario document holding ``entries``, (section, key) -> value."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (kind, _) in keys.items():
            if (section, key) not in entries:
                continue
            value = entries[(section, key)]
            if isinstance(value, bool):
                text = str(value).lower()
            elif isinstance(value, int):
                text = str(value)
            else:
                text = repr(value) if kind is None else f"{value!r} {kind}"
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _with_entry(section: str, key: str, raw: str, document: str = REFERENCE_CONFIG) -> str:
    """``document``, the reference by default, with one entry's value text replaced."""
    lines, current = [], None
    for line in document.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            current = stripped[1:-1]
        elif current == section and stripped.split("=")[0].strip() == key:
            line = f"{key} = {raw}"
        lines.append(line)
    return "\n".join(lines) + "\n"


class TestParseConfig:
    def test_reference_reproduces_cascade(self):
        cfg = parse_config(REFERENCE_CONFIG)
        cas = cfg.chain.cascade()
        assert cas.eta_ext_max == pytest.approx(0.25, abs=0.005)
        assert cas.eta_dev_max == pytest.approx(0.066, abs=0.002)
        assert cas.eta_tot_max == pytest.approx(2.6e-3, abs=1e-4)
        assert cfg.pump_mw == 120.0
        assert cfg.mu_in == 6.1

    def test_missing_pump_power(self):
        text = REFERENCE_CONFIG.replace("power = 120.0 mW\n", "")
        with pytest.raises(ConfigError, match="pump_power"):
            parse_config(text)

    def test_missing_mean_photon_number(self):
        text = REFERENCE_CONFIG.replace("mean_photon_number = 6.1\n", "")
        with pytest.raises(ConfigError, match="source_mean_photon_number"):
            parse_config(text)

    def test_gate_width_allowed_set(self):
        text = REFERENCE_CONFIG.replace("gate_width = 20.0 ns", "gate_width = 37.0 ns")
        with pytest.raises(ConfigError, match="not in the supported set"):
            parse_config(text)

    def test_gate_width_override_flag(self):
        text = REFERENCE_CONFIG.replace("gate_width = 20.0 ns", "gate_width = 37.0 ns")
        text = text.replace("allow_any_gate = false", "allow_any_gate = true")
        cfg = parse_config(text)
        assert cfg.chain.detector.gate_width_ns == 37.0

    def test_unknown_key_rejected_with_line(self):
        text = REFERENCE_CONFIG + "\n[pump]\nwattage = 1.0 mW\n"
        with pytest.raises(ConfigError, match=r"line \d+: unknown key 'wattage'"):
            parse_config(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(REFERENCE_CONFIG + "\n[laser]\n")

    def test_missing_unit_rejected(self):
        text = REFERENCE_CONFIG.replace("power = 120.0 mW", "power = 120.0")
        with pytest.raises(ConfigError, match="unit suffix"):
            parse_config(text)

    def test_wrong_unit_rejected(self):
        text = REFERENCE_CONFIG.replace("power = 120.0 mW", "power = 120.0 W")
        with pytest.raises(ConfigError, match="unit suffix"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        text = REFERENCE_CONFIG.replace(
            "power = 120.0 mW", "power = 120.0 mW\npower = 130.0 mW"
        )
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("[pump]\npower 120 mW\n")

    def test_defaults_cover_schema(self):
        assert set(_DEFAULTS) | _REQUIRED == set(SCHEMA_KEYS)
        assert not set(_DEFAULTS) & _REQUIRED

    @pytest.mark.parametrize(
        "section, key", SCHEMA_KEYS, ids=[f"{s}_{k}" for s, k in SCHEMA_KEYS]
    )
    def test_every_key_reaches_the_model(self, section, key):
        cfg = parse_config(REFERENCE_CONFIG)
        kind = _SCHEMA[section][key][0]
        value = _values(cfg)[(section, key)]
        if kind == "bool":
            other = not value
        elif kind == "int":
            other = value + 1
        elif (section, key) == ("detector", "gate_width"):
            other = next(g for g in ALLOWED_GATE_WIDTHS_NS if g != value)
        else:
            # 1% keeps each filter element's product within 0.01 of the total
            other = value * 0.99
        changed = with_overrides(cfg, **{f"{section}_{key}": other})

        def model(c):
            return (c.chain, c.mu_in, c.pump_mw, c.n_shots, c.seed)

        assert model(changed) != model(cfg)

    def test_required_keys_alone_give_reference_chain(self):
        cfg = parse_config("[source]\nmean_photon_number = 6.1\n[pump]\npower = 120.0 mW\n")
        assert cfg.chain == reference_chain()
        assert serialize(cfg) == serialize(parse_config(REFERENCE_CONFIG))

    def test_nonfinite_value_rejected(self):
        text = REFERENCE_CONFIG.replace("power = 120.0 mW", "power = nan mW")
        with pytest.raises(ConfigError, match="pump_power must be finite"):
            parse_config(text)

    def test_comments_and_whitespace_ignored(self):
        text = "# comment\n[pump]\npower = 120.0 mW  # trailing\n[source]\nmean_photon_number = 6.1\n"
        cfg = parse_config(text)
        assert cfg.pump_mw == 120.0


class TestValueGrammar:
    """One grammar per kind of key: a document entry and an override of
    the same wrong-kind value both raise ``ConfigError`` naming the key,
    and the document's error names the entry's line."""

    @pytest.mark.parametrize(
        "section, key, kind, value",
        GRAMMAR_CASES,
        ids=[f"{s}_{k}={'10**400' if v == 10**400 else repr(v)}" for s, k, _, v in GRAMMAR_CASES],
    )
    def test_wrong_kind_rejected_alike(self, section, key, kind, value):
        name = f"{section}_{key}"
        text = str(value).lower() if isinstance(value, bool) else str(value)
        raw = text if kind in (None, "bool", "int") else f"{text} {kind}"
        document = _with_entry(section, key, raw)
        assert document != REFERENCE_CONFIG
        with pytest.raises(ConfigError, match=rf"^line (\d+): {name} ") as parsed:
            parse_config(document)
        lineno = int(re.match(r"line (\d+)", str(parsed.value)).group(1))
        assert document.splitlines()[lineno - 1] == f"{key} = {raw}"
        with pytest.raises(ConfigError, match=rf"^{name} "):
            with_overrides(parse_config(REFERENCE_CONFIG), **{name: value})


class TestSerialization:
    def test_roundtrip_fixed_point(self):
        cfg = parse_config(REFERENCE_CONFIG)
        once = serialize(cfg)
        twice = serialize(parse_config(once))
        assert once == twice

    @given(st.fixed_dictionaries(_REQUIRED_VALUES, optional=_OPTIONAL_VALUES))
    @settings(max_examples=200)
    def test_roundtrip_generated(self, entries):
        # the chain needs the repetition period to exceed the gate
        rate = entries.get(("source", "repetition_rate"), _DEFAULTS[("source", "repetition_rate")])
        gate = entries.get(("detector", "gate_width"), _DEFAULTS[("detector", "gate_width")])
        assume(1e3 / rate > gate)
        cfg = parse_config(_document(entries))
        assert all(_values(cfg)[sk] == v for sk, v in entries.items())
        again = parse_config(serialize(cfg))
        assert config_hash(again) == config_hash(cfg)
        assert _values(again) == _values(cfg)

    def test_whitespace_normalization_only(self):
        messy = REFERENCE_CONFIG.replace("power = 120.0 mW", "power   =    120.0   mW")
        assert serialize(parse_config(messy)) == serialize(parse_config(REFERENCE_CONFIG))

    def test_hash_stability_and_sensitivity(self):
        cfg = parse_config(REFERENCE_CONFIG)
        assert config_hash(cfg) == config_hash(parse_config(REFERENCE_CONFIG))
        changed = with_overrides(cfg, pump_power=121.0)
        assert config_hash(changed) != config_hash(cfg)

    def test_with_overrides_validation(self):
        cfg = parse_config(REFERENCE_CONFIG)
        with pytest.raises(ConfigError, match="unknown override"):
            with_overrides(cfg, pump_wattage=1.0)


class TestScenarioIsItsRecords:
    """A scenario is its records: ``serialize`` and ``config_hash`` read
    every key through its ``_SCHEMA`` path, so they follow a record
    changed with ``replace`` and take a scenario built by hand."""

    def test_hash_follows_replaced_records(self):
        cfg = parse_config(REFERENCE_CONFIG)
        pairs = [
            (qfcsim.replace(cfg, seed=5), with_overrides(cfg, montecarlo_seed=5)),
            (qfcsim.replace(cfg, chain=cfg.chain.with_gate_width(50.0)),
             with_overrides(cfg, detector_gate_width=50.0)),
        ]
        for replaced, overridden in pairs:
            assert replaced == overridden
            assert serialize(replaced) == serialize(overridden)
            assert config_hash(replaced) == config_hash(overridden) != config_hash(cfg)
        assert "seed = 5\n" in serialize(pairs[0][0])
        assert "gate_width = 50.0 ns\n" in serialize(pairs[1][0])

    def test_hand_built_scenario(self):
        cfg = parse_config(REFERENCE_CONFIG)
        hand = qfcsim.ExperimentScenario(cfg.chain, cfg.mu_in, cfg.pump_mw, cfg.n_shots, cfg.seed)
        assert serialize(hand) == serialize(cfg)
        assert config_hash(hand) == config_hash(cfg)
        assert with_overrides(hand) == cfg
        assert with_overrides(hand, pump_power=400.0) == with_overrides(cfg, pump_power=400.0)

    def test_every_field_has_one_path(self):
        # a field with no key would drop out of serialize and the hash
        def leaves(record, prefix=""):
            for name in record._fields:
                value = getattr(record, name)
                if isinstance(value, Record):
                    yield from leaves(value, f"{prefix}{name}.")
                else:
                    yield prefix + name

        cfg = parse_config(REFERENCE_CONFIG)
        paths = [path for keys in _SCHEMA.values() for _, path in keys.values()]
        assert len(set(paths)) == len(paths)
        assert sorted(paths) == sorted(leaves(cfg))
        # attributes derived from the fields are no fields of their own
        derived = {"beta": cfg.chain, "_cascade": cfg.chain, "_event_factors": cfg.chain,
                   "alpha_unit": cfg.chain.noise}
        for name, record in derived.items():
            assert hasattr(record, name) and name not in record._fields


class TestCliExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_no_arguments(self):
        assert run([]) == 1

    def test_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[pump]\nwavelength = 1569.4 nm\n")
        assert run(["report", "--config", str(bad)]) == 2

    def test_missing_config_file(self, capsys):
        assert run(["report", "--config", "/nonexistent.cfg"]) == 2

    def test_nan_mu_rejected(self, tmp_path, capsys):
        assert run(["simulate", "--mu", "nan", "--out", str(tmp_path)]) == 2
        assert "source_mean_photon_number must be finite" in capsys.readouterr().err

    def test_infinite_pump_rejected(self, tmp_path, capsys):
        assert run(["report", "--pump-mw", "inf", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "pump_power must be finite" in err
        assert "math domain error" not in err

    @pytest.mark.parametrize(
        "section, key, kind, value",
        NONFINITE_CASES,
        ids=[f"{s}_{k}={v}" for s, k, _, v in NONFINITE_CASES],
    )
    def test_nonfinite_config_value_rejected(self, section, key, kind, value, tmp_path, capsys):
        raw = value if kind is None or kind == "int" else f"{value} {kind}"
        text = _with_entry(section, key, raw)
        assert text != REFERENCE_CONFIG
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run(["report", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"{section}_{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "flag, key, value",
        FLOAT_FLAG_CASES,
        ids=[f"{flag}={value}" for flag, _, value in FLOAT_FLAG_CASES],
    )
    def test_nonfinite_flag_rejected(
        self, flag, key, value, command, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("P_p_W,eta_ext\n0.1,0.05\n0.2,0.1\n0.3,0.15\n")
        option = "--" + flag.replace("_", "-") + "=" + value
        code = run([*COMMANDS[command], option, "--out", "out"])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_gate_flag_outside_the_set(self, tmp_path, capsys):
        # the config, not the parser, owns the set of gate widths and its
        # allow_any_gate switch
        assert run(["report", "--gate", "40", "--out", str(tmp_path / "out")]) == 2
        assert "allow_any_gate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        cfg = tmp_path / "any.cfg"
        cfg.write_text(_with_entry("detector", "allow_any_gate", "true"))
        out = tmp_path / "out"
        assert run(["report", "--config", str(cfg), "--gate", "40", "--out", str(out)]) == 0
        bundle = json.loads((out / "report.json").read_text())
        assert bundle["config_hash"] == config_hash(
            with_overrides(parse_config(cfg.read_text()), detector_gate_width=40.0)
        )

    @pytest.mark.parametrize(
        "command, out",
        [
            (["report"], "file"),
            (["report"], "file/sub"),
            (["fit", "dir"], "out"),
        ],
        ids=["out_is_a_file", "out_below_a_file", "data_is_a_directory"],
    )
    def test_file_error_rejected(self, command, out, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("kept\n")
        (tmp_path / "dir").mkdir()
        assert run([*command, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("validation error: ")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
        assert (tmp_path / "file").read_text() == "kept\n"
        assert not any((tmp_path / "dir").iterdir())

    def test_validity_bound_message_is_short(self, tmp_path, capsys):
        assert run(["simulate", "--mu", "1e308", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        # one line that names the keys setting the rate, and no more
        assert "validity bound" in err and "source_mean_photon_number" in err
        assert len(err) < 250 and "\n" not in err.strip()
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_fit_nan_row_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("P_p_W,eta_ext\n0.1,0.05\n0.2,nan\n0.3,0.15\n")
        assert run(["fit", str(data), "--out", str(tmp_path)]) == 2
        assert "eta_ext values must be finite" in capsys.readouterr().err

    def test_fit_header_only_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("P_p_W,eta_ext\n")
        assert run(["fit", str(data), "--out", str(tmp_path / "out")]) == 2
        assert "no data rows" in capsys.readouterr().err

    def test_reference_product_underflow_rejected(self, tmp_path, capsys):
        # 1e-200 ns * 1e-200 nm is 0 in floating point; alpha_unit divides by it
        text = _with_entry("noise", "reference_gate", "1e-200 ns")
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(_with_entry("noise", "reference_bandwidth", "1e-200 nm", text))
        assert run(["report", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "noise_reference_gate" in err and "noise_reference_bandwidth" in err
        assert "division" not in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_gate_longer_than_period_rejected(self, tmp_path, capsys):
        # 20 MHz is a 50 ns period, shorter than a 100 ns gate
        text = _with_entry("source", "repetition_rate", "20.0 MHz")
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(_with_entry("detector", "gate_width", "100.0 ns", text))
        assert run(["report", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "source_repetition_rate" in err and "detector_gate_width" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mu", ["0", "1e-320"])
    def test_report_without_signal_rejected(self, mu, tmp_path, capsys):
        # the SNR rows divide by the peak SNR, which is 0 without signal; a
        # subnormal signal mean has too few digits to place the peak
        assert run(["report", "--mu", mu, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "source_mean_photon_number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @given(log_fraction=st.floats(-15.0, 0.0, exclude_max=True))
    @settings(max_examples=10, deadline=None)
    def test_subnormal_signal_rejected(self, log_fraction):
        # a mu whose signal mean is below the smallest normal float at every
        # pump power of 1-600 mW: each command that reads mu exits 2, prints
        # nothing and creates no output directory
        mu = sys.float_info.min / _PEAK_SIGNAL_PER_MU * 10.0**log_fraction
        for command in (["report"], ["sweep", "--preset", "fig3a"], ["sweep", "--preset", "fig3b"]):
            with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()) as err, \
                    redirect_stdout(io.StringIO()) as out:
                assert run([*command, "--mu", repr(mu), "--out", f"{tmp}/out"]) == 2
                assert not Path(tmp, "out").exists()
            assert "source_mean_photon_number" in err.getvalue()
            assert out.getvalue() == ""

    @pytest.mark.parametrize("command", [["report"], ["sweep", "--preset", "fig3a"],
                                         ["sweep", "--preset", "fig3b"]])
    def test_underflowed_mu_rejected(self, command, tmp_path, capsys):
        # 5e-324 times the chain efficiency underflows to a signal mean of
        # exactly 0, which fig3a wrote as p_net = 0 and fig3b as snr_dc = 0
        assert run([*command, "--mu", "5e-324", "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "source_mean_photon_number" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_report_tiny_signal_is_the_small_signal_limit(self, tmp_path):
        # the SNR is linear in mu_in there, so the SNR rows are those of any
        # small mu_in
        for mu in ("1e-6", "1e-300"):
            assert run(["report", "--mu", mu, "--out", str(tmp_path / mu)]) == 0
        assert (tmp_path / "1e-300" / "report.txt").read_text() == (
            tmp_path / "1e-6" / "report.txt"
        ).read_text()

    def test_simulate_without_noise_click_fails(self, tmp_path, capsys):
        # one shot leaves the input-blocked lane without a click: p_N = 0
        assert run(["simulate", "--shots", "1", "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "SNR undefined" in captured.err
        assert not (tmp_path / "out").exists()

    def test_seed_past_the_philox_key_rejected(self, tmp_path, capsys):
        seed = str(1 << 128)
        assert run(["simulate", "--seed", seed, "--out", str(tmp_path / "out")]) == 2
        assert "montecarlo_seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command", [["report"], ["sweep", "--preset", "fig4a"], ["sweep", "--preset", "fig5a"]]
    )
    def test_zero_pump_rejected(self, command, tmp_path, capsys):
        # pump_power = 0 is a valid config (simulate takes it), but these
        # commands report mu_1, which divides by the converted signal
        assert run([*command, "--pump-mw", "0", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "pump_power" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "coupling, fields",
        [
            ("0", ["losses_input_coupling"]),
            # max_external_efficiency = 0.25 through 0.2 coupling: eta_int > 1
            ("0.2", ["waveguide_max_external_efficiency", "losses_input_coupling"]),
        ],
        ids=["zero", "below_eta_ext_max"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["report"],
            ["simulate"],
            ["fit", "data.csv"],
            ["sweep", "--preset", "fig3a"],
            ["sweep", "--preset", "fig3b"],
            ["sweep", "--preset", "fig4a"],
            ["sweep", "--preset", "fig5a"],
        ],
        ids=["report", "simulate", "fit", "fig3a", "fig3b", "fig4a", "fig5a"],
    )
    def test_input_coupling_rejected(self, command, coupling, fields, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("P_p_W,eta_ext\n0.1,0.05\n0.2,0.1\n0.3,0.15\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(REFERENCE_CONFIG.replace("coupling = 0.61", f"coupling = {coupling}"))
        assert run([*command, "--config", str(cfg), "--out", "out"]) == 2
        err = capsys.readouterr().err
        for field in fields:
            assert field in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (FitConvergenceError("no convergence"), 3,
             "numerical failure"),
            (ZeroDivisionError("float division by zero"), 3, "numerical failure"),
            (DegenerateDenominatorError("zero denominator"), 3, "numerical failure"),
            (OverflowError("math range error"), 3, "numerical failure"),
            (ArithmeticError("t quantile did not converge"), 3, "numerical failure"),
            (ValueError("bad value"), 2, "validation error"),
        ],
        ids=["FitConvergenceError", "ZeroDivisionError", "DegenerateDenominatorError",
             "OverflowError", "ArithmeticError", "ValueError"],
    )
    def test_fit_failure_exit_code(self, error, code, prefix, tmp_path, monkeypatch, capsys):
        from qfcsim import fitting

        def failing_fit(*args, **kwargs):
            raise error

        # the fitting core, which the command calls in place of fit_conversion
        monkeypatch.setattr(fitting, "_conversion_values", failing_fit)
        data = tmp_path / "data.csv"
        data.write_text("P_p_W,eta_ext\n0.1,0.05\n0.2,0.1\n0.3,0.15\n")
        assert run(["fit", str(data), "--out", str(tmp_path / "out")]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{prefix}: {error}\n"
        assert not (tmp_path / "out").exists()

    def test_warning_raised_as_error_is_a_validation_error(self, tmp_path, capsys):
        # under python -W error the ill-conditioned fit's UserWarning ended
        # the process in a traceback, exit 1
        data = tmp_path / "lin.csv"
        data.write_text("P_p_W,eta_ext\n0.01,0.001\n0.02,0.002\n0.03,0.003\n0.04,0.004\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["fit", str(data), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("validation error: conversion fit is ill-conditioned")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_fit_huge_efficiencies_fail(self, tmp_path, capsys):
        # an eta_ext column all at 1e300 gave NaN estimates and exit 0
        data = tmp_path / "data.csv"
        data.write_text("P_p_W,eta_ext\n" + "".join(f"{p},1e300\n" for p in (0.1, 0.2, 0.3, 0.4)))
        assert run(["fit", str(data), "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: conversion fit gave non-finite estimates\n"
        assert not (tmp_path / "out").exists()

    def _run_with_entry(self, argv, section, key, raw, tmp_path, monkeypatch, capsys):
        """(exit code, stderr) of a command on the reference with one entry
        replaced; a failing command prints nothing and writes nothing."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("P_p_W,eta_ext\n0.1,0.05\n0.2,0.1\n0.3,0.15\n")
        (tmp_path / "edited.cfg").write_text(_with_entry(section, key, raw))
        code = run([*argv, "--config", "edited.cfg", "--out", "out"])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not (tmp_path / "out").exists()
        return code, captured.err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subnormal_pulse_fwhm_rejected(self, command, tmp_path, monkeypatch, capsys):
        # its sigma underflowed to 0, and beta_factor divided by it while the
        # config was parsed: exit 3, "float division by zero"
        code, err = self._run_with_entry(COMMANDS[command], "source", "pulse_fwhm", "5e-324 ns",
                                         tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("validation error: invalid configuration: pulse FWHM must be in [")
        assert err.endswith(", got 5e-324\n")

    @pytest.mark.parametrize("command, length, where", [
        ("report", "1e+300", "and normalized efficiency"),  # optics.optimal_pump_power
        ("fit", "1e+300", "puts L^2"),  # the fitting core's start value
        ("fit", "1e-300", "puts L^2"),  # L^2 underflowed to 0: "float division by zero"
    ])
    def test_waveguide_length_out_of_float_range_named(self, command, length, where, tmp_path,
                                                       monkeypatch, capsys):
        # length_cm**2 raised OverflowError "(34, 'Numerical result out of range')"
        code, err = self._run_with_entry(COMMANDS[command], "waveguide", "length",
                                         f"{length} cm", tmp_path, monkeypatch, capsys)
        assert code == 3
        assert err.startswith(f"numerical failure: the waveguide length ({length} cm) ")
        assert where in err

    def test_overflowing_dead_time_named(self, tmp_path, monkeypatch, capsys):
        # ExperimentScenario.dead_gates' math.ceil(inf) said only "cannot
        # convert float infinity to integer"
        code, err = self._run_with_entry(["simulate", "--shots", "2000"], "detector", "dead_time",
                                         f"{sys.float_info.max!r} us", tmp_path, monkeypatch,
                                         capsys)
        assert code == 3
        assert err == ("numerical failure: the detector dead time (1.79769e+308 us) spans more "
                       "gate periods than a float holds\n")

    def test_report_success(self, tmp_path, capsys):
        assert run(["report", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "eta_tot_max" in out
        line = next(ln for ln in out.splitlines() if ln.startswith("eta_tot_max"))
        assert "PASS" in line


class TestExtremeValues:
    """Every command on every float config key at each extreme magnitude,
    and ``fit`` on datasets of extreme magnitudes: a run exits 0, 2 or 3,
    raises nothing, leaves no output directory when it fails, and writes
    no NaN or infinity when it succeeds."""

    NONFINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

    def test_no_traceback_and_no_nonfinite_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("P_p_W,eta_ext\n0.1,0.05\n0.2,0.1\n0.3,0.15\n")
        commands = {**COMMANDS, "simulate": ["simulate", "--shots", "2000"]}
        runs = []
        for section, key, raw in EXTREME_CASES:
            cfg = tmp_path / f"{section}_{key}_{raw.split()[0]}.cfg"
            cfg.write_text(_with_entry(section, key, raw))
            runs += [(f"{name} {section}_{key} = {raw}", [*argv, "--config", str(cfg)])
                     for name, argv in commands.items()]
        for i, columns in enumerate(EXTREME_DATASETS):
            path = tmp_path / f"data{i}.csv"
            names, values = zip(*columns) if columns else ((), ())
            rows = [",".join(names), *(",".join(map(repr, row)) for row in zip(*values))]
            path.write_text("\n".join(rows) + "\n")
            runs.append((f"fit {path.name} ({', '.join(names)})", ["fit", str(path)]))

        violations = []
        for i, (label, argv) in enumerate(runs):
            out = tmp_path / f"out{i}"
            violations += [f"{label}: {v}" for v in self._violations([*argv, "--out", str(out)], out)]
        assert not violations, "\n".join(violations)

    def test_random_key_combinations(self, tmp_path, monkeypatch):
        # three float keys at once, each scaled from the reference by
        # 10^U(-40, 40): combinations that no single-key extreme reaches
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("P_p_W,eta_ext\n0.1,0.05\n0.2,0.1\n0.3,0.15\n")
        commands = {**COMMANDS, "simulate": ["simulate", "--shots", "2000"]}
        reference = _values(parse_config(REFERENCE_CONFIG))
        keys = [(s, k, kind) for s, keys in _SCHEMA.items() for k, (kind, _) in keys.items()
                if kind not in ("int", "bool")]
        rng = random.Random(7)
        violations = []
        for i in range(RANDOM_SCENARIOS):
            document, entries = REFERENCE_CONFIG, []
            for section, key, kind in rng.sample(keys, 3):
                value = reference[(section, key)] * 10.0 ** rng.uniform(-40.0, 40.0)
                raw = repr(value) if kind is None else f"{value!r} {kind}"
                document = _with_entry(section, key, raw, document)
                entries.append(f"{section}_{key} = {raw}")
            cfg = tmp_path / f"scenario{i}.cfg"
            cfg.write_text(document)
            for name, argv in commands.items():
                out = tmp_path / f"out{i}_{name}"
                violations += [f"{name} {', '.join(entries)}: {v}" for v in
                               self._violations([*argv, "--config", str(cfg), "--out", str(out)],
                                                out)]
        assert not violations, "\n".join(violations)

    @pytest.mark.parametrize("entries, names, code, named", [
        # 1/lambda_in overflows to inf: the output wavelength was 0.0 nm
        ([("source", "input_wavelength", "5e-324 nm")], list(COMMANDS), 2,
         "source_input_wavelength"),
        # the inverses round alike: the output wavelength was a division by zero
        ([("source", "input_wavelength", "1e308 nm"),
          ("pump", "wavelength", "1.0000000000000002e308 nm")], list(COMMANDS), 2,
         "pump_wavelength"),
        # no click with the input blocked in 2000 gates
        ([("pump", "power", "3.0e-27 mW"), ("detector", "dark_rate", "1.37e-41 /ns")],
         ["simulate"], 3, "detector_dark_rate"),
        # 2.71 expected clicks per gate, past the model's validity bound
        ([("source", "mean_photon_number", "1000")], ["simulate"], 2,
         "source_mean_photon_number"),
        # no noise at all: the unsubtracted SNR divides by p_N = 0
        ([("noise", "alpha_detected", "0.0 /mW"), ("detector", "dark_rate", "0.0 /ns")],
         ["report", "sweep_fig3b"], 3, "noise_alpha_detected"),
    ], ids=["subnormal_input_wavelength", "equal_inverse_wavelengths", "no_blocked_click",
            "past_validity_bound", "zero_noise"])
    def test_failure_names_its_keys(self, entries, names, code, named, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("P_p_W,eta_ext\n0.1,0.05\n0.2,0.1\n0.3,0.15\n")
        document = REFERENCE_CONFIG
        for section, key, raw in entries:
            document = _with_entry(section, key, raw, document)
        (tmp_path / "case.cfg").write_text(document)
        commands = {**COMMANDS, "simulate": ["simulate", "--shots", "2000"]}
        for name in names:
            with redirect_stderr(io.StringIO()) as err, redirect_stdout(io.StringIO()):
                exit_code = run([*commands[name], "--config", "case.cfg", "--out", "out"])
            assert exit_code == code, (name, err.getvalue())
            assert named in err.getvalue() and "\n" not in err.getvalue().strip()
            assert not (tmp_path / "out").exists()

    def _violations(self, argv, out) -> list[str]:
        with redirect_stderr(io.StringIO()) as err, redirect_stdout(io.StringIO()) as stdout, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = run(argv)
            except Exception as exc:  # the traceback a process would end in
                return [f"raised {type(exc).__name__}: {exc}"]
        found = []
        if code not in (0, 2, 3):
            found.append(f"exit {code}")
        if "Traceback" in err.getvalue():
            found.append("traceback on stderr")
        if code == 3 and err.getvalue().strip().removeprefix("numerical failure: ") in \
                _BARE_ARITHMETIC:
            found.append(f"bare arithmetic text {err.getvalue().strip()!r}")
        if code != 0 and out.exists():
            found.append(f"exit {code} created {out.name}")
        if code == 0:
            texts = {"stdout": stdout.getvalue(), **{p.name: p.read_text() for p in out.iterdir()}}
            found += [f"{name} holds {m.group()}" for name, text in texts.items()
                      if (m := self.NONFINITE.search(text))]
        return found


class TestCliOutputs:
    def test_simulate_deterministic_csv(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--out", str(d1), "--shots", "30000"]) == 0
        assert run(["simulate", "--out", str(d2), "--shots", "30000"]) == 0
        assert (d1 / "simulate.csv").read_bytes() == (d2 / "simulate.csv").read_bytes()
        assert (d1 / "simulate.json").read_bytes() == (d2 / "simulate.json").read_bytes()

    def test_simulate_seed_changes_output(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--out", str(d1), "--shots", "30000", "--seed", "1"])
        run(["simulate", "--out", str(d2), "--shots", "30000", "--seed", "2"])
        assert (d1 / "simulate.csv").read_bytes() != (d2 / "simulate.csv").read_bytes()

    def test_fig3b_schema(self, tmp_path, capsys):
        assert run(["sweep", "--preset", "fig3b", "--out", str(tmp_path)]) == 0
        header = (tmp_path / "fig3b.csv").read_text().splitlines()[0]
        assert header == "P_p_mW,eta_ext,eta_ext_ci_lo,eta_ext_ci_hi,snr_dc"

    def test_bundle_metadata(self, tmp_path, capsys):
        run(["sweep", "--preset", "fig4a", "--out", str(tmp_path), "--seed", "77"])
        bundle = json.loads((tmp_path / "fig4a.json").read_text())
        assert bundle["seed"] == 77
        assert len(bundle["config_hash"]) == 64
        assert bundle["version"] == qfcsim.__version__

    def test_fig4a_tiny_pump_positive_mu1(self, tmp_path, capsys):
        # N - DC and the signal are both linear in a tiny pump: mu_1 stays finite
        assert run(["sweep", "--preset", "fig4a", "--pump-mw", "1e-300", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "fig4a.csv").read_text().splitlines()[1:]
        assert len(rows) == 12
        assert all(float(row.split(",")[1]) > 0 for row in rows)

    def test_fit_subcommand(self, tmp_path, capsys):
        import numpy as np

        from qfcsim.fitting import conversion_model

        p = np.linspace(0.02, 0.6, 15)
        y = conversion_model(p, 0.25, 0.72, 3.0)
        data = tmp_path / "data.csv"
        data.write_text(
            "P_p_W,eta_ext\n"
            + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(p, y))
            + "\n"
        )
        assert run(["fit", str(data), "--out", str(tmp_path)]) == 0
        bundle = json.loads((tmp_path / "fit.json").read_text())
        assert bundle["params"]["eta_ext_max"] == pytest.approx(0.25, rel=1e-6)
        assert bundle["params"]["eta_n"] == pytest.approx(0.72, rel=1e-6)

    def test_flag_overrides_reach_the_chain(self, tmp_path, capsys):
        run(["sweep", "--preset", "fig3a", "--out", str(tmp_path), "--mu", "1.0"])
        b1 = (tmp_path / "fig3a.csv").read_text()
        run(["sweep", "--preset", "fig3a", "--out", str(tmp_path), "--mu", "2.0"])
        b2 = (tmp_path / "fig3a.csv").read_text()
        assert b1 != b2


def _run_quietly(argv: list[str]) -> tuple[int, str, list[str]]:
    """(exit code, stderr, warning messages) of one CLI run."""
    with redirect_stderr(io.StringIO()) as err, redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


def _fit_quietly(data, length_cm: float):
    """fit_conversion's result or exception, and its warning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fit_conversion(data, length_cm)
        except (FitConvergenceError, ValueError) as exc:
            result = exc
    return result, [str(w.message) for w in caught]


class TestFitCliParity:
    """``qfcsim fit`` and ``fit_conversion(Dataset(...))`` share one fitting
    core: the same values, the same flag, the same rejections."""

    LENGTH_CM = parse_config(REFERENCE_CONFIG).chain.waveguide.length_cm

    @given(
        n=st.integers(3, 40),
        linear=st.booleans(),
        weighted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_values_match(self, n, linear, weighted, seed):
        import numpy as np

        from qfcsim.cli import _rounded
        from qfcsim.fitting import Dataset, conversion_model

        # unsorted powers spanning the peak, or all far below it
        rng = np.random.default_rng(seed)
        hi_w = 0.02 if linear else 0.6
        p = rng.uniform(hi_w / 20.0, hi_w, n)
        y = np.asarray(conversion_model(p, 0.25, 0.72, 3.0)) * (1.0 + 0.05 * rng.standard_normal(n))
        sigma = 0.05 * y * rng.uniform(0.5, 2.0, n) if weighted else None
        columns = [p, y] if sigma is None else [p, y, sigma]
        header = "P_p_W,eta_ext" + (",sigma" if weighted else "")
        lines = [header] + [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_text("\n".join(lines) + "\n")
            code, err, cli_warnings = _run_quietly(["fit", str(path), "--out", f"{tmp}/out"])
            bundle = json.loads((Path(tmp) / "out" / "fit.json").read_text()) if code == 0 else None
        data = Dataset(x=p, y=y, sigma=sigma, xlabel="P_p_W", ylabel="eta_ext")
        fit, lib_warnings = _fit_quietly(data, self.LENGTH_CM)
        assert cli_warnings == lib_warnings
        if isinstance(fit, FitConvergenceError):
            assert (code, err) == (3, f"numerical failure: {fit}\n")
            return
        if isinstance(fit, ValueError):
            assert (code, err) == (2, f"validation error: {fit}\n")
            return
        assert code == 0, err
        names = fit.param_names
        assert bundle["params"] == dict(zip(names, map(_rounded, fit.params)))
        assert bundle["ci95"] == dict(zip(names, map(_rounded, fit.ci95)))
        assert bundle["rss"] == _rounded(fit.rss)
        assert bundle["dof"] == fit.dof == n - 2
        assert bundle["ill_conditioned"] is fit.ill_conditioned
        for key in ("total_normalized_per_w", "total_normalized_ci95"):
            assert bundle[key] == _rounded(fit.extras[key])

    ROWS = [(0.1, 0.05, 0.01), (0.3, 0.15, 0.01), (0.2, 0.1, 0.01), (0.4, 0.2, 0.01)]

    @pytest.mark.parametrize("kind, weighted", [
        ("nan", False), ("nan", True), ("duplicate_x", False), ("duplicate_x", True),
        ("sigma_not_positive", True), ("ragged", False), ("ragged", True),
    ])
    def test_bad_rows_rejected_alike(self, kind, weighted, tmp_path):
        from qfcsim.fitting import Dataset

        rows = [list(r[:3] if weighted else r[:2]) for r in self.ROWS]
        if kind == "nan":
            rows[1][1] = float("nan")
        elif kind == "duplicate_x":
            rows[2][0] = rows[0][0]
        elif kind == "sigma_not_positive":
            rows[3][2] = 0.0
        cells = [[repr(v) for v in row] for row in rows]
        if kind == "ragged":
            cells[2].pop()
        header = "P_p_W,eta_ext" + (",sigma" if weighted else "")
        path = tmp_path / "data.csv"
        path.write_text("\n".join([header] + [",".join(c) for c in cells]) + "\n")
        code, err, _ = _run_quietly(["fit", str(path), "--out", str(tmp_path / "out")])

        # the library gets the same columns; a short row shortens its last one
        columns = [[float(c[j]) for c in cells if j < len(c)] for j in range(len(cells[0]))]
        with pytest.raises(ValueError) as exc:
            fit_conversion(Dataset(*columns[:2], columns[2] if weighted else None,
                                   xlabel="P_p_W", ylabel="eta_ext"), self.LENGTH_CM)
        assert (code, err) == (2, f"validation error: {exc.value}\n")
        assert not (tmp_path / "out").exists()
