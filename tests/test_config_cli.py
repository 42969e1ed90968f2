"""Configuration parsing, serialization and command-line behavior."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import qfcsim
from qfcsim.chain import reference_chain
from qfcsim.config import (
    _DEFAULTS,
    _REQUIRED,
    _SCHEMA,
    REFERENCE_CONFIG,
    ConfigError,
    config_hash,
    parse_config,
    serialize,
    with_overrides,
)
from qfcsim.cli import _OVERRIDES, PRESETS, run
from qfcsim.noise import ALLOWED_GATE_WIDTHS_NS

SCHEMA_KEYS = [(section, key) for section in _SCHEMA for key in _SCHEMA[section]]

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
    (flag, choices, key, value)
    for flag, kind, choices, key in _OVERRIDES
    if kind is float
    for value in ("nan", "inf", "-inf")
]
COMMANDS = {
    "report": ["report"],
    "simulate": ["simulate"],
    "fit": ["fit", "data.csv"],
    **{f"sweep_{preset}": ["sweep", "--preset", preset] for preset in PRESETS},
}


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


def _with_entry(section: str, key: str, raw: str) -> str:
    """The reference document with one entry's value text replaced."""
    lines, current = [], None
    for line in REFERENCE_CONFIG.splitlines():
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
        value = cfg.values[(section, key)]
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
            return (c.chain, c.mu_in, c.pump_mw, c.shots, c.seed)

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


class TestSerialization:
    def test_roundtrip_fixed_point(self):
        cfg = parse_config(REFERENCE_CONFIG)
        once = serialize(cfg)
        twice = serialize(parse_config(once))
        assert once == twice

    @given(st.fixed_dictionaries(_REQUIRED_VALUES, optional=_OPTIONAL_VALUES))
    @settings(max_examples=200)
    def test_roundtrip_generated(self, entries):
        cfg = parse_config(_document(entries))
        assert all(cfg.values[sk] == v for sk, v in entries.items())
        again = parse_config(serialize(cfg))
        assert config_hash(again) == config_hash(cfg)
        assert again.values == cfg.values

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
        "flag, choices, key, value",
        FLOAT_FLAG_CASES,
        ids=[f"{flag}={value}" for flag, _, _, value in FLOAT_FLAG_CASES],
    )
    def test_nonfinite_flag_rejected(
        self, flag, choices, key, value, command, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("P_p_W,eta_ext\n0.1,0.05\n0.2,0.1\n0.3,0.15\n")
        option = "--" + flag.replace("_", "-") + "=" + value
        code = run([*COMMANDS[command], option, "--out", "out"])
        err = capsys.readouterr().err
        # a flag with a fixed set of values fails argparse's choices check,
        # a usage error; any other is a validation error naming its key
        if choices is None:
            assert code == 2
            assert key in err
        else:
            assert code == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_fit_nan_row_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("P_p_W,eta_ext\n0.1,0.05\n0.2,nan\n0.3,0.15\n")
        assert run(["fit", str(data), "--out", str(tmp_path)]) == 2
        assert "eta_ext values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("mu", ["0", "1e-300"])
    def test_report_without_signal_rejected(self, mu, tmp_path, capsys):
        # the SNR rows divide by the peak SNR, which is 0 without signal
        assert run(["report", "--mu", mu, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "source_mean_photon_number" in err
        assert "Traceback" not in err
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

    def test_report_success(self, tmp_path, capsys):
        assert run(["report", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "eta_tot_max" in out
        line = next(ln for ln in out.splitlines() if ln.startswith("eta_tot_max"))
        assert "PASS" in line


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
