"""Plain-text scenario configuration: parsing, validation, serialization.

The format is a sectioned key = value document.  Dimensioned quantities
carry a mandatory unit suffix (``pulse_fwhm = 30 ns``); dimensionless
ones are bare numbers.  Unknown sections or keys are rejected, as are
missing required keys; every parse error carries the line number.

``serialize`` emits a canonical form (fixed section and key order, one
space around ``=``), so serialize(parse(text)) normalizes whitespace
only and a second round-trip is a fixed point.  ``config_hash`` is the
SHA-256 of that canonical form and is stamped into report metadata.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from importlib import resources

from .chain import ConversionChain, ExperimentScenario
from .noise import DetectorConfig, FilterStage, NoiseModel
from .optics import ElementTransmissions, GaussianPulse, LossBudget, WaveguideParams

__all__ = [
    "ScenarioConfig",
    "ConfigError",
    "parse_config",
    "load_config",
    "with_overrides",
    "serialize",
    "config_hash",
    "REFERENCE_CONFIG",
]


class ConfigError(ValueError):
    """Malformed or invalid configuration document."""


# Each key is (kind, argument).  Kinds: float with unit suffix (the
# suffix string), bare float (None), "int" or "bool".  The argument is the
# record field the value is passed as: the sections after [pump] are each
# one record or, for [montecarlo], the scenario's fields, built from their
# rows alone.
_FLOAT = None
_SCHEMA: dict[str, dict[str, tuple[object, str]]] = {
    "source": {
        "input_wavelength": ("nm", "input_wavelength_nm"),
        "pulse_fwhm": ("ns", "fwhm_ns"),
        "mean_photon_number": (_FLOAT, "mu_in"),
        "repetition_rate": ("MHz", "repetition_rate_mhz"),
    },
    "pump": {
        "wavelength": ("nm", "pump_wavelength_nm"),
        "power": ("mW", "pump_mw"),
    },
    "waveguide": {
        "length": ("cm", "length_cm"),
        "normalized_efficiency": ("/W/cm^2", "normalized_efficiency"),
        "max_external_efficiency": (_FLOAT, "max_external_efficiency"),
    },
    "losses_input": {
        "input_lens": (_FLOAT, "input_lens"),
        "coupling": (_FLOAT, "coupling"),
        "propagation": (_FLOAT, "propagation"),
        "output_lens": (_FLOAT, "output_lens"),
    },
    "losses_pump": {
        "input_lens": (_FLOAT, "input_lens"),
        "coupling": (_FLOAT, "coupling"),
        "propagation": (_FLOAT, "propagation"),
        "output_lens": (_FLOAT, "output_lens"),
    },
    "filter": {
        "bandwidth": ("nm", "bandwidth_nm"),
        "fiber_coupling": (_FLOAT, "fiber_coupling"),
        "grating": (_FLOAT, "grating"),
        "bandpass_longpass": (_FLOAT, "bandpass_longpass"),
        "total_transmission": (_FLOAT, "total_transmission"),
        "allow_extrapolation": ("bool", "allow_extrapolation"),
    },
    "detector": {
        "gate_width": ("ns", "gate_width_ns"),
        "efficiency": (_FLOAT, "efficiency"),
        "dark_rate": ("/ns", "dark_rate_per_ns"),
        "dead_time": ("us", "dead_time_us"),
        "allow_any_gate": ("bool", "allow_any_gate"),
    },
    "noise": {
        "alpha_detected": ("/mW", "alpha_detected_per_mw"),
        "alpha_crystal": ("/mW/ns", "alpha_crystal_per_mw_ns"),
        "reference_bandwidth": ("nm", "reference_bandwidth_nm"),
        "reference_gate": ("ns", "reference_gate_ns"),
    },
    "montecarlo": {
        "shots": ("int", "n_shots"),
        "seed": ("int", "seed"),
    },
}

# Everything except these two defaults to the reference apparatus.
_REQUIRED: frozenset[tuple[str, str]] = frozenset(
    {("pump", "power"), ("source", "mean_photon_number")}
)

class ScenarioConfig(ExperimentScenario):
    """A validated scenario and the document values it was built from."""

    values: dict  # (section, key) -> raw value, fully defaulted


def _qualified(section: str, key: str) -> str:
    return f"{section}_{key}"


def _parse_value(
    raw: str, kind: object, section: str, key: str, lineno: int
):
    name = _qualified(section, key)
    if kind == "bool":
        low = raw.strip().lower()
        if low in ("true", "false"):
            return low == "true"
        raise ConfigError(
            f"line {lineno}: {name} expects true or false, got {raw!r}"
        )
    if kind == "int":
        try:
            return int(raw.strip())
        except ValueError:
            raise ConfigError(
                f"line {lineno}: {name} expects an integer, got {raw!r}"
            ) from None
    parts = raw.strip().split()
    if kind is _FLOAT:
        if len(parts) != 1:
            raise ConfigError(
                f"line {lineno}: {name} is dimensionless, got {raw!r}"
            )
        num = parts[0]
    else:
        if len(parts) != 2 or parts[1] != kind:
            raise ConfigError(
                f"line {lineno}: {name} requires the unit suffix "
                f"'{kind}', got {raw!r}"
            )
        num = parts[0]
    try:
        return float(num)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: {name} has a non-numeric value {num!r}"
        ) from None


def _parse_values(text: str) -> dict[tuple[str, str], object]:
    """(section, key) -> value for every entry of a document, no defaults."""
    values: dict[tuple[str, str], object] = {}
    section: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {stripped!r}"
            )
        if section is None:
            raise ConfigError(
                f"line {lineno}: key outside any section"
            )
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} in section [{section}]"
            )
        if (section, key) in values:
            raise ConfigError(
                f"line {lineno}: duplicate key {_qualified(section, key)}"
            )
        values[(section, key)] = _parse_value(
            raw, _SCHEMA[section][key][0], section, key, lineno
        )
    return values


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document, applying defaults."""
    values = _parse_values(text)
    for sk in _REQUIRED:
        if sk not in values:
            raise ConfigError(f"missing required key: {_qualified(*sk)}")
    for sk, default in _DEFAULTS.items():
        values.setdefault(sk, default)

    return _build(values)


def _build(values: dict[tuple[str, str], object]) -> ScenarioConfig:
    # NaN passes every range check below, so non-finite input stops here
    for (section, key), value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{_qualified(section, key)} must be finite, got {value}")

    def fields(section: str) -> dict[str, object]:
        return {arg: values[(section, key)] for key, (_, arg) in _SCHEMA[section].items()}

    # the source and pump keys feed the chain, its pulse and the scenario,
    # which checks its own fields
    mixed = {**fields("source"), **fields("pump")}
    try:
        return ScenarioConfig(
            chain=ConversionChain(
                input_wavelength_nm=mixed["input_wavelength_nm"],
                pump_wavelength_nm=mixed["pump_wavelength_nm"],
                pulse=GaussianPulse(fwhm_ns=mixed["fwhm_ns"]),
                waveguide=WaveguideParams(**fields("waveguide")),
                budget=LossBudget(
                    signal=ElementTransmissions(**fields("losses_input")),
                    pump=ElementTransmissions(**fields("losses_pump")),
                ),
                filter_stage=FilterStage(**fields("filter")),
                detector=DetectorConfig(**fields("detector")),
                noise=NoiseModel(**fields("noise")),
                repetition_rate_mhz=mixed["repetition_rate_mhz"],
            ),
            mu_in=mixed["mu_in"],
            pump_mw=mixed["pump_mw"],
            **fields("montecarlo"),
            values=dict(values),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def with_overrides(config: ScenarioConfig, **overrides) -> ScenarioConfig:
    """Rebuild a config with (section, key) entries replaced.

    Override names are the qualified ``section_key`` forms, e.g.
    ``pump_power=400.0`` or ``detector_gate_width=50.0``.
    """
    values = dict(config.values)
    known = {_qualified(s, k): (s, k) for s in _SCHEMA for k in _SCHEMA[s]}
    for name, value in overrides.items():
        if name not in known:
            raise ConfigError(f"unknown override {name!r}")
        section, key = known[name]
        values[(section, key)] = _override_value(name, _SCHEMA[section][key][0], value)
    return _build(values)


def _override_value(name: str, kind: object, value):
    """``value`` as the type a document entry of ``kind`` parses to.  A
    bool is no number here, and an integer key takes no fraction."""
    if kind == "bool":
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{name} expects true or false, got {value!r}")
    numeric = numbers.Integral if kind == "int" else numbers.Real
    if isinstance(value, bool) or not isinstance(value, numeric):
        expected = "an integer" if kind == "int" else "a real number"
        raise ConfigError(f"{name} expects {expected}, got {value!r}")
    if kind == "int":
        return int(value)
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise ConfigError(f"{name} must be finite, got {value!r}") from None


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _format_value(value, kind) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "int":
        return str(int(value))
    num = repr(float(value))
    if kind is _FLOAT:
        return num
    return f"{num} {kind}"


def serialize(config: ScenarioConfig) -> str:
    """Canonical text form: schema section and key order, defaults included."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (kind, _) in keys.items():
            lines.append(f"{key} = {_format_value(config.values[(section, key)], kind)}")
        lines.append("")
    return "\n".join(lines)


def config_hash(config: ScenarioConfig) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return hashlib.sha256(serialize(config).encode("utf-8")).hexdigest()


# Reference apparatus document, shipped with the package: the only place
# the apparatus values are written down.
REFERENCE_CONFIG = (
    resources.files("qfcsim.data").joinpath("reference.cfg").read_text("utf-8")
)
_DEFAULTS: dict[tuple[str, str], object] = {
    sk: v for sk, v in _parse_values(REFERENCE_CONFIG).items() if sk not in _REQUIRED
}
