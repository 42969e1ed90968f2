"""Plain-text scenario configuration: parsing, validation, serialization.

The format is a sectioned key = value document.  Dimensioned quantities
carry a mandatory unit suffix (``pulse_fwhm = 30 ns``); dimensionless
ones are bare numbers.  Unknown sections or keys are rejected, as are
missing required keys; every parse error carries the line number.

A parsed document is an ``ExperimentScenario`` and nothing more: each
key's ``_SCHEMA`` row names the record field it lands in, and the records
are built from those rows.  ``serialize`` reads the values back from the
same fields and emits a canonical form (fixed section and key order, one
space around ``=``), so serialize(parse(text)) normalizes whitespace
only and a second round-trip is a fixed point.  ``config_hash`` is the
SHA-256 of that canonical form and is stamped into report metadata.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from importlib import resources
from operator import attrgetter

from .chain import ConversionChain, ExperimentScenario
from .noise import DetectorConfig, FilterStage, NoiseModel
from .optics import ElementTransmissions, GaussianPulse, LossBudget, WaveguideParams

__all__ = [
    "ConfigError",
    "parse_config",
    "load_config",
    "with_overrides",
    "serialize",
    "config_hash",
    "REFERENCE_CONFIG",
    "reference_chain",
]


class ConfigError(ValueError):
    """Malformed or invalid configuration document."""


# Each key is (kind, path).  Kinds: float with unit suffix (the suffix
# string), bare float (None), "int" or "bool".  The path is the dotted one
# from the scenario to the record field that holds the value.
_FLOAT = None
_SCHEMA: dict[str, dict[str, tuple[object, str]]] = {
    "source": {
        "input_wavelength": ("nm", "chain.input_wavelength_nm"),
        "pulse_fwhm": ("ns", "chain.pulse.fwhm_ns"),
        "mean_photon_number": (_FLOAT, "mu_in"),
        "repetition_rate": ("MHz", "chain.repetition_rate_mhz"),
    },
    "pump": {
        "wavelength": ("nm", "chain.pump_wavelength_nm"),
        "power": ("mW", "pump_mw"),
    },
    "waveguide": {
        "length": ("cm", "chain.waveguide.length_cm"),
        "normalized_efficiency": ("/W/cm^2", "chain.waveguide.normalized_efficiency"),
        "max_external_efficiency": (_FLOAT, "chain.waveguide.max_external_efficiency"),
    },
    "losses_input": {
        "input_lens": (_FLOAT, "chain.budget.signal.input_lens"),
        "coupling": (_FLOAT, "chain.budget.signal.coupling"),
        "propagation": (_FLOAT, "chain.budget.signal.propagation"),
        "output_lens": (_FLOAT, "chain.budget.signal.output_lens"),
    },
    "losses_pump": {
        "input_lens": (_FLOAT, "chain.budget.pump.input_lens"),
        "coupling": (_FLOAT, "chain.budget.pump.coupling"),
        "propagation": (_FLOAT, "chain.budget.pump.propagation"),
        "output_lens": (_FLOAT, "chain.budget.pump.output_lens"),
    },
    "filter": {
        "bandwidth": ("nm", "chain.filter_stage.bandwidth_nm"),
        "fiber_coupling": (_FLOAT, "chain.filter_stage.fiber_coupling"),
        "grating": (_FLOAT, "chain.filter_stage.grating"),
        "bandpass_longpass": (_FLOAT, "chain.filter_stage.bandpass_longpass"),
        "total_transmission": (_FLOAT, "chain.filter_stage.total_transmission"),
        "allow_extrapolation": ("bool", "chain.filter_stage.allow_extrapolation"),
    },
    "detector": {
        "gate_width": ("ns", "chain.detector.gate_width_ns"),
        "efficiency": (_FLOAT, "chain.detector.efficiency"),
        "dark_rate": ("/ns", "chain.detector.dark_rate_per_ns"),
        "dead_time": ("us", "chain.detector.dead_time_us"),
        "allow_any_gate": ("bool", "chain.detector.allow_any_gate"),
    },
    "noise": {
        "alpha_detected": ("/mW", "chain.noise.alpha_detected_per_mw"),
        "alpha_crystal": ("/mW/ns", "chain.noise.alpha_crystal_per_mw_ns"),
        "reference_bandwidth": ("nm", "chain.noise.reference_bandwidth_nm"),
        "reference_gate": ("ns", "chain.noise.reference_gate_ns"),
    },
    "montecarlo": {
        "shots": ("int", "n_shots"),
        "seed": ("int", "seed"),
    },
}

# (section, key) -> the getter of its value from a scenario, and record
# path -> [(field, (section, key))] of the values that build that record
_GETTERS = {}
_RECORDS: dict[str, list[tuple[str, tuple[str, str]]]] = {}
for _section, _keys in _SCHEMA.items():
    for _key, (_, _path) in _keys.items():
        _GETTERS[(_section, _key)] = attrgetter(_path)
        _record, _, _field = _path.rpartition(".")
        _RECORDS.setdefault(_record, []).append((_field, (_section, _key)))

# Everything except these two defaults to the reference apparatus.
_REQUIRED: frozenset[tuple[str, str]] = frozenset(
    {("pump", "power"), ("source", "mean_photon_number")}
)


def _qualified(section: str, key: str) -> str:
    return f"{section}_{key}"


def _coerce(name: str, kind: object, value):
    """``value`` as a key of ``kind`` holds it, from a document entry or an
    override alike: a bool key takes a bool, an int key an integral value
    that is no bool, a float key a finite real."""
    if kind == "bool":
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{name} expects true or false, got {value!r}")
    if kind == "int":
        if isinstance(value, numbers.Integral) and not isinstance(value, bool):
            return int(value)
        raise ConfigError(f"{name} expects an integer, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} expects a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if math.isfinite(number):  # the records reject NaN too, but this message names the key
        return number
    raise ConfigError(f"{name} must be finite, got {value!r}")


def _parse_value(raw: str, kind: object, name: str):
    """A document entry's value: its unit suffix checked, its number read as
    the literal of ``kind``.  A token that is no such literal passes on as
    text, for ``_coerce`` to reject."""
    token = raw
    if kind not in ("bool", "int"):
        parts = raw.split()
        if kind is _FLOAT and len(parts) != 1:
            raise ConfigError(f"{name} is dimensionless, got {raw!r}")
        if kind is not _FLOAT and (len(parts) != 2 or parts[1] != kind):
            raise ConfigError(f"{name} requires the unit suffix '{kind}', got {raw!r}")
        token = parts[0]
    try:
        if kind == "bool":
            return {"true": True, "false": False}[token.lower()]
        return int(token) if kind == "int" else float(token)
    except (KeyError, ValueError):
        return token


def _parse_values(text: str) -> dict[tuple[str, str], object]:
    """(section, key) -> value for every entry of a document, no defaults."""
    values: dict[tuple[str, str], object] = {}
    section: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            if stripped.startswith("[") and stripped.endswith("]"):
                section = stripped[1:-1].strip()
                if section not in _SCHEMA:
                    raise ConfigError(f"unknown section [{section}]")
                continue
            if "=" not in stripped:
                raise ConfigError(f"expected 'key = value', got {stripped!r}")
            if section is None:
                raise ConfigError("key outside any section")
            key, raw = (s.strip() for s in stripped.split("=", 1))
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, kind = _qualified(section, key), _SCHEMA[section][key][0]
            if (section, key) in values:
                raise ConfigError(f"duplicate key {name}")
            values[(section, key)] = _coerce(name, kind, _parse_value(raw, kind, name))
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return values


def parse_config(text: str) -> ExperimentScenario:
    """Parse and validate a scenario document, applying defaults."""
    values = _parse_values(text)
    for sk in _REQUIRED:
        if sk not in values:
            raise ConfigError(f"missing required key: {_qualified(*sk)}")
    for sk, default in _DEFAULTS.items():
        values.setdefault(sk, default)

    return _build(values)


def _build(values: dict[tuple[str, str], object]) -> ExperimentScenario:
    def fields(record: str) -> dict[str, object]:
        return {field: values[sk] for field, sk in _RECORDS[record]}

    try:
        chain = ConversionChain(
            pulse=GaussianPulse(**fields("chain.pulse")),
            waveguide=WaveguideParams(**fields("chain.waveguide")),
            budget=LossBudget(signal=ElementTransmissions(**fields("chain.budget.signal")),
                              pump=ElementTransmissions(**fields("chain.budget.pump"))),
            filter_stage=FilterStage(**fields("chain.filter_stage")),
            detector=DetectorConfig(**fields("chain.detector")),
            noise=NoiseModel(**fields("chain.noise")),
            **fields("chain"),
        )
        return ExperimentScenario(chain=chain, **fields(""))
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _values(scenario: ExperimentScenario) -> dict[tuple[str, str], object]:
    """(section, key) -> value of every config key, read from the records."""
    return {sk: get(scenario) for sk, get in _GETTERS.items()}


def with_overrides(scenario: ExperimentScenario, **overrides) -> ExperimentScenario:
    """Rebuild a scenario with (section, key) entries replaced.

    Override names are the qualified ``section_key`` forms, e.g.
    ``pump_power=400.0`` or ``detector_gate_width=50.0``.
    """
    values = _values(scenario)
    known = {_qualified(*sk): sk for sk in values}
    for name, value in overrides.items():
        if name not in known:
            raise ConfigError(f"unknown override {name!r}")
        section, key = known[name]
        values[(section, key)] = _coerce(name, _SCHEMA[section][key][0], value)
    return _build(values)


def load_config(path) -> ExperimentScenario:
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


def serialize(scenario: ExperimentScenario) -> str:
    """Canonical text form: schema section and key order, every key included."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (kind, _) in keys.items():
            lines.append(f"{key} = {_format_value(_GETTERS[(section, key)](scenario), kind)}")
        lines.append("")
    return "\n".join(lines)


def config_hash(scenario: ExperimentScenario) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return hashlib.sha256(serialize(scenario).encode("utf-8")).hexdigest()


# Reference apparatus document, shipped with the package: the only place
# the apparatus values are written down.
REFERENCE_CONFIG = (
    resources.files("qfcsim.data").joinpath("reference.cfg").read_text("utf-8")
)
_DEFAULTS: dict[tuple[str, str], object] = {
    sk: v for sk, v in _parse_values(REFERENCE_CONFIG).items() if sk not in _REQUIRED
}


def reference_chain() -> ConversionChain:
    """Chain with the published apparatus values of ``data/reference.cfg``."""
    return parse_config(REFERENCE_CONFIG).chain
