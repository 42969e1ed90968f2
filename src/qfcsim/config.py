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
from dataclasses import dataclass
from importlib import resources

from .chain import ConversionChain
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


# value kinds: float with unit suffix (the suffix string), bare float
# (None), "int" or "bool"
_FLOAT = None
_SCHEMA: dict[str, dict[str, object]] = {
    "source": {
        "input_wavelength": "nm",
        "pulse_fwhm": "ns",
        "mean_photon_number": _FLOAT,
        "repetition_rate": "MHz",
    },
    "pump": {
        "wavelength": "nm",
        "power": "mW",
    },
    "waveguide": {
        "length": "cm",
        "normalized_efficiency": "/W/cm^2",
        "max_external_efficiency": _FLOAT,
    },
    "losses_input": {
        "input_lens": _FLOAT,
        "coupling": _FLOAT,
        "propagation": _FLOAT,
        "output_lens": _FLOAT,
    },
    "losses_pump": {
        "input_lens": _FLOAT,
        "coupling": _FLOAT,
        "propagation": _FLOAT,
        "output_lens": _FLOAT,
    },
    "filter": {
        "bandwidth": "nm",
        "fiber_coupling": _FLOAT,
        "grating": _FLOAT,
        "bandpass_longpass": _FLOAT,
        "total_transmission": _FLOAT,
        "allow_extrapolation": "bool",
    },
    "detector": {
        "gate_width": "ns",
        "efficiency": _FLOAT,
        "dark_rate": "/ns",
        "dead_time": "us",
        "allow_any_gate": "bool",
    },
    "noise": {
        "alpha_detected": "/mW",
        "alpha_crystal": "/mW/ns",
        "reference_bandwidth": "nm",
        "reference_gate": "ns",
    },
    "montecarlo": {
        "shots": "int",
        "seed": "int",
    },
}

# Everything except these two defaults to the reference apparatus.
_REQUIRED: frozenset[tuple[str, str]] = frozenset(
    {("pump", "power"), ("source", "mean_photon_number")}
)

@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: the chain plus source and simulation settings."""

    chain: ConversionChain
    mu_in: float
    pump_mw: float
    shots: int
    seed: int
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
            raw, _SCHEMA[section][key], section, key, lineno
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
    v = values

    def get(section: str, key: str):
        return v[(section, key)]

    try:
        chain = ConversionChain(
            input_wavelength_nm=get("source", "input_wavelength"),
            pump_wavelength_nm=get("pump", "wavelength"),
            pulse=GaussianPulse(fwhm_ns=get("source", "pulse_fwhm")),
            waveguide=WaveguideParams(
                length_cm=get("waveguide", "length"),
                normalized_efficiency=get("waveguide", "normalized_efficiency"),
                max_external_efficiency=get("waveguide", "max_external_efficiency"),
            ),
            budget=LossBudget(
                signal=ElementTransmissions(
                    input_lens=get("losses_input", "input_lens"),
                    coupling=get("losses_input", "coupling"),
                    propagation=get("losses_input", "propagation"),
                    output_lens=get("losses_input", "output_lens"),
                ),
                pump=ElementTransmissions(
                    input_lens=get("losses_pump", "input_lens"),
                    coupling=get("losses_pump", "coupling"),
                    propagation=get("losses_pump", "propagation"),
                    output_lens=get("losses_pump", "output_lens"),
                ),
            ),
            filter_stage=FilterStage(
                bandwidth_nm=get("filter", "bandwidth"),
                fiber_coupling=get("filter", "fiber_coupling"),
                grating=get("filter", "grating"),
                bandpass_longpass=get("filter", "bandpass_longpass"),
                total_transmission=get("filter", "total_transmission"),
                allow_extrapolation=get("filter", "allow_extrapolation"),
            ),
            detector=DetectorConfig(
                gate_width_ns=get("detector", "gate_width"),
                efficiency=get("detector", "efficiency"),
                dark_rate_per_ns=get("detector", "dark_rate"),
                dead_time_us=get("detector", "dead_time"),
                allow_any_gate=get("detector", "allow_any_gate"),
            ),
            noise=NoiseModel(
                alpha_detected_per_mw=get("noise", "alpha_detected"),
                alpha_crystal_per_mw_ns=get("noise", "alpha_crystal"),
                reference_bandwidth_nm=get("noise", "reference_bandwidth"),
                reference_gate_ns=get("noise", "reference_gate"),
            ),
            repetition_rate_mhz=get("source", "repetition_rate"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc

    shots = get("montecarlo", "shots")
    seed = get("montecarlo", "seed")
    if shots <= 0:
        raise ConfigError("montecarlo_shots must be positive")
    if seed < 0:
        raise ConfigError("montecarlo_seed must be nonnegative")
    mu_in = get("source", "mean_photon_number")
    pump_mw = get("pump", "power")
    if mu_in < 0:
        raise ConfigError("source_mean_photon_number must be nonnegative")
    if pump_mw < 0:
        raise ConfigError("pump_power must be nonnegative")
    return ScenarioConfig(
        chain=chain,
        mu_in=float(mu_in),
        pump_mw=float(pump_mw),
        shots=int(shots),
        seed=int(seed),
        values=dict(values),
    )


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
        values[known[name]] = value
    return _build(values)


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
        for key, kind in keys.items():
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
