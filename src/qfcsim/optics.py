"""Static optical description of the frequency converter.

Wavelength bookkeeping for difference frequency generation (DFG), the
per-element loss budget, the nested efficiency cascade and the
pump-power-dependent conversion efficiency of the nonlinear waveguide.
``conversion_model`` is the one place the sin^2 pump dependence is
written; the scalar entry points and the fit both evaluate it.

Conventions: wavelengths in nm, pump powers in W (watts) unless a name
says otherwise, waveguide length in cm, all transmissions and
efficiencies as dimensionless fractions in [0, 1].
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "check_range",
    "Record",
    "replace",
    "GaussianPulse",
    "WaveguideParams",
    "ElementTransmissions",
    "LossBudget",
    "EfficiencyCascade",
    "dfg_output_wavelength",
    "conversion_model",
    "external_efficiency",
    "conversion_fraction",
    "optimal_pump_power",
    "bandwidth_nm_to_ghz",
]

_SPEED_OF_LIGHT_M_S = 2.99792458e8

# FWHM = 2 sqrt(2 ln 2) sigma for a Gaussian
_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def check_range(name: str, value, low=0.0, high=math.inf, bounds: str = "[)") -> None:
    """Raise ``ValueError`` naming ``name`` and ``value`` unless the value lies
    between ``low`` and ``high``, closed at a "[" or "]" of ``bounds`` and open
    at a "(" or ")"; NaN lies in no interval.  Give float values float ends:
    CPython compares an int with a float more slowly."""
    if low < value < high:
        return
    if value == low and bounds[0] == "[" or value == high and bounds[1] == "]":
        return
    if (low, high, bounds[1]) == (0, math.inf, ")"):
        kind = ("nonnegative" if bounds[0] == "[" else "positive") + " and finite"
    elif (low, high, bounds) == (-math.inf, math.inf, "()"):
        kind = "finite"
    else:
        low, high = (str(end).removesuffix(".0") for end in (low, high))
        kind = f"in {bounds[0]}{low}, {high}{bounds[1]}"
    raise ValueError(f"{name} must be {kind}, got {value}")


def _equal(a, b) -> bool:
    """``a == b`` as one bool, also for field values with a ``shape``
    (numpy arrays): those are equal when their shapes and every element
    are.  An object is equal to itself, as in a tuple comparison."""
    if a is b:
        return True
    if getattr(a, "shape", ()) != getattr(b, "shape", ()):
        return False
    equal = a == b
    return equal if isinstance(equal, bool) else bool(equal.all())


class Record:
    """Base of the package's frozen records.

    A record's fields are the names annotated in its class body, after its
    bases' fields; a class-level value is that field's default.  ``_bounds``
    adds to the bases' table field -> (label, low, high, bounds) of
    ``check_range``.  Each subclass compiles one ``__init__`` with the real
    signature: it tests each bound inline, calling ``check_range`` only to
    raise, stores the fields as one new instance ``__dict__``, then calls
    ``__post_init__`` if the class has one.  Attributes derived there, set
    with ``object.__setattr__`` or into ``vars(self)``, are not fields, so
    ``==``, ``hash``, ``repr`` and ``replace`` skip them.
    """

    _fields: tuple[str, ...] = ()
    _bounds: dict[str, tuple] = {}

    def __init_subclass__(cls):
        own = [n for n in cls.__dict__.get("__annotations__", {}) if n not in cls._fields]
        cls._fields = fields = (*cls._fields, *own)
        cls._bounds = {**cls.__base__._bounds, **cls.__dict__.get("_bounds", {})}
        defaults = {n: getattr(cls, n) for n in fields if hasattr(cls, n)}
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in fields)
        # e.g. "if not 0.0 <= x < inf: _check_range('x', x, 0.0, inf, '[)')"
        less = {"[": "<=", "]": "<=", "(": "<", ")": "<"}
        checks = "".join(
            f"\n if not {lo!r} {less[b[0]]} {n} {less[b[1]]} {hi!r}:"
            f" _check_range({label!r}, {n}, {lo!r}, {hi!r}, {b!r})"
            for n, (label, lo, hi, b) in cls._bounds.items()
        )
        # one __dict__ store, not one per field: builds are cheaper, reads a bit dearer
        body = "\n _setattr(self, '__dict__', {" + ", ".join(f"{n!r}: {n}" for n in fields) + "})"
        post = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        namespace = {"_defaults": defaults, "_setattr": object.__setattr__,
                     "_check_range": check_range, "inf": math.inf}
        exec(f"def __init__(self, {params}):{checks}{body}{post}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_equal, self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with ``changes`` to its fields, validated anew."""
    return type(record)(**{**{n: getattr(record, n) for n in record._fields}, **changes})


class GaussianPulse(Record):
    """Gaussian temporal intensity profile, FWHM in ns."""

    fwhm_ns: float
    # a subnormal FWHM has lost its digits, and 5e-324 has a sigma of 0
    _bounds = {"fwhm_ns": ("pulse FWHM", sys.float_info.min, math.inf, "[)")}

    @property
    def sigma_ns(self) -> float:
        return self.fwhm_ns * _FWHM_TO_SIGMA


class WaveguideParams(Record):
    """Nonlinear waveguide: length (cm), normalized conversion efficiency
    (fraction per W per cm^2) and the saturation cap on the external
    conversion efficiency.

    The cap is an independent fitted parameter, not derived from the loss
    budget.
    """

    length_cm: float
    normalized_efficiency: float  # per (W * cm^2)
    max_external_efficiency: float
    _bounds = {"length_cm": ("waveguide length", 0.0, math.inf, "()"),
               "normalized_efficiency": ("normalized efficiency", 0.0, math.inf, "()"),
               "max_external_efficiency": ("max_external_efficiency", 0.0, 1.0, "[]")}


class ElementTransmissions(Record):
    """Per-element transmissions along the converter at one wavelength."""

    input_lens: float
    coupling: float
    propagation: float
    output_lens: float
    _bounds = {n: (n, 0.0, 1.0, "[]")
               for n in ("input_lens", "coupling", "propagation", "output_lens")}

    @property
    def total(self) -> float:
        return self.input_lens * self.coupling * self.propagation * self.output_lens


class LossBudget(Record):
    """Loss budget recorded separately at the input and pump wavelengths."""

    signal: ElementTransmissions
    pump: ElementTransmissions


class EfficiencyCascade(Record):
    """Nested efficiencies: internal -> external -> device -> total.

    Inputs are the individual factors (coupling, internal conversion,
    filter, detection); the cumulative values are derived products.
    """

    eta_coupling: float
    eta_int_max: float
    eta_filter: float
    eta_detection: float
    _bounds = {n: (n, 0.0, 1.0, "[]")
               for n in ("eta_coupling", "eta_int_max", "eta_filter", "eta_detection")}

    def __post_init__(self):
        object.__setattr__(self, "eta_ext_max", self.eta_coupling * self.eta_int_max)
        object.__setattr__(self, "eta_dev_max", self.eta_ext_max * self.eta_filter)
        object.__setattr__(self, "eta_tot_max", self.eta_dev_max * self.eta_detection)


def dfg_output_wavelength(lambda_in_nm: float, lambda_pump_nm: float) -> float:
    """Output wavelength of difference frequency generation.

    Energy conservation: 1/lambda_out = 1/lambda_in - 1/lambda_pump.
    The pump must be the longer wavelength (down-conversion).
    """
    check_range("input wavelength", lambda_in_nm, bounds="()")
    check_range("pump wavelength", lambda_pump_nm, bounds="()")
    if not lambda_pump_nm > lambda_in_nm:
        raise ValueError(
            f"pump wavelength ({lambda_pump_nm} nm) must exceed the input "
            f"wavelength ({lambda_in_nm} nm) for down-conversion"
        )
    inverse = 1.0 / lambda_in_nm - 1.0 / lambda_pump_nm
    return 1.0 / inverse if inverse else math.inf  # 0 where the inverses round alike


def conversion_model(pump_w, eta_ext_max: float, eta_n: float, length_cm: float):
    """eta_ext_max * sin^2(L sqrt(P eta_n)) at pump powers ``pump_w`` (W).

    The undepleted classical-pump result for a quasi-phase-matched
    waveguide.  A scalar, numpy's too, gives a float; a 1-d sequence (list,
    tuple or ndarray) gives a list of floats, the scalar's ``math`` formula
    at each power, so the two agree to the bit.
    """
    if isinstance(pump_w, (int, float)):
        return eta_ext_max * math.sin(length_cm * math.sqrt(pump_w * eta_n)) ** 2
    if hasattr(pump_w, "tolist"):  # numpy's: as Python numbers
        return conversion_model(pump_w.tolist(), eta_ext_max, eta_n, length_cm)
    return _conversion_list(pump_w, eta_ext_max, eta_n, length_cm)


def _conversion_list(pumps, eta_ext_max, eta_n, length_cm) -> list[float]:
    # apart, as a comprehension in conversion_model costs its scalar calls closure cells
    sin, sqrt = math.sin, math.sqrt
    return [eta_ext_max * sin(length_cm * sqrt(p * eta_n)) ** 2 for p in pumps]


def external_efficiency(pump_w: float, wg: WaveguideParams) -> float:
    """External conversion efficiency at pump power ``pump_w`` (W)."""
    return wg.max_external_efficiency * conversion_fraction(pump_w, wg)


def conversion_fraction(pump_w: float, wg: WaveguideParams) -> float:
    """external_efficiency normalized to 1 at its peak: sin^2(L sqrt(P eta_n))."""
    check_range("pump power", pump_w)
    return float(conversion_model(pump_w, 1.0, wg.normalized_efficiency, wg.length_cm))


def optimal_pump_power(wg: WaveguideParams) -> float:
    """Smallest pump power (W) at which the conversion efficiency peaks.

    L * sqrt(P * eta_n) = pi/2  =>  P = (pi/2)^2 / (L^2 * eta_n).
    """
    try:
        return (math.pi / 2.0) ** 2 / (wg.length_cm**2 * wg.normalized_efficiency)
    except ArithmeticError:  # L^2 overflows, or L^2 * eta_n underflows to 0
        raise ArithmeticError(
            f"the waveguide length ({wg.length_cm:g} cm) and normalized efficiency "
            f"({wg.normalized_efficiency:g} /W/cm^2) put L^2 * eta_n outside the float range"
        ) from None


def bandwidth_nm_to_ghz(bandwidth_nm: float, wavelength_nm: float) -> float:
    """Convert a spectral width from nm to GHz around ``wavelength_nm``."""
    try:
        return (
            _SPEED_OF_LIGHT_M_S * bandwidth_nm * 1e-9 / (wavelength_nm * 1e-9) ** 2 / 1e9
        )
    except ArithmeticError:  # the squared wavelength underflows to 0, or overflows
        raise ArithmeticError(
            f"the output wavelength ({wavelength_nm:g} nm) puts its square outside the float "
            "range; source_input_wavelength and pump_wavelength set it"
        ) from None

