"""One range check: ``optics.check_range`` and the bounds that records
declare in their ``_bounds`` tables.  Every declared bound is tested here
from the tables themselves, and a lint keeps hand-written single-value
guards out of the package."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import qfcsim
from qfcsim import fitting, montecarlo  # noqa: F401  (every Record subclass)
from qfcsim.noise import FilterStage, detection_probabilities
from qfcsim.optics import Record, check_range, replace
from qfcsim.timebin import Interferometer, SlotCounts, TimeBinQubit

CHAIN = qfcsim.reference_chain()

# valid instances of each record class with bounds; a closed endpoint must
# construct from at least one of them (a FilterStage element at 1 needs the
# others at 1 to keep the total consistent, one at 0 needs a small total)
VALID = {
    qfcsim.GaussianPulse: [CHAIN.pulse],
    qfcsim.WaveguideParams: [CHAIN.waveguide],
    qfcsim.ElementTransmissions: [CHAIN.budget.signal, CHAIN.budget.pump],
    qfcsim.EfficiencyCascade: [CHAIN.cascade()],
    qfcsim.NoiseModel: [CHAIN.noise],
    FilterStage: [FilterStage(1.0, 1.0, 1.0, 1.0, 1.0), FilterStage(1.0, 0.1, 0.1, 0.1, 0.001)],
    qfcsim.DetectorConfig: [CHAIN.detector],
    qfcsim.RateBreakdown: [detection_probabilities(6.1, 120.0, CHAIN)],
    qfcsim.ConversionChain: [CHAIN],
    qfcsim.ExperimentScenario: [qfcsim.ExperimentScenario(CHAIN, 6.1, 120.0, 10, 1)],
    TimeBinQubit: [TimeBinQubit(0.0, 50.0), TimeBinQubit(0.0, 50.0, 1.0, 0.0),
                   TimeBinQubit(0.0, 50.0, 0.0, 1.0)],
    Interferometer: [Interferometer(50.0)],
    SlotCounts: [SlotCounts(1.0, 2.0, 1.0)],
    montecarlo.Histogram: [montecarlo.Histogram(1.0, np.ones(100, dtype=int))],
}


def _records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


BOUNDED = [cls for cls in _records() if cls._bounds]


def test_every_bounded_record_has_valid_instances():
    assert set(BOUNDED) == set(VALID)
    for cls in BOUNDED:
        assert set(cls._bounds) <= set(cls._fields), cls
        assert all(type(v) is cls for v in VALID[cls])


def _outside(low, high, bounds):
    """Values the interval must reject: NaN, +-inf, each open endpoint and
    one ulp outside each closed one."""
    values = [math.nan, math.inf, -math.inf]
    values.append(math.nextafter(low, -math.inf) if bounds[0] == "[" else low)
    values.append(math.nextafter(high, math.inf) if bounds[1] == "]" else high)
    return values


REJECTED = [(cls, field, value) for cls in BOUNDED
            for field, (_, low, high, bounds) in cls._bounds.items()
            for value in _outside(low, high, bounds)]
ACCEPTED = [(cls, field, endpoint) for cls in BOUNDED
            for field, (_, low, high, bounds) in cls._bounds.items()
            for endpoint, closed in ((low, bounds[0] == "["), (high, bounds[1] == "]")) if closed]


@pytest.mark.parametrize("cls, field, value", REJECTED,
                         ids=[f"{c.__name__}.{f}={v!r}" for c, f, v in REJECTED])
def test_declared_bound_rejects(cls, field, value):
    label = cls._bounds[field][0]
    for valid in VALID[cls]:
        with pytest.raises(ValueError, match=f"^{re.escape(label)} must be .*, got "):
            replace(valid, **{field: value})


@pytest.mark.parametrize("cls, field, endpoint", ACCEPTED,
                         ids=[f"{c.__name__}.{f}={v!r}" for c, f, v in ACCEPTED])
def test_declared_closed_endpoint_accepted(cls, field, endpoint):
    built = []
    for valid in VALID[cls]:
        try:
            built.append(replace(valid, **{field: endpoint}))
        except ValueError:
            pass
    assert built and all(getattr(b, field) == endpoint for b in built)


@pytest.mark.parametrize("low, high, bounds, message", [
    (0, math.inf, "[)", "x must be nonnegative and finite, got nan"),
    (0, math.inf, "()", "x must be positive and finite, got nan"),
    (-math.inf, math.inf, "()", "x must be finite, got nan"),
    (0, 1, "[]", "x must be in [0, 1], got nan"),
    (0.0, 1.0, "[]", "x must be in [0, 1], got nan"),  # float ends print without ".0"
    (0, 1, "(]", "x must be in (0, 1], got nan"),
    (0.65, math.inf, "[)", "x must be in [0.65, inf), got nan"),
])
def test_check_range_messages(low, high, bounds, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_range("x", math.nan, low, high, bounds)


def test_check_range_endpoints():
    check_range("x", 0.0)
    check_range("x", -0.0)
    check_range("x", 1, 0, 1, "(]")
    check_range("x", math.inf, 0, math.inf, "[]")  # infinite only where the interval says so
    for value, args in ((0.0, (0, 1, "(]")), (1.0, (0, 1, "[)")), (math.inf, ()),
                        (-math.inf, (-math.inf, math.inf, "()"))):
        with pytest.raises(ValueError):
            check_range("x", value, *args)


# ---------------------------------------------------------------- the lint

SRC = Path(qfcsim.__file__).parent


def _constant(node) -> bool:
    """A numeric literal or math.inf, or a sign or arithmetic of those."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return _constant(node.operand)
    if isinstance(node, ast.BinOp):
        return _constant(node.left) and _constant(node.right)
    return ast.unparse(node) == "math.inf"


def hand_written_guards(source: str) -> list[int]:
    """Lines of each ``if not <comparison>: raise ValueError(...)`` that
    tests one name or attribute against constants (or ``not
    math.isfinite(x)``): the guards ``check_range`` stands for."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.If) and isinstance(node.test, ast.UnaryOp)
                and isinstance(node.test.op, ast.Not)):
            continue
        raised = [s.exc for s in node.body if isinstance(s, ast.Raise)]
        if not any(isinstance(e, ast.Call) and ast.unparse(e.func) == "ValueError" for e in raised):
            continue
        test = node.test.operand
        if isinstance(test, ast.Compare):
            tested = [o for o in (test.left, *test.comparators) if not _constant(o)]
        elif isinstance(test, ast.Call) and ast.unparse(test.func) == "math.isfinite":
            tested = test.args
        else:
            continue
        if len(tested) == 1 and isinstance(tested[0], (ast.Name, ast.Attribute)):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("guard", [
    "if not x > 0:\n    raise ValueError('x')",
    "if not 0 <= self.x < math.inf:\n    raise ValueError(f'{x}')",
    "if not (0.0 <= x <= 1.0):\n    raise ValueError('x')",
    "if not 0 <= seed < 1 << 128:\n    raise ValueError('x')",
    "if not math.isfinite(self.phase):\n    raise ValueError('x')",
])
def test_lint_finds_a_guard(guard):
    assert hand_written_guards(guard) == [1]


@pytest.mark.parametrize("relation", [
    "if not a > b:\n    raise ValueError('x')",  # two values
    "if not abs(t - p) <= 0.01:\n    raise ValueError('x')",
    "if not x > 0:\n    raise TypeError('x')",
    "if x < 0:\n    raise ValueError('x')",
])
def test_lint_passes_a_relation(relation):
    assert hand_written_guards(relation) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_hand_written_range_guard(path):
    assert hand_written_guards(path.read_text(encoding="utf-8")) == [], (
        f"{path.name}: call optics.check_range, or declare the bound in the record's _bounds"
    )
