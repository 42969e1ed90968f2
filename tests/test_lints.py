"""Source lints over ``src/qfcsim``: float sums that do not move with the
Python version, config keys named in messages that are still keys, no
imported name left unused, and Monte Carlo draws that rest on Philox's
raw words."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import qfcsim
from qfcsim.config import _SCHEMA

SRC = Path(qfcsim.__file__).parent
SOURCES = sorted(SRC.glob("*.py"))

# ------------------------------------------------------ the builtin sum()


def builtin_sum_calls(source: str) -> list[int]:
    """Lines of each call to the builtin ``sum``, which from Python 3.12 on
    adds floats with compensation and so gives other last bits than a
    left-to-right loop.  A method such as numpy's ``.sum()`` is no such call."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"]


@pytest.mark.parametrize("call", [
    "total = sum(values)",
    "lam = float(sum(chain.event_means(mu, p, w)))",
    "rss = sum(wi * ri * ri for wi, ri in zip(w, r))",
])
def test_sum_lint_finds_a_call(call):
    assert builtin_sum_calls(call) == [1]


@pytest.mark.parametrize("call", [
    "n = int(counts.sum())",
    "total = np.sum(values)",
    "edges = np.cumsum(means)",
    "total = math.fsum(values)",
])
def test_sum_lint_passes_other_sums(call):
    assert builtin_sum_calls(call) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_builtin_sum(path):
    assert builtin_sum_calls(path.read_text(encoding="utf-8")) == [], (
        f"{path.name}: add floats in a left-to-right loop from 0.0, not with sum()"
    )


# --------------------------------------------- config keys in messages

KEYS = {f"{section}_{key}" for section, keys in _SCHEMA.items() for key in keys}
# a word that starts with a section and an underscore names a key
KEY_LIKE = re.compile(r"\b(?:%s)_\w+" % "|".join(sorted(_SCHEMA, key=len, reverse=True)))


def _strings(node, skip=frozenset()) -> list[str]:
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str) and n not in skip]


def named_keys(source: str) -> list[str]:
    """The ``<section>_<key>`` words in the raise messages, the
    ``check_range`` labels and the ``_bounds`` labels of a source file.
    A ``_bounds`` table's dict keys are field names, not labels."""
    strings = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            strings += _strings(node.exc)
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "check_range"
              and node.args):
            strings += _strings(node.args[0])
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_bounds"]:
            fields = {k for d in ast.walk(node.value) if isinstance(d, ast.Dict) for k in d.keys}
            strings += _strings(node.value, fields)
    return [word for text in strings for word in KEY_LIKE.findall(text)]


@pytest.mark.parametrize("source, stale", [
    ('raise ValueError("pump_powr sets the noise")', ["pump_powr"]),
    ('raise ConfigError(f"{x:g} mW; set detector_dark_rates")', ["detector_dark_rates"]),
    ('check_range("gate (detector_gate_widht)", gate)', ["detector_gate_widht"]),
    ('_bounds = {"length_cm": ("length (waveguide_lenght)", 0.0, inf, "()")}',
     ["waveguide_lenght"]),
    ('_bounds = {**{n: (n, 0.0, 1.0, "[]") for n in ("losses_input_lens",)}}',
     ["losses_input_lens"]),
])
def test_key_scan_finds_a_stale_key(source, stale):
    assert [w for w in named_keys(source) if w not in KEYS] == stale


@pytest.mark.parametrize("source", [
    'raise ValueError("pump_power and losses_input_coupling")',
    '_bounds = {"pump_noise": ("pump-noise mean", 0.0, inf, "[)")}',  # a field, not a label
    'hint = "pump_powr"',  # not a message
])
def test_key_scan_passes(source):
    assert [w for w in named_keys(source) if w not in KEYS] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_messages_name_config_keys(path):
    stale = [w for w in named_keys(path.read_text(encoding="utf-8")) if w not in KEYS]
    assert stale == [], f"{path.name}: {stale} are not keys of config._SCHEMA"


def test_key_scan_reads_the_package():
    named = {w for path in SOURCES for w in named_keys(path.read_text(encoding="utf-8"))}
    # SimulationResult's and noise.mu1's messages, and ExperimentScenario's labels
    assert {"detector_dark_rate", "montecarlo_shots", "pump_power", "waveguide_length",
            "waveguide_normalized_efficiency", "waveguide_max_external_efficiency",
            "filter_total_transmission", "detector_efficiency",
            "source_mean_photon_number"} <= named


# ------------------------------------------------------ unused imports


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses, either as a name or inside a
    quoted annotation.  A ``from __future__`` import is a directive, and
    ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree] + [ast.parse(text, mode="eval") for a in annotations if a is not None
                      for text in _strings(a)]
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("source, unused", [
    ("import os", ["os"]),
    ("import os.path\nx = 1", ["os"]),
    ("import numpy as np\nnumpy = 1", ["np"]),
    ("from .chain import MAX_SHOTS, ConversionChain\nn = MAX_SHOTS", ["ConversionChain"]),
    ('from .chain import ConversionChain\nhint = "ConversionChain"', ["ConversionChain"]),
])
def test_import_lint_finds_an_unused_name(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize("source", [
    "from __future__ import annotations",
    "import os.path\np = os.path.join('a', 'b')",
    "import numpy as np\nx = np.zeros(3)",
    'from .chain import ConversionChain\ndef f() -> "ConversionChain": ...',
    'from .chain import ConversionChain\ndef f(c: "list[ConversionChain]"): ...',
    'from .chain import ConversionChain\nc: "ConversionChain"',
])
def test_import_lint_passes_a_used_name(source):
    assert unused_imports(source) == []


def test_import_lint_flags_a_leftover_import():
    # montecarlo reads a lane's rates through its scenario's chain, and
    # names no ConversionChain
    source = (SRC / "montecarlo.py").read_text(encoding="utf-8")
    old = "from .chain import MAX_SHOTS, "
    assert old in source
    leftover = source.replace(old, old + "ConversionChain, ")
    assert unused_imports(leftover) == ["ConversionChain"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], (
        f"{path.name}: an imported name is never used"
    )


# ------------------------------------------------ numpy's random draws

# every drawing method of numpy's Generator and of its bit generators
DRAWS = {name for cls in (np.random.Generator, np.random.Philox)
         for name in dir(cls) if not name.startswith("_") and callable(getattr(cls, name))}
# the Monte Carlo's own transforms cut the shots, u and uniform times from
# raw words; the Poisson counts, the normals and a partial chunk's shots
# are still numpy's methods, whose output numpy's RNG policy does not freeze
MONTECARLO_DRAWS = {"poisson", "standard_normal", "integers", "random_raw"}


def generator_draws(source: str) -> list[tuple[int, str]]:
    """Line and name of each Generator or bit-generator drawing method the
    source reads, whatever it reads it from, called at once or bound and
    called later: ``rng.random(n)``, ``raw = rng.bit_generator.random_raw``.
    ``np.random`` is the module, and ``np.random.Generator(bitgen)`` builds
    a generator: neither is a draw."""
    return [(node.lineno, node.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in DRAWS
            and not (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))]


@pytest.mark.parametrize("call, name", [
    ("u = rng.random(n)", "random"),
    ("t = rng.uniform(0.0, window_ns, n - k)", "uniform"),
    ("x = rng.normal(0.0, sigma_ns, k)", "normal"),
    ("s = np.random.default_rng(seed).choice(m, n)", "choice"),
    ("bitgen = bitgen.jumped(ci)", "jumped"),
    ("draw = rng.random\nu = draw(n)", "random"),
    ("u = np.random.random(n)", "random"),
])
def test_draw_lint_finds_a_call(call, name):
    assert generator_draws(call) == [(1, name)]
    assert name not in MONTECARLO_DRAWS


@pytest.mark.parametrize("call", [
    "n = int(rng.poisson(m * lam))",
    "normals.append(rng.standard_normal(k))",
    "s = rng.integers(start - base, start - base + m, n)",
    "words = rng.bit_generator.random_raw(h + n)",
    "raw = rng.bit_generator.random_raw",
    "rng = np.random.Generator(np.random.Philox(key=seed))",
    "t = np.multiply(words >> 11, scale)",
])
def test_draw_lint_passes(call):
    assert {name for _, name in generator_draws(call)} <= MONTECARLO_DRAWS


def test_montecarlo_draws():
    draws = generator_draws((SRC / "montecarlo.py").read_text(encoding="utf-8"))
    # the lint reads each of the four, and nothing else
    assert {name for _, name in draws} == MONTECARLO_DRAWS, draws
