"""One fixed hypothesis profile, so every run draws the same examples.

``derandomize`` seeds each ``@given`` test from its own source, and no
example database carries failures over from earlier runs.  Tests that set
``max_examples`` keep their own count.

Hypothesis also mixes into its draws the constants of every local module
loaded at the time (``providers._get_local_constants``), and it skips the
files under ``tests/``.  Every ``qfcsim`` submodule is imported here,
before any test, so that the pool, and with it each test's examples, does
not depend on which tests are selected or on their order
(``test_imports.py::test_hypothesis_constants_do_not_depend_on_selection``).
An edit to ``src/`` still changes the pool, and so the examples.
"""

import importlib
import pkgutil

from hypothesis import settings

import qfcsim

for _module in pkgutil.iter_modules(qfcsim.__path__):
    importlib.import_module(f"qfcsim.{_module.name}")

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
