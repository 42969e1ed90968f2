"""One fixed hypothesis profile, so every run draws the same examples.

``derandomize`` seeds each ``@given`` test from its own source, and no
example database carries failures over from earlier runs.  Tests that set
``max_examples`` keep their own count.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
