"""Test-suite settings: property tests replay the same examples every run."""

from hypothesis import settings

# Derandomized: examples come from a hash of each test, so a failure repeats
# on every run and the suite's result does not depend on the run.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
