"""Test-suite settings: property tests replay the same examples every run,
and no test may run forever."""

import signal

import pytest
from hypothesis import settings

# Derandomized: examples come from a hash of each test, so a failure repeats
# on every run and the suite's result does not depend on the run.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# Wall-clock budget per test, far above the slowest test (under 20 s).
HANG_BUDGET_S = 300


class HangTimeout(BaseException):
    """A test ran past its budget. Not an ``Exception``, so neither the
    code under test nor hypothesis (which would replay the hanging example
    while shrinking) catches it; pytest reports the test as failed."""


@pytest.fixture(autouse=True)
def hang_guard():
    """Fail a test that runs past ``HANG_BUDGET_S`` instead of hanging the
    suite. A no-op where the platform has no ``SIGALRM``."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise HangTimeout(f"test still running after {HANG_BUDGET_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(HANG_BUDGET_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
