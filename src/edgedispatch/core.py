"""Shared vocabulary: fixed-point time, JSON-shaped keys and a collector
pause.

Every duration in this package is an integer number of microseconds.
Configuration surfaces speak milliseconds for readability and convert once
at the boundary; past that point all arithmetic stays integral, so a run
can be replayed bit-exactly and the exact-equality fairness checks are
meaningful.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

US_PER_MS = 1000


def from_ms(value: float | int) -> int:
    """Milliseconds (int or float) to integer microseconds."""
    return round(value * US_PER_MS)


def to_ms(us: int) -> float:
    """Integer microseconds to float milliseconds, for display only."""
    return us / US_PER_MS


def string_keys(obj):
    """Copy of a nested dict/list/tuple tree with every dict key as a string
    and tuples as lists: the shape JSON speaks."""
    if isinstance(obj, dict):
        return {str(k): string_keys(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [string_keys(v) for v in obj]
    return obj


@contextmanager
def collector_paused():
    """Turn CPython's cyclic garbage collector off for the block, and back
    on after it, on return or raise, only if it was on before.

    For code that builds many long-lived containers and no reference
    cycle: every trace row lives until the run or the read ends, so a
    young collection there traverses them all and frees nothing, while
    reference counting frees everything else as it goes. As a decorator,
    ``@collector_paused()``, it pauses each call of the function.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
