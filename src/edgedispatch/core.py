"""Shared vocabulary: fixed-point time, weights, JSON-shaped keys.

Every duration in this package is an integer number of microseconds.
Configuration surfaces speak milliseconds for readability and convert once
at the boundary; past that point all arithmetic stays integral, so a run
can be replayed bit-exactly and the exact-equality fairness checks are
meaningful.
"""

from __future__ import annotations

US_PER_MS = 1000


def from_ms(value: float | int) -> int:
    """Milliseconds (int or float) to integer microseconds."""
    return round(value * US_PER_MS)


def to_ms(us: int) -> float:
    """Integer microseconds to float milliseconds, for display only."""
    return us / US_PER_MS


def string_keys(obj):
    """Copy of a nested dict/list/tuple tree with every dict key as a string
    and tuples as lists: the shape JSON (and JSON schema) speaks."""
    if isinstance(obj, dict):
        return {str(k): string_keys(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [string_keys(v) for v in obj]
    return obj


class _InfiniteWeight:
    """Weight of a congested path.

    A dedicated singleton rather than ``float("inf")``: it compares greater
    than every finite weight but supports no arithmetic, so it can never
    silently flow into a latency computation.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "_InfiniteWeight":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"

    def __lt__(self, other: object) -> bool:
        self._check(other)
        return False

    def __le__(self, other: object) -> bool:
        self._check(other)
        return other is self

    def __gt__(self, other: object) -> bool:
        self._check(other)
        return other is not self

    def __ge__(self, other: object) -> bool:
        self._check(other)
        return True

    @staticmethod
    def _check(other: object) -> None:
        if not isinstance(other, (int, _InfiniteWeight)):
            raise TypeError(f"cannot order weight against {type(other).__name__}")


INFINITE = _InfiniteWeight()

# A weight is either a finite latency estimate in microseconds or INFINITE.
Weight = int | _InfiniteWeight

