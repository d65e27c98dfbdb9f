"""Shared vocabulary: fixed-point time, weights, request records.

Every duration in this package is an integer number of microseconds.
Configuration surfaces speak milliseconds for readability and convert once
at the boundary; past that point all arithmetic stays integral, so a run
can be replayed bit-exactly and the exact-equality fairness checks are
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def check_delays(
    issued: int, completed: int, transfer: int, queue: int, processing: int
) -> None:
    """Raise ValueError unless every time and delay is non-negative and the
    three delay components add up to the span from issue to completion.

    The one rule behind ``RequestRecord`` and ``simnet.TraceRow``.
    """
    if issued < 0 or completed < 0 or transfer < 0 or queue < 0 or processing < 0:
        raise ValueError(
            "times and delays must be non-negative: "
            f"issued {issued}, completed {completed}, transfer {transfer}, "
            f"queue {queue}, processing {processing}"
        )
    span = completed - issued
    parts = transfer + queue + processing
    if span != parts:
        raise ValueError(f"delay components sum to {parts}us but the record spans {span}us")


@dataclass(frozen=True)
class RequestRecord:
    """Outcome of one completed lambda invocation; all times in microseconds.

    The three delay components always add up to the end-to-end span, which
    is checked at construction so a record with a bookkeeping hole cannot
    exist anywhere in the system.
    """

    lam: int
    destination: int
    issued_at: int
    completed_at: int
    transfer_delay: int
    queue_delay: int
    processing_delay: int

    def __post_init__(self) -> None:
        check_delays(
            self.issued_at,
            self.completed_at,
            self.transfer_delay,
            self.queue_delay,
            self.processing_delay,
        )

    @property
    def latency(self) -> int:
        """End-to-end latency as seen by the client, in microseconds."""
        return self.completed_at - self.issued_at
