"""Smoothed per-destination latency estimates with congestion override.

A router keeps one table per lambda it serves. The estimate for a
destination starts at the first measured latency and then moves as a
weighted blend of previous estimate and new sample. While the network path
to a destination is reported congested the estimate is pinned to
INFINITE; the last finite value is kept aside and comes back untouched when
the congestion signal clears.
"""

from __future__ import annotations

from fractions import Fraction

from .core import INFINITE, Weight


class ObservationWhileCongested(Exception):
    """A latency sample was offered for a destination currently marked congested."""


class NotCongested(Exception):
    """Congestion clear received for a destination that was never marked."""


class _Entry:
    __slots__ = ("value", "shadow", "congested")

    def __init__(self) -> None:
        self.value: int | None = None
        self.shadow: int | None = None
        self.congested = False


def _as_fraction(alpha: float | str | Fraction) -> Fraction:
    # str() round-trips decimal literals like 0.9 exactly, which is what a
    # config file means; a raw binary float would smuggle in 0.9000000000000...
    if isinstance(alpha, Fraction):
        return alpha
    return Fraction(str(alpha))


class WeightTable:
    """One (router, lambda) pair's latency estimates, keyed by destination.

    ``alpha`` is the smoothing factor: 1 keeps the old estimate, 0 adopts
    each new sample wholesale. Estimates are integer microseconds; the blend
    rounds half up, and samples are floored at one microsecond so finite
    weights stay strictly positive (reciprocal-weight selection divides by
    them).
    """

    def __init__(self, alpha: float | str | Fraction = Fraction(9, 10)) -> None:
        alpha = _as_fraction(alpha)
        if not 0 <= alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self._entries: dict[int, _Entry] = {}

    def observe(self, dest: int, sample_us: int) -> int:
        """Fold one measured latency into the estimate, return the new value."""
        if sample_us < 0:
            raise ValueError("latency sample must be non-negative")
        entry = self._entries.setdefault(dest, _Entry())
        if entry.congested:
            raise ObservationWhileCongested(f"destination {dest} is marked congested")
        sample = max(int(sample_us), 1)
        if entry.value is None:
            entry.value = sample
        else:
            num = self.alpha.numerator
            den = self.alpha.denominator
            entry.value = (num * entry.value + (den - num) * sample + den // 2) // den
        return entry.value

    def assign(self, dest: int, value_us: int) -> int:
        """Overwrite the estimate outright (probe re-admission does this)."""
        entry = self._entries.setdefault(dest, _Entry())
        if entry.congested:
            raise ObservationWhileCongested(f"destination {dest} is marked congested")
        entry.value = max(int(value_us), 1)
        return entry.value

    def mark_congested(self, dest: int) -> None:
        """Pin the destination to INFINITE, remembering the current finite value.

        Idempotent: marking an already congested destination changes nothing.
        """
        entry = self._entries.setdefault(dest, _Entry())
        if entry.congested:
            return
        entry.shadow = entry.value
        entry.value = None
        entry.congested = True

    def clear_congestion(self, dest: int) -> int | None:
        """Restore the pre-congestion value; None if the destination was never measured."""
        entry = self._entries.get(dest)
        if entry is None or not entry.congested:
            raise NotCongested(f"destination {dest} is not congested")
        entry.value = entry.shadow
        entry.shadow = None
        entry.congested = False
        return entry.value

    def get(self, dest: int) -> Weight | None:
        """Current weight: microseconds, INFINITE while congested, or None
        when the destination has never been measured."""
        entry = self._entries.get(dest)
        if entry is None:
            return None
        if entry.congested:
            return INFINITE
        return entry.value

    def is_congested(self, dest: int) -> bool:
        entry = self._entries.get(dest)
        return entry is not None and entry.congested

    def snapshot(self) -> dict:
        """Serializable state: {dest: {weight, congested, shadow}}."""
        return {
            dest: {"weight": entry.value, "congested": entry.congested, "shadow": entry.shadow}
            for dest, entry in sorted(self._entries.items())
        }
