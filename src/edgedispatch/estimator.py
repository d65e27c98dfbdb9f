"""Smoothed per-destination latency estimates with congestion override.

Each dispatch policy owns one table: one (router, lambda) pair's estimates,
read and updated only through that policy. The estimate for a
destination starts at the first measured latency and then moves as a
weighted blend of previous estimate and new sample. While the network path
to a destination is reported congested it is flagged and has no weight;
its estimate is frozen meanwhile and comes back untouched when the
congestion signal clears.
"""

from __future__ import annotations

from fractions import Fraction

# The smoothing factor of every table unless a scenario sets its own.
DEFAULT_ALPHA = 0.9


class ObservationWhileCongested(Exception):
    """A latency sample was offered for a destination currently marked congested."""


class NotCongested(Exception):
    """Congestion clear received for a destination that was never marked."""


class _Entry:
    __slots__ = ("value", "congested")

    def __init__(self) -> None:
        self.value: int | None = None
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

    def __init__(self, alpha: float | str | Fraction = DEFAULT_ALPHA) -> None:
        alpha = _as_fraction(alpha)
        if not 0 <= alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        # Fraction's numerator and denominator are properties; the blend on
        # every response reads these plain ints instead.
        self._num = alpha.numerator
        self._den = alpha.denominator
        self._entries: dict[int, _Entry] = {}

    def _entry(self, dest: int) -> _Entry:
        """The destination's entry, created on first use."""
        entry = self._entries.get(dest)
        if entry is None:
            entry = self._entries[dest] = _Entry()
        return entry

    def observe(self, dest: int, sample_us: int) -> int:
        """Fold one measured latency into the estimate, return the new value."""
        if sample_us < 0:
            raise ValueError("latency sample must be non-negative")
        entry = self._entries.get(dest)
        if entry is None:
            entry = self._entries[dest] = _Entry()
        elif entry.congested:
            raise ObservationWhileCongested(f"destination {dest} is marked congested")
        sample = max(int(sample_us), 1)
        if entry.value is None:
            entry.value = sample
        else:
            num = self._num
            den = self._den
            entry.value = (num * entry.value + (den - num) * sample + den // 2) // den
        return entry.value

    def assign(self, dest: int, value_us: int) -> int:
        """Overwrite the estimate outright (probe re-admission does this)."""
        entry = self._entry(dest)
        if entry.congested:
            raise ObservationWhileCongested(f"destination {dest} is marked congested")
        entry.value = max(int(value_us), 1)
        return entry.value

    def mark_congested(self, dest: int) -> None:
        """Flag the destination congested: ``get`` reports None until the
        clear, and ``observe`` and ``assign`` refuse it, so its estimate is
        frozen. Idempotent."""
        self._entry(dest).congested = True

    def clear_congestion(self, dest: int) -> int | None:
        """Unflag the destination and return its estimate, None if never measured."""
        entry = self._entries.get(dest)
        if entry is None or not entry.congested:
            raise NotCongested(f"destination {dest} is not congested")
        entry.congested = False
        return entry.value

    def get(self, dest: int) -> int | None:
        """Current weight in microseconds; None while congested (see
        ``is_congested``) or when never measured."""
        entry = self._entries.get(dest)
        if entry is None or entry.congested:
            return None
        return entry.value

    def is_congested(self, dest: int) -> bool:
        entry = self._entries.get(dest)
        return entry is not None and entry.congested

    def snapshot(self) -> dict:
        """Serializable state: {dest: {weight, congested, shadow}}; a
        congested destination's frozen estimate shows as its ``shadow``."""
        return {
            dest: {"weight": None, "congested": True, "shadow": entry.value}
            if entry.congested
            else {"weight": entry.value, "congested": False, "shadow": None}
            for dest, entry in sorted(self._entries.items())
        }
