"""Smoothed per-destination latency estimates with congestion override.

Each dispatch policy owns one table: one (router, lambda) pair's estimates,
read and updated only through that policy. A table is a dict of estimates
and a set of congested destinations. The estimate for a destination starts
at the first measured latency and then moves as a weighted blend of
previous estimate and new sample. While the network path to a destination
is reported congested it is in the set and has no weight; its estimate is
frozen meanwhile and comes back untouched when the congestion signal clears.
"""

from __future__ import annotations

from fractions import Fraction

# The smoothing factor of every table unless a scenario sets its own.
DEFAULT_ALPHA = 0.9


class ObservationWhileCongested(Exception):
    """A latency sample was offered for a destination currently marked congested."""


class NotCongested(Exception):
    """Congestion clear received for a destination that was never marked."""


class WeightTable:
    """One (router, lambda) pair's latency estimates, keyed by destination.

    ``alpha`` is the smoothing factor: 1 keeps the old estimate, 0 adopts
    each new sample wholesale. Estimates are integer microseconds; the blend
    rounds half up, and samples are floored at one microsecond so finite
    weights stay strictly positive (reciprocal-weight selection divides by
    them).
    """

    def __init__(self, alpha: float | str | Fraction = DEFAULT_ALPHA) -> None:
        # str() round-trips decimal literals like 0.9 exactly, which is what a
        # config file means; a raw binary float would smuggle in 0.9000000000000...
        alpha = Fraction(str(alpha))
        if not 0 <= alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        # Fraction's numerator and denominator are properties; the blend on
        # every response reads these plain ints instead.
        self._num = alpha.numerator
        self._den = alpha.denominator
        # One key per destination ever measured or marked; None until measured.
        self._values: dict[int, int | None] = {}
        self._congested: set[int] = set()

    def observe(self, dest: int, sample_us: int) -> int:
        """Fold one measured latency into the estimate, return the new value."""
        if sample_us < 0:
            raise ValueError("latency sample must be non-negative")
        if dest in self._congested:
            raise ObservationWhileCongested(f"destination {dest} is marked congested")
        values = self._values
        sample = max(int(sample_us), 1)
        old = values.get(dest)
        if old is not None:
            num = self._num
            den = self._den
            sample = (num * old + (den - num) * sample + den // 2) // den
        values[dest] = sample
        return sample

    def assign(self, dest: int, value_us: int) -> int:
        """Overwrite the estimate outright (probe re-admission does this)."""
        if dest in self._congested:
            raise ObservationWhileCongested(f"destination {dest} is marked congested")
        self._values[dest] = value = max(int(value_us), 1)
        return value

    def mark_congested(self, dest: int) -> None:
        """Add the destination to the congested set: ``get`` reports None
        until the clear, and ``observe`` and ``assign`` refuse it, so its
        estimate is frozen. Idempotent."""
        self._congested.add(dest)
        self._values.setdefault(dest, None)

    def clear_congestion(self, dest: int) -> int | None:
        """Take the destination out of the set and return its estimate, None if
        never measured."""
        if dest not in self._congested:
            raise NotCongested(f"destination {dest} is not congested")
        self._congested.remove(dest)
        return self._values[dest]

    def get(self, dest: int) -> int | None:
        """Current weight in microseconds; None while congested (see
        ``is_congested``) or when never measured."""
        if dest in self._congested:
            return None
        return self._values.get(dest)

    def is_congested(self, dest: int) -> bool:
        return dest in self._congested

    def snapshot(self) -> dict:
        """Serializable state: {dest: {weight, congested, shadow}}; a
        congested destination's frozen estimate shows as its ``shadow``."""
        congested = self._congested
        return {
            dest: {"weight": None, "congested": True, "shadow": value}
            if dest in congested
            else {"weight": value, "congested": False, "shadow": None}
            for dest, value in sorted(self._values.items())
        }
