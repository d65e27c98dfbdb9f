"""Difference-encoded deficit counters and the frozen-weight replay.

The ledger keeps one entry per active destination, ordered by implied
absolute deficit with ties broken by destination id. Each entry stores only
the difference from its predecessor, so the front entry's delta is the
minimum deficit and renormalizing every counter by that minimum (done when
a destination is admitted) is a single front reset. Deficits {4, 6, 7, 7}
are held as deltas {4, 2, 1, 0}.

``replay_frozen`` is the bulk select-then-charge loop behind the fairness
suites. It does not drive ``DeficitLedger``: with weights frozen and no
admissions or evictions, a heap of ``(deficit, id)`` pairs selects in the
same order at O(log k) per step, and the test suite pins it to
select-then-charge loops over ``DeficitLedger`` and a naive oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace

# Read only by the benchmark harness, which records it in result metadata.
REPLAY_BACKEND = "pure"


class EmptyLedger(Exception):
    """Minimum requested from a ledger with no destinations."""


class UnknownDestination(Exception):
    """Operation on a destination the caller never admitted."""


class AlreadyAdmitted(Exception):
    """Admission of a destination already present."""


class DeficitLedger:
    """Sorted difference-encoded deficit counters.

    Renormalization on admit is O(1); charge and evict are O(position) plus
    an O(n) index rebuild, which is fine at the fan-outs a single router
    sees.
    """

    def __init__(self) -> None:
        self._entries: list[list[int]] = []  # [dest, delta_to_previous]
        self._pos: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, dest: int) -> bool:
        return dest in self._pos

    def pop_min(self) -> int:
        """Destination with the minimum deficit, smallest id on ties.

        Selection only; the entry stays in place.
        """
        if not self._entries:
            raise EmptyLedger("no active destinations")
        return self._entries[0][0]

    def min_deficit(self) -> int:
        if not self._entries:
            raise EmptyLedger("no active destinations")
        return self._entries[0][1]

    def max_deficit(self) -> int:
        if not self._entries:
            raise EmptyLedger("no active destinations")
        return sum(delta for _, delta in self._entries)

    def charge(self, dest: int, amount: int) -> None:
        """Increase a destination's deficit by ``amount`` and re-sort it."""
        if amount < 0:
            raise ValueError("charge amount must be non-negative")
        pos = self._pos.get(dest)
        if pos is None:
            raise UnknownDestination(f"destination {dest} is not in the ledger")
        new_value = self._implied(pos) + amount
        delta = self._entries[pos][1]
        if pos + 1 < len(self._entries):
            self._entries[pos + 1][1] += delta
        del self._entries[pos]
        self._insert(dest, new_value)

    def admit(self, dest: int, initial_deficit: int = 0) -> None:
        """Renormalize all deficits by the current minimum, then insert.

        The renormalization is the O(1) front reset; the new destination
        enters with ``initial_deficit`` (relative to the renormalized
        counters).
        """
        if dest in self._pos:
            raise AlreadyAdmitted(f"destination {dest} is already in the ledger")
        if initial_deficit < 0:
            raise ValueError("initial deficit must be non-negative")
        if self._entries:
            self._entries[0][1] = 0
        self._insert(dest, initial_deficit)

    def evict(self, dest: int) -> None:
        """Remove a destination; every other decoded deficit is unchanged."""
        pos = self._pos.get(dest)
        if pos is None:
            raise UnknownDestination(f"destination {dest} is not in the ledger")
        delta = self._entries[pos][1]
        if pos + 1 < len(self._entries):
            self._entries[pos + 1][1] += delta
        del self._entries[pos]
        self._reindex()

    def decode(self) -> dict[int, int]:
        """Absolute deficit per destination."""
        out = {}
        running = 0
        for dest, delta in self._entries:
            running += delta
            out[dest] = running
        return out

    def deltas(self) -> list[tuple[int, int]]:
        """The encoded form, in ledger order, for tests and snapshots."""
        return [(dest, delta) for dest, delta in self._entries]

    def _implied(self, pos: int) -> int:
        return sum(self._entries[i][1] for i in range(pos + 1))

    def _insert(self, dest: int, value: int) -> None:
        # Walk to the first entry ordered after (value, dest).
        running = 0
        pos = len(self._entries)
        for i, (other, delta) in enumerate(self._entries):
            running += delta
            if (running, other) > (value, dest):
                pos = i
                break
        prev_implied = running - self._entries[pos][1] if pos < len(self._entries) else running
        if pos < len(self._entries):
            self._entries[pos][1] = running - value
        self._entries.insert(pos, [dest, value - prev_implied])
        self._reindex()

    def _reindex(self) -> None:
        self._pos = {dest: i for i, (dest, _) in enumerate(self._entries)}


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of a frozen-weight select-then-charge replay.

    ``spread_violation`` / ``weighted_violation`` are the 1-based step at
    which the deficit spread (respectively the weighted selection-count
    spread) first exceeded the maximum weight, or -1 if never: the bounded
    -spread guarantees hold exactly when both stay at -1.
    """

    counts: list[int]
    deficits: list[int]
    spread_violation: int
    weighted_violation: int
    max_spread: int
    max_weighted_spread: int
    sequence: list[int] | None

    @property
    def fair(self) -> bool:
        return self.spread_violation < 0 and self.weighted_violation < 0


def replay_frozen(
    weights: list[int], steps: int, record_sequence: bool = False
) -> ReplayResult:
    """Run ``steps`` rounds of select-then-charge over frozen weights.

    Destination ids are the indices of ``weights`` (microseconds, positive);
    every destination starts admitted with deficit zero.

    Each step costs O(log k). A heap of ``(deficit, id)`` selects in the
    ledger's own order (smallest deficit, then smallest id), and since
    deficits only grow, the largest is a running max. The weighted counts
    ``count * weight`` are tracked apart from the deficits, with their own
    running max and a min-heap whose stale entries are dropped lazily.
    """
    k = len(weights)
    if k == 0:
        raise ValueError("need at least one destination")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    max_w = max(weights)
    deficit_heap = [(0, dest) for dest in range(k)]  # sorted, hence a heap
    product_heap = [(0, dest) for dest in range(k)]
    counts = [0] * k
    products = [0] * k
    sequence: list[int] | None = [] if record_sequence else None
    top_deficit = 0
    top_product = 0
    spread_violation = -1
    weighted_violation = -1
    max_spread = 0
    max_weighted = 0
    for step in range(1, steps + 1):
        deficit, dest = deficit_heap[0]
        weight = weights[dest]
        deficit += weight
        heapreplace(deficit_heap, (deficit, dest))
        if deficit > top_deficit:
            top_deficit = deficit
        count = counts[dest] + 1
        counts[dest] = count
        product = count * weight
        products[dest] = product
        if product > top_product:
            top_product = product
        heappush(product_heap, (product, dest))
        while product_heap[0][0] != products[product_heap[0][1]]:
            heappop(product_heap)
        if sequence is not None:
            sequence.append(dest)
        spread = top_deficit - deficit_heap[0][0]
        if spread > max_spread:
            max_spread = spread
        if spread > max_w and spread_violation < 0:
            spread_violation = step
        weighted = top_product - product_heap[0][0]
        if weighted > max_weighted:
            max_weighted = weighted
        if weighted > max_w and weighted_violation < 0:
            weighted_violation = step
    deficits = [0] * k
    for deficit, dest in deficit_heap:
        deficits[dest] = deficit
    return ReplayResult(
        counts,
        deficits,
        spread_violation,
        weighted_violation,
        max_spread,
        max_weighted,
        sequence,
    )
