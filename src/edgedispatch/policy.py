"""Destination selection: least-impedance, random-proportional, round-robin.

All three policies pick among the destinations of a single lambda using the
weight table the policy owns; every weight and congestion change goes
through the policy, and only finite-weight (non-congested) destinations are
ever considered. Round-robin additionally runs the active-set state machine:
destinations whose weight stays within twice the active minimum are
scheduled by deficit counter, everyone else waits for a probe slot governed
by exponential backoff.

Because every change goes through the policy, it keeps indexes up to date as
the state changes, so that no selection scans all k destinations:

* The **ready list** (round-robin): the sorted ids that may be probed now,
  that is not active, not probing, not congested and with ``eligible_at``
  reached. A probe is ``ready[rng.randrange(len(ready))]``: the same single
  ``_randbelow`` draw and the same pick as ``Random.choice`` over a full
  scan in id order. ``_refresh`` re-files a destination each time its active,
  probing, congestion or ``eligible_at`` state changes.
* The **pending index** (round-robin): a ``SortedKeys`` of ``eligible_at``
  over the destinations waiting out a backoff. ``_refresh`` files each one
  that may be probed in exactly one of it and the ready list; a selection
  first re-files the fronts whose time has come.
* The **weight index**: a ``SortedKeys`` of the round-robin active set's
  weights, whose front is the active minimum, or of every finite measured
  weight for least-impedance, whose front is the pick.
* The **bootstrap list** (least-impedance, random-proportional): the sorted
  ids never measured and not congested. A first observation or a congestion
  mark removes an id; a clear that brings back a never-measured destination
  puts it back.

* The **reciprocal sums** (random-proportional): ``1.0 / w`` per position in
  ``destinations`` order, ``0.0`` for a congested or never-measured
  destination, their running sums with a leading ``0.0``, and the first
  position whose reciprocal changed since the sums were last brought up to
  date. An observation, a mark or a clear writes one reciprocal and lowers
  that position; a selection re-accumulates only the tail from there, seeded
  with the sum before it, and bisects for the pick.

The random-proportional draw must reproduce the full scan's float sums bit
for bit, or the picks and the traces move. A partial-sum tree would add in
another order, so the sums stay a left-to-right running total, and the tail
re-accumulation makes the same IEEE additions in the same order as a
``total += 1.0 / w`` loop over the finite weights. A zero reciprocal is
exact to carry along: for ``x >= 0``, ``x + 0.0 == x``, so the sums are the
scan's with repeated entries where it skipped one. ``bisect_right`` finds the
first bound above the draw, which is where the scan's ``draw < bound`` first
held, and a zero entry never wins because its bound equals the one before it.
No exact index can do better than the changed tail: one changed reciprocal
can change the rounding of every later partial sum, so a selection costs
O(k - first changed position) additions, done in C by ``accumulate``.

``SelectionOutcome`` is frozen, so a policy builds one non-probe outcome per
destination up front, and every non-probe selection returns one of these
interned objects instead of allocating: found by position for the
random-proportional bisect, by id otherwise. Only a round-robin probe builds
a fresh ``SelectionOutcome(dest, is_probe=True)``.

The kind is resolved once, at construction, into two plain flags: ``_rr``
for round-robin and ``_li`` for least-impedance, with random-proportional
neither. ``select``, ``on_response`` and ``sync_congestion`` branch on these
flags and never on ``PolicyKind``, whose members are slow to read on
CPython 3.11: ``EnumType`` defines ``__getattr__`` there, so every
``PolicyKind.X`` goes through the generic attribute hook instead of the
interpreter's cached class lookup, at about 145 ns against 15 ns for an
instance flag (``timeit``, x86-64). ``kind`` itself stays for
``snapshot()``.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .core import INFINITE, US_PER_MS
from .estimator import DEFAULT_ALPHA, WeightTable
from .ledger import DeficitLedger, SortedKeys, UnknownDestination

DEFAULT_B_MIN_US = 100 * US_PER_MS


class NoEligibleDestination(Exception):
    """Every destination is congested, unmeasured, or waiting out a backoff."""


class PolicyKind(enum.Enum):
    LEAST_IMPEDANCE = "li"
    RANDOM_PROPORTIONAL = "rp"
    ROUND_ROBIN = "rr"


@dataclass(frozen=True)
class SelectionOutcome:
    destination: int
    is_probe: bool


def _add(items: list[int], value: int) -> None:
    """Insert ``value`` into the sorted list ``items`` unless present."""
    i = bisect_left(items, value)
    if i == len(items) or items[i] != value:
        items.insert(i, value)


def _discard(items: list[int], value: int) -> None:
    """Remove ``value`` from the sorted list ``items`` if present."""
    i = bisect_left(items, value)
    if i < len(items) and items[i] == value:
        del items[i]


class PolicyState:
    """Forwarding state for one (router, lambda) pair.

    Owned and mutated by a single router; never shared. ``table`` holds the
    pair's latency estimates, smoothed by ``alpha``; only this object writes
    to it. ``rng`` drives the random-proportional draw and the probe pick, so
    a seed makes the whole policy replayable. ``now`` never decreases from
    one call to the next. The round-robin active set is the ledger's key
    set, and only round-robin fills ``backoff`` and ``eligible_at``.
    """

    def __init__(
        self,
        kind: PolicyKind,
        destinations: list[int],
        seed: int = 0,
        b_min_us: int = DEFAULT_B_MIN_US,
        alpha: float = DEFAULT_ALPHA,
    ) -> None:
        if not destinations:
            raise ValueError("a policy needs at least one destination")
        self.kind = kind
        self.table = WeightTable(alpha)
        self.destinations = sorted(destinations)
        self.rng = random.Random(seed)
        self.b_min_us = b_min_us
        self._rr = rr = kind is PolicyKind.ROUND_ROBIN
        self._li = kind is PolicyKind.LEAST_IMPEDANCE
        self.probing: set[int] = set()
        probed = self.destinations if rr else ()
        self.backoff: dict[int, int] = dict.fromkeys(probed, b_min_us)
        self.eligible_at: dict[int, int] = dict.fromkeys(probed, 0)
        self.ledger = DeficitLedger()
        self._bootstrap_cursor = 0
        self._ready: list[int] = list(self.destinations) if rr else []
        self._pending = SortedKeys()
        self._weights = SortedKeys()
        self._unmeasured: list[int] = [] if rr else list(self.destinations)
        k = len(self.destinations)
        self._reciprocals = [0.0] * k
        self._sums = [0.0] * (k + 1)
        self._stale = k
        self._outcomes = [SelectionOutcome(d, is_probe=False) for d in self.destinations]
        self._outcome_of = dict(zip(self.destinations, self._outcomes))
        self.probes_launched = 0
        self.probes_admitted = 0
        self.probes_rejected = 0
        self.stale_responses = 0
        self.responses_unmeasured = 0

    @classmethod
    def preloaded(cls, kind: PolicyKind, weights_us: dict[int, int], **kwargs) -> "PolicyState":
        """State with every destination already measured (and, for round-robin,
        active with deficit zero). Used by tests and the proportional-draw check."""
        state = cls(kind, sorted(weights_us), **kwargs)
        for dest in state.destinations:
            weight = state.table.assign(dest, weights_us[dest])
            if kind is PolicyKind.ROUND_ROBIN:
                state.ledger.admit(dest, 0)
            if kind is PolicyKind.RANDOM_PROPORTIONAL:
                state._set_reciprocal(dest, 1.0 / weight)
            else:
                state._weights.set(dest, weight)
        state._ready.clear()
        state._unmeasured.clear()
        return state

    # -- selection ---------------------------------------------------------

    def select(self, now: int) -> SelectionOutcome:
        if self._rr:
            return self._select_rr(now)
        return self._select_greedy()

    def _select_greedy(self) -> SelectionOutcome:
        unmeasured = self._unmeasured
        if unmeasured:
            # Bootstrap: hand requests to the not-yet-measured destinations in
            # id order until each has produced a first sample. Starting the
            # estimate at zero instead would hand the whole reciprocal
            # probability mass to whichever destination answered last.
            dest = unmeasured[self._bootstrap_cursor % len(unmeasured)]
            self._bootstrap_cursor += 1
            return self._outcome_of[dest]
        if self._li:
            pairs = self._weights.pairs
            if not pairs:
                raise NoEligibleDestination("no destination with a finite weight")
            return self._outcome_of[pairs[0][1]]
        # Random-proportional: reciprocal weights, normalized.
        if self._stale < len(self._reciprocals):
            self._cumulative_sums()
        sums = self._sums
        total = sums[-1]
        if total == 0.0:
            raise NoEligibleDestination("no destination with a finite weight")
        # random() is at most 1 - 2**-53, and under round-to-nearest that
        # times any total from 2**-1021 up (a reciprocal of integer
        # microseconds is far above it) rounds below the total, so some bound
        # exceeds the draw and the pick is always in range.
        draw = self.rng.random() * total
        return self._outcomes[bisect_right(sums, draw) - 1]

    def _select_rr(self, now: int) -> SelectionOutcome:
        pending = self._pending.pairs
        while pending and pending[0][0] <= now:
            self._refresh(pending[0][1], now)
        ready = self._ready
        if ready:
            dest = ready.pop(self.rng.randrange(len(ready)))
            self.probing.add(dest)
            self.probes_launched += 1
            return SelectionOutcome(dest, is_probe=True)
        if len(self.ledger) == 0:
            raise NoEligibleDestination(
                "active set empty and no destination is probe-eligible"
            )
        dest = self.ledger.pop_min()
        self.ledger.charge(dest, self.table.get(dest))
        return self._outcome_of[dest]

    # -- feedback ----------------------------------------------------------

    def on_response(self, dest: int, measured_us: int, now: int) -> None:
        """Fold one response latency back into the policy state.

        A response from a destination marked congested while the request was
        in flight still reaches the client, but its measurement is discarded
        and only counted in ``responses_unmeasured``.
        """
        if dest not in self._outcome_of:
            raise UnknownDestination(f"destination {dest} is not managed here")
        table = self.table
        if table.is_congested(dest):
            self.responses_unmeasured += 1
            return
        if not self._rr:
            weight = table.observe(dest, measured_us)
            if self._unmeasured:
                _discard(self._unmeasured, dest)
            if self._li:
                self._weights.set(dest, weight)
            else:
                self._set_reciprocal(dest, 1.0 / weight)
            return
        if dest in self.probing:
            self.probing.discard(dest)
            value = max(int(measured_us), 1)
            if value <= 2 * self._min_active_weight():
                self.ledger.admit(dest, value)
                table.assign(dest, value)
                self._weights.set(dest, value)
                self.backoff[dest] = self.b_min_us
                self.probes_admitted += 1
            else:
                self.backoff[dest] *= 2
                self.eligible_at[dest] = now + self.backoff[dest]
                self.probes_rejected += 1
            self._refresh(dest, now)
        elif dest in self.ledger:
            new_weight = table.observe(dest, measured_us)
            self._weights.set(dest, new_weight)
            if new_weight > 2 * self._min_active_weight():
                self.ledger.evict(dest)
                self._weights.discard(dest)
                self.eligible_at[dest] = now + self.backoff[dest]
                self._refresh(dest, now)
        else:
            # Response for a destination evicted (or de-probed by a congestion
            # signal) while the request was in flight: stale, keep the count.
            self.stale_responses += 1

    def _min_active_weight(self) -> int | float:
        pairs = self._weights.pairs
        # Empty active set admits any probe, otherwise nothing could ever
        # bootstrap the scheduler.
        return pairs[0][0] if pairs else float("inf")

    # -- indexes -----------------------------------------------------------

    def _refresh(self, dest: int, now: int) -> None:
        """File a round-robin destination in the ready list or the pending
        index, or in neither while it is active, probing or congested."""
        if dest in self.ledger or dest in self.probing or self.table.is_congested(dest):
            _discard(self._ready, dest)
            self._pending.discard(dest)
        elif self.eligible_at[dest] <= now:
            self._pending.discard(dest)
            _add(self._ready, dest)
        else:
            _discard(self._ready, dest)
            self._pending.set(dest, self.eligible_at[dest])

    def _set_reciprocal(self, dest: int, reciprocal: float) -> None:
        """Store ``dest``'s reciprocal weight; the sums after it go stale."""
        i = bisect_left(self.destinations, dest)
        if self._reciprocals[i] != reciprocal:
            self._reciprocals[i] = reciprocal
            if i < self._stale:
                self._stale = i

    def _cumulative_sums(self) -> None:
        """Bring the running sums of the reciprocals (``_sums[i + 1]``
        through position ``i``) up to date, re-accumulating them from the
        first stale position on."""
        sums, i = self._sums, self._stale
        reciprocals = self._reciprocals
        sums[i:] = accumulate(reciprocals[i:], initial=sums[i])
        self._stale = len(reciprocals)

    # -- congestion --------------------------------------------------------

    def sync_congestion(self, dest: int, congested: bool, now: int) -> int | None:
        """Apply a congestion signal from the controller. Idempotent.

        Returns the finite weight just before a mark or just after a clear,
        or None when the destination has none at that moment. The router
        signals every lambda; a destination of another lambda is not managed
        here, gets None and changes nothing.
        """
        if dest not in self._outcome_of:
            return None
        table = self.table
        if congested:
            weight = table.get(dest)
            table.mark_congested(dest)
            if self._rr:
                if dest in self.ledger:
                    self.ledger.evict(dest)
                    self._weights.discard(dest)
                self.probing.discard(dest)
                self._refresh(dest, now)
            else:
                _discard(self._unmeasured, dest)
                if self._li:
                    self._weights.discard(dest)
                else:
                    self._set_reciprocal(dest, 0.0)
        else:
            if table.is_congested(dest):
                weight = table.clear_congestion(dest)
                if self._rr:
                    self.eligible_at[dest] = now
                    self._refresh(dest, now)
                elif weight is None:
                    _add(self._unmeasured, dest)
                elif self._li:
                    self._weights.set(dest, weight)
                else:
                    self._set_reciprocal(dest, 1.0 / weight)
            weight = table.get(dest)
        return None if weight is INFINITE else weight

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "kind": self.kind.value,
            "probing": sorted(self.probing),
            "backoff_us": dict(sorted(self.backoff.items())),
            "eligible_at_us": dict(sorted(self.eligible_at.items())),
            "deficits_us": self.ledger.decode(),
            "probes_launched": self.probes_launched,
            "probes_admitted": self.probes_admitted,
            "probes_rejected": self.probes_rejected,
            "stale_responses": self.stale_responses,
        }
