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

* The **probe index** (round-robin): a ``SortedKeys`` of every destination
  that is not active, not probing and not congested. One that may be probed
  now is filed at 0, and one waiting out a backoff at its ``eligible_at``,
  which is above the ``now`` it was filed at, so at least 1. ``_refresh``
  re-files a destination each time its active, probing, congestion or
  ``eligible_at`` state changes. The entries at 0 are a prefix of ``order``
  in id order, ``ready = bisect_left(order, 1 << shift)`` long. A selection
  whose front is at or below ``now`` first re-files the entries whose time
  has come at 0, then probes ``order[rng.randrange(ready)] & mask``: the
  same single ``_randbelow`` draw and the same pick as ``Random.choice``
  over a full scan in id order.
* The **weight index**: a ``SortedKeys`` of the round-robin active set's
  weights, whose front is the active minimum, or of every finite measured
  weight for least-impedance, whose front is the pick.
* The **bootstrap index** (least-impedance, random-proportional): a
  ``SortedKeys`` of the ids never measured and not congested, each at 0, so
  ``order`` is the ids themselves in id order. A first observation or a
  congestion mark removes an id; a clear that brings back a never-measured
  destination puts it back.

* The **reciprocal sums** (random-proportional): ``1.0 / w`` per position in
  ``destinations`` order, ``0.0`` for a congested or never-measured
  destination, their running sums with a leading ``0.0``, and the first
  position whose reciprocal changed since the sums were last brought up to
  date. An observation, a mark or a clear writes one reciprocal and lowers
  that position; the next selection re-accumulates only the tail from there,
  seeded with the sum before it. Every selection draws with one
  ``rng.random()`` times the total and one ``bisect_right`` over the sums.

A ``SortedKeys`` entry is the int ``value << shift | key`` (``ledger``), so
a front is read inline: ``order[0] >> shift`` is its value and ``order[0] &
mask`` its id. A round-robin request therefore costs 6 frames in this
module, ``ledger`` and ``estimator``. A selection that is not a probe runs
``select``, ``_select_rr`` and ``DeficitLedger.charge``, one step of the
deficit scheduler: the ledger charges its front that destination's weight
from the weight index, which for an active destination equals
``table.get``, and re-sorts it in place. A response from an active destination
runs ``on_response``, ``WeightTable.observe`` and ``SortedKeys.set``: the
active set is the key set of both the ledger and the weight index, so
membership is one dict lookup, and the active minimum is the weight index's
front. Least-impedance and random-proportional cost 4.

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

A selection is the chosen destination id, a plain ``int``. It is a probe
exactly when ``probing`` holds it afterwards: only round-robin probes.
``_position`` maps each managed id to its place in ``destinations``; it
tells a managed destination from another lambda's and gives a reciprocal
its slot.

The kind is resolved once, at construction, into plain flags: ``_rr`` for
round-robin and ``_li`` for least-impedance, with random-proportional
neither. ``select``, ``on_response`` and ``sync_congestion`` branch on these
flags and never on ``PolicyKind``, whose members are slow to read on
CPython 3.11: ``EnumType`` defines ``__getattr__`` there, so every
``PolicyKind.X`` goes through the generic attribute hook instead of the
interpreter's cached class lookup, at about 145 ns against 15 ns for an
instance flag (``timeit``, x86-64). ``kind`` itself stays for
``snapshot()``.

A third flag, ``_drawable``, lets a random-proportional selection go
straight to its draw. When it is set, the policy is random-proportional, the
sums are current (``_stale == k``), their total is above 0 and the bootstrap
list is empty; ``select`` then makes the draw and nothing else. Otherwise
``select`` takes the slow path: the round-robin pick, the bootstrap, the
least-impedance pick, or, for random-proportional, the tail
re-accumulation, ``NoEligibleDestination`` on a zero total, and setting the
flag before the same draw line. Exactly two writes clear it:
``_set_reciprocal`` when a reciprocal changes (an observation, a mark, or a
clear that restores a weight), and a clear that puts a never-measured
destination back on the bootstrap index, which changes no reciprocal.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_left, bisect_right
from itertools import accumulate

from .core import US_PER_MS
from .estimator import DEFAULT_ALPHA, ObservationWhileCongested, WeightTable
from .ledger import DeficitLedger, EmptyLedger, SortedKeys, UnknownDestination

DEFAULT_B_MIN_US = 100 * US_PER_MS


class NoEligibleDestination(Exception):
    """Every destination is congested, unmeasured, or waiting out a backoff."""


class PolicyKind(enum.Enum):
    LEAST_IMPEDANCE = "li"
    RANDOM_PROPORTIONAL = "rp"
    ROUND_ROBIN = "rr"


class PolicyState:
    """Forwarding state for one (router, lambda) pair.

    Owned and mutated by a single router; never shared. ``destinations``
    must be distinct and not empty; ``ValueError`` otherwise. ``table``
    holds the pair's latency estimates, smoothed by ``alpha``; only this
    object writes to it. ``rng`` drives the random-proportional draw and the
    probe pick, so a seed makes the whole policy replayable. ``now`` never
    decreases from one call to the next. The round-robin active set is the
    ledger's key set, and only round-robin fills ``backoff`` and
    ``eligible_at``.
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
        self.destinations = sorted(destinations)
        if len(set(self.destinations)) != len(self.destinations):
            raise ValueError(f"duplicate destination in {self.destinations}")
        self.kind = kind
        self.table = WeightTable(alpha)
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
        self._probes = SortedKeys()
        self._weights = SortedKeys()
        self._unmeasured = SortedKeys()
        filed = self._probes if rr else self._unmeasured
        for dest in self.destinations:
            filed.set(dest, 0)
        k = len(self.destinations)
        self._reciprocals = [0.0] * k
        self._sums = [0.0] * (k + 1)
        self._stale = k
        self._drawable = False
        self._position = {d: i for i, d in enumerate(self.destinations)}
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
            state._probes.discard(dest)
            state._unmeasured.discard(dest)
        return state

    # -- selection ---------------------------------------------------------

    def select(self, now: int) -> int:
        if not self._drawable:
            if self._rr:
                return self._select_rr(now)
            unmeasured = self._unmeasured.order
            if unmeasured:
                # Bootstrap: hand requests to the not-yet-measured destinations
                # in id order until each has produced a first sample. Starting
                # the estimate at zero instead would hand the whole reciprocal
                # probability mass to whichever destination answered last.
                # Every value is 0, so an entry is its id.
                dest = unmeasured[self._bootstrap_cursor % len(unmeasured)]
                self._bootstrap_cursor += 1
                return dest
            if self._li:
                weights = self._weights
                if not weights.order:
                    raise NoEligibleDestination("no destination with a finite weight")
                return weights.order[0] & weights.mask
            # Random-proportional with the draw not ready: re-accumulate the
            # sums from the first stale position on (none when they are
            # current), seeded with the sum before it (``_sums[i + 1]`` runs
            # through position ``i``).
            sums, i = self._sums, self._stale
            reciprocals = self._reciprocals
            sums[i:] = accumulate(reciprocals[i:], initial=sums[i])
            self._stale = len(reciprocals)
            if sums[-1] == 0.0:
                raise NoEligibleDestination("no destination with a finite weight")
            self._drawable = True
        # Random-proportional: reciprocal weights, normalized. random() is at
        # most 1 - 2**-53, and under round-to-nearest that times any total
        # from 2**-1021 up (a reciprocal of integer microseconds is far above
        # it) rounds below the total, so some bound exceeds the draw and the
        # pick is always in range.
        sums = self._sums
        return self.destinations[bisect_right(sums, self.rng.random() * sums[-1]) - 1]

    def _select_rr(self, now: int) -> int:
        probes = self._probes
        order = probes.order
        if order and order[0] >> probes.shift <= now:
            # The entries at 0, the ones that may be probed, are a prefix in
            # id order; a backoff that has run out joins it.
            shift, mask = probes.shift, probes.mask
            ready = bisect_left(order, 1 << shift)
            while ready < len(order) and order[ready] >> shift <= now:
                probes.set(order[ready] & mask, 0)
                ready += 1
            dest = order[self.rng.randrange(ready)] & mask
            probes.discard(dest)
            self.probing.add(dest)
            self.probes_launched += 1
            return dest
        # An active destination's weight is its table estimate.
        try:
            return self.ledger.charge(self._weights.values)
        except EmptyLedger:
            raise NoEligibleDestination(
                "active set empty and no destination is probe-eligible"
            ) from None

    # -- feedback ----------------------------------------------------------

    def on_response(self, dest: int, measured_us: int, now: int) -> None:
        """Fold one response latency back into the policy state.

        A response from a destination marked congested while the request was
        in flight still reaches the client, but its measurement is discarded
        and only counted in ``responses_unmeasured``. The table says so as it
        refuses the sample, so a response looks its entry up once. Round-robin
        asks only when the destination is neither probing nor active: a mark
        evicts it and drops its probe, and nothing re-files a congested one.
        """
        if dest not in self._position:
            raise UnknownDestination(f"destination {dest} is not managed here")
        table = self.table
        if not self._rr:
            try:
                weight = table.observe(dest, measured_us)
            except ObservationWhileCongested:
                self.responses_unmeasured += 1
                return
            if self._unmeasured.values:
                self._unmeasured.discard(dest)
            if self._li:
                self._weights.set(dest, weight)
            else:
                self._set_reciprocal(dest, 1.0 / weight)
            return
        # The active set is the key set of both the ledger and the weight
        # index, whose front is the active minimum.
        weights = self._weights
        if dest in self.probing:
            self.probing.discard(dest)
            value = max(int(measured_us), 1)
            # An empty active set admits any probe, otherwise nothing could
            # ever bootstrap the scheduler.
            if not weights.order or value <= 2 * (weights.order[0] >> weights.shift):
                self.ledger.admit(dest, value)
                table.assign(dest, value)
                weights.set(dest, value)
                self.backoff[dest] = self.b_min_us
                self.probes_admitted += 1
            else:
                self.backoff[dest] *= 2
                self.eligible_at[dest] = now + self.backoff[dest]
                self.probes_rejected += 1
            self._refresh(dest, now)
        elif dest in weights.values:
            new_weight = table.observe(dest, measured_us)
            weights.set(dest, new_weight)
            if new_weight > 2 * (weights.order[0] >> weights.shift):
                self.ledger.evict(dest)
                weights.discard(dest)
                self.eligible_at[dest] = now + self.backoff[dest]
                self._refresh(dest, now)
        elif table.is_congested(dest):
            self.responses_unmeasured += 1
        else:
            # Response for a destination evicted (or de-probed by a congestion
            # signal that has since cleared) while the request was in flight:
            # stale, keep the count.
            self.stale_responses += 1

    # -- indexes -----------------------------------------------------------

    def _refresh(self, dest: int, now: int) -> None:
        """File a round-robin destination in the probe index, at 0 if it may
        be probed now and at its ``eligible_at`` otherwise; take it out while
        it is active, probing or congested."""
        if dest in self.ledger or dest in self.probing or self.table.is_congested(dest):
            self._probes.discard(dest)
        else:
            eligible_at = self.eligible_at[dest]
            self._probes.set(dest, 0 if eligible_at <= now else eligible_at)

    def _set_reciprocal(self, dest: int, reciprocal: float) -> None:
        """Store ``dest``'s reciprocal weight; the sums after it go stale and
        the draw waits for them."""
        i = self._position[dest]
        if self._reciprocals[i] != reciprocal:
            self._reciprocals[i] = reciprocal
            self._drawable = False
            if i < self._stale:
                self._stale = i

    # -- congestion --------------------------------------------------------

    def sync_congestion(self, dest: int, congested: bool, now: int) -> int | None:
        """Apply a congestion signal from the controller. Idempotent.

        Returns ``table.get(dest)`` just before a mark or just after a
        clear: the weight, or None when the destination is congested or
        unmeasured at that moment. The router
        signals every lambda; a destination of another lambda is not managed
        here, gets None and changes nothing.
        """
        if dest not in self._position:
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
                self._unmeasured.discard(dest)
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
                    self._unmeasured.set(dest, 0)
                    self._drawable = False
                elif self._li:
                    self._weights.set(dest, weight)
                else:
                    self._set_reciprocal(dest, 1.0 / weight)
            weight = table.get(dest)
        return weight

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
