"""Destination selection: least-impedance, random-proportional, round-robin.

All three policies pick among the destinations of a single lambda using the
weight table the policy owns; every weight and congestion change goes
through the policy, and only finite-weight (non-congested) destinations are
ever considered. Round-robin additionally runs the active-set state machine:
destinations whose weight stays within twice the active minimum are
scheduled by deficit counter, everyone else waits for a probe slot governed
by exponential backoff.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .core import INFINITE, US_PER_MS
from .estimator import DEFAULT_ALPHA, WeightTable
from .ledger import DeficitLedger, UnknownDestination

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


class PolicyState:
    """Forwarding state for one (router, lambda) pair.

    Owned and mutated by a single router; never shared. ``table`` holds the
    pair's latency estimates, smoothed by ``alpha``; only this object writes
    to it. ``rng`` drives the random-proportional draw and the probe pick, so
    a seed makes the whole policy replayable.
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
        self.active: set[int] = set()
        self.probing: set[int] = set()
        self.backoff: dict[int, int] = {d: b_min_us for d in self.destinations}
        self.eligible_at: dict[int, int] = {d: 0 for d in self.destinations}
        self.ledger = DeficitLedger()
        self._bootstrap_cursor = 0
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
            state.table.assign(dest, weights_us[dest])
            if kind is PolicyKind.ROUND_ROBIN:
                state.ledger.admit(dest, 0)
                state.active.add(dest)
        return state

    # -- selection ---------------------------------------------------------

    def select(self, now: int) -> SelectionOutcome:
        if self.kind is PolicyKind.ROUND_ROBIN:
            return self._select_rr(now)
        return self._select_greedy()

    def _select_greedy(self) -> SelectionOutcome:
        get = self.table.get
        weights = [(get(d), d) for d in self.destinations]
        unmeasured = [d for w, d in weights if w is None]
        if unmeasured:
            # Bootstrap: hand requests to the not-yet-measured destinations in
            # id order until each has produced a first sample. Starting the
            # estimate at zero instead would hand the whole reciprocal
            # probability mass to whichever destination answered last.
            dest = unmeasured[self._bootstrap_cursor % len(unmeasured)]
            self._bootstrap_cursor += 1
            return SelectionOutcome(dest, is_probe=False)
        measured = [(w, d) for w, d in weights if w is not INFINITE]
        if not measured:
            raise NoEligibleDestination("no destination with a finite weight")
        if self.kind is PolicyKind.LEAST_IMPEDANCE:
            _, dest = min(measured)
            return SelectionOutcome(dest, is_probe=False)
        # Random-proportional: reciprocal weights, normalized.
        total = 0.0
        cumulative = []
        for weight, d in measured:
            total += 1.0 / weight
            cumulative.append((total, d))
        draw = self.rng.random() * total
        for bound, d in cumulative:
            if draw < bound:
                return SelectionOutcome(d, is_probe=False)
        return SelectionOutcome(cumulative[-1][1], is_probe=False)

    def _select_rr(self, now: int) -> SelectionOutcome:
        table = self.table
        eligible = [
            d
            for d in self.destinations
            if d not in self.active
            and d not in self.probing
            and not table.is_congested(d)
            and self.eligible_at[d] <= now
        ]
        if eligible:
            dest = self.rng.choice(eligible)
            self.probing.add(dest)
            self.probes_launched += 1
            return SelectionOutcome(dest, is_probe=True)
        if len(self.ledger) == 0:
            raise NoEligibleDestination(
                "active set empty and no destination is probe-eligible"
            )
        dest = self.ledger.pop_min()
        weight = table.get(dest)
        self.ledger.charge(dest, weight)
        return SelectionOutcome(dest, is_probe=False)

    # -- feedback ----------------------------------------------------------

    def on_response(self, dest: int, measured_us: int, now: int) -> None:
        """Fold one response latency back into the policy state.

        A response from a destination marked congested while the request was
        in flight still reaches the client, but its measurement is discarded
        and only counted in ``responses_unmeasured``.
        """
        if dest not in self.backoff:
            raise UnknownDestination(f"destination {dest} is not managed here")
        table = self.table
        if table.is_congested(dest):
            self.responses_unmeasured += 1
            return
        if self.kind is not PolicyKind.ROUND_ROBIN:
            table.observe(dest, measured_us)
            return
        if dest in self.probing:
            self.probing.discard(dest)
            value = max(int(measured_us), 1)
            if value <= 2 * self._min_active_weight():
                self.ledger.admit(dest, value)
                self.active.add(dest)
                table.assign(dest, value)
                self.backoff[dest] = self.b_min_us
                self.probes_admitted += 1
            else:
                self.backoff[dest] *= 2
                self.eligible_at[dest] = now + self.backoff[dest]
                self.probes_rejected += 1
        elif dest in self.active:
            new_weight = table.observe(dest, measured_us)
            if new_weight > 2 * self._min_active_weight():
                self.ledger.evict(dest)
                self.active.discard(dest)
                self.eligible_at[dest] = now + self.backoff[dest]
        else:
            # Response for a destination evicted (or de-probed by a congestion
            # signal) while the request was in flight: stale, keep the count.
            self.stale_responses += 1

    def _min_active_weight(self) -> int | float:
        if not self.active:
            # Empty active set admits any probe, otherwise nothing could ever
            # bootstrap the scheduler.
            return float("inf")
        get = self.table.get
        return min(get(d) for d in self.active)

    # -- congestion --------------------------------------------------------

    def sync_congestion(self, dest: int, congested: bool, now: int) -> int | None:
        """Apply a congestion signal from the controller. Idempotent.

        Returns the finite weight just before a mark or just after a clear,
        or None when the destination has none at that moment.
        """
        table = self.table
        if congested:
            weight = table.get(dest)
            table.mark_congested(dest)
            if self.kind is PolicyKind.ROUND_ROBIN:
                if dest in self.active:
                    self.ledger.evict(dest)
                    self.active.discard(dest)
                self.probing.discard(dest)
        else:
            if table.is_congested(dest):
                table.clear_congestion(dest)
                if self.kind is PolicyKind.ROUND_ROBIN:
                    self.eligible_at[dest] = now
            weight = table.get(dest)
        return None if weight is INFINITE else weight

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "kind": self.kind.value,
            "active": sorted(self.active),
            "probing": sorted(self.probing),
            "backoff_us": dict(sorted(self.backoff.items())),
            "eligible_at_us": dict(sorted(self.eligible_at.items())),
            "deficits_us": self.ledger.decode(),
            "probes_launched": self.probes_launched,
            "probes_admitted": self.probes_admitted,
            "probes_rejected": self.probes_rejected,
            "stale_responses": self.stale_responses,
        }
