"""Deterministic discrete-event simulation of clients, routers, and computers.

One event loop drives the whole scenario: requests issued by clients reach
their router, get dispatched by the configured policy, travel a fixed-latency
link, queue for one of the computer's workers, execute, and travel back. The
router measures dispatch-to-response time and feeds it to the policy.
Congestion signals arrive on a script and toggle per-(router, computer)
blackouts. Identical scenario and seed always reproduce the identical trace.

Events at the same microsecond run in this order:

1. congestion toggles, ordered by their window's (start, router, computer);
   windows on one pair never overlap, so a touching window's clear precedes
   its mark;
2. arrivals, in ``seq`` order;
3. events pushed while the simulation runs, in push order.

A service start is not an event: a request takes a worker the moment it is
delivered to an idle one, or the moment a worker it queued for frees up.

Each request ends as one ``TraceRow``, built once, positionally, when the
request completes or is given up. A row is slotted and frozen, and checks
its own delays with ``core.check_delays``: a row whose delays are negative
or do not add up to its span cannot be built, here or when a trace is read
back.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .core import check_delays
from .core import RequestRecord  # noqa: F401 (unused; perfbench/run.py wraps simnet.RequestRecord)
from .policy import NoEligibleDestination, PolicyState
from .scenario import Scenario, ensure_valid


class UnknownLambda(KeyError):
    """A computer was asked to run a lambda it has no service time for."""


# Event kinds, in the order a request experiences them.
ARRIVAL = "arrival"  # request reaches its router
DELIVER = "deliver"  # request reaches the computer
SERVICE_END = "service-end"
RESPONSE = "response"  # response reaches the router
TOGGLE = "congestion-toggle"
RETRY = "retry"  # router re-attempts a dispatch that found no destination


@dataclass(frozen=True, slots=True)
class TraceRow:
    """One request's outcome. Completed rows carry the full delay breakdown;
    unserved rows have destination -1 and no completion fields.

    A completed row must have non-negative times and delays whose sum is its
    span (``core.check_delays``); construction raises ValueError otherwise.
    """

    seq: int
    lam: int
    router: int
    destination: int
    issued_us: int
    completed_us: int | None
    transfer_us: int | None
    queue_us: int | None
    processing_us: int | None
    is_probe: bool
    policy: str
    # Not part of the on-disk trace format:
    dispatch_us: int | None = None
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.completed_us is not None:
            check_delays(
                self.issued_us,
                self.completed_us,
                self.transfer_us,
                self.queue_us,
                self.processing_us,
            )

    @property
    def latency_us(self) -> int | None:
        if self.completed_us is None:
            return None
        return self.completed_us - self.issued_us


@dataclass(frozen=True)
class CongestionLogEntry:
    """Weight evidence around one congestion toggle: the value just before a
    mark, or the value just restored by a clear (per lambda; None when the
    pair had no finite estimate at that moment)."""

    at_us: int
    router: int
    computer: int
    congested: bool
    weights_us: tuple[tuple[int, int | None], ...]


@dataclass(frozen=True)
class SimResult:
    scenario: str
    policy: str
    seed: int
    duration_us: int
    arrivals: int
    completed: tuple[TraceRow, ...]
    unserved: tuple[TraceRow, ...]
    snapshot: dict
    congestion_log: tuple[CongestionLogEntry, ...]

    @property
    def rows(self) -> list[TraceRow]:
        """All rows, in issue order."""
        return sorted(self.completed + self.unserved, key=lambda r: r.seq)


def arrival_process(kind: str, rate_per_s: float, seed: int = 0) -> Iterator[int]:
    """Endless stream of issue times in microseconds.

    ``deterministic`` spaces requests evenly at 1/rate; ``poisson`` draws
    exponential gaps. Both round to whole microseconds at emission, keeping
    the underlying accumulator exact so rounding never drifts.
    """
    if rate_per_s <= 0:
        raise ValueError("arrival rate must be positive")
    if kind == "deterministic":
        period_us = 1_000_000 / rate_per_s
        for k in itertools.count(1):
            yield round(k * period_us)
    elif kind == "poisson":
        rng = random.Random(seed)
        rate_per_us = rate_per_s / 1_000_000
        t = 0.0
        while True:
            t += rng.expovariate(rate_per_us)
            yield round(t)
    else:
        raise ValueError(f"unknown arrival process {kind!r}")


class _Computer:
    __slots__ = ("id", "workers", "beta", "service_us", "busy", "queue")

    def __init__(self, spec) -> None:
        self.id = spec.id
        self.workers = spec.workers
        self.beta = spec.beta
        self.service_us = dict(spec.service_us)
        self.busy = 0
        self.queue: deque = deque()


def service_time(computer: _Computer, lam: int) -> int:
    """Processing time for one invocation under the computer's current load.

    The base time scales by 1 + beta * busy/workers, where busy already
    counts the request being started. It also counts requests started
    earlier in the same microsecond, never ones started later.
    """
    if lam not in computer.service_us:
        raise UnknownLambda(f"computer {computer.id} has no service time for lambda {lam}")
    base = computer.service_us[lam]
    if computer.beta == 0:
        return base
    return round(base * (1 + computer.beta * computer.busy / computer.workers))


class _Router:
    __slots__ = ("id", "links_us", "policies")

    def __init__(self, spec, policy_seeds, policy_cfg) -> None:
        self.id = spec.id
        self.links_us = dict(spec.links_us)
        self.policies: dict[int, PolicyState] = {}
        for l in sorted(spec.lambdas, key=lambda l: l.id):
            self.policies[l.id] = PolicyState(
                policy_cfg.kind,
                list(l.destinations),
                seed=policy_seeds[(spec.id, l.id)],
                b_min_us=policy_cfg.b_min_us,
                alpha=policy_cfg.alpha,
            )


class _Request:
    __slots__ = (
        "seq",
        "lam",
        "router",
        "issued_us",
        "client_link_us",
        "dispatch_us",
        "destination",
        "is_probe",
        "delivered_us",
        "service_start_us",
        "processing_us",
        "retries",
    )

    def __init__(self, seq, lam, router, issued_us, client_link_us) -> None:
        self.seq = seq
        self.lam = lam
        self.router = router
        self.issued_us = issued_us
        self.client_link_us = client_link_us
        self.dispatch_us = None
        self.destination = None
        self.is_probe = False
        self.delivered_us = None
        self.service_start_us = None
        self.processing_us = None
        self.retries = 0


class _Sim:
    def __init__(self, scenario: Scenario) -> None:
        ensure_valid(scenario)
        self.s = scenario
        self.duration = scenario.duration_us
        self.policy_label = scenario.policy.kind.value
        self.heap: list = []
        self.counter = itertools.count()
        self.completed: list[TraceRow] = []
        self.unserved: list[TraceRow] = []
        self.congestion_log: list[CongestionLogEntry] = []
        self.computers = {c.id: _Computer(c) for c in scenario.computers}

        # Seed streams are drawn in a fixed order that depends only on the
        # topology and workload, never on the policy kind, so runs of
        # different policies over the same scenario see identical arrivals.
        master = random.Random(scenario.seed)
        ordered_workload = sorted(
            scenario.workload, key=lambda w: (w.router, w.lam)
        )
        arrival_seeds = [master.getrandbits(48) for _ in ordered_workload]
        policy_seeds = {}
        for r in sorted(scenario.routers, key=lambda r: r.id):
            for l in sorted(r.lambdas, key=lambda l: l.id):
                policy_seeds[(r.id, l.id)] = master.getrandbits(48)

        self.routers = {
            r.id: _Router(r, policy_seeds, scenario.policy)
            for r in sorted(scenario.routers, key=lambda r: r.id)
        }

        # Toggles go on the heap first, then arrivals: the push counter is
        # the tie-break that gives the order in the module docstring.
        for win in sorted(
            scenario.congestion, key=lambda w: (w.start_us, w.router, w.computer)
        ):
            self._push(win.start_us, TOGGLE, (win.router, win.computer, True))
            self._push(win.end_us, TOGGLE, (win.router, win.computer, False))

        issues: list[tuple[int, int, object]] = []
        for idx, w in enumerate(ordered_workload):
            stream = arrival_process(w.process, w.rate_per_s, arrival_seeds[idx])
            for t in stream:
                if t >= self.duration:
                    break
                issues.append((t, idx, w))
        issues.sort(key=lambda item: (item[0], item[1]))
        for seq, (t, _idx, w) in enumerate(issues):
            req = _Request(seq, w.lam, w.router, t, w.client_link_us)
            self._push(t + w.client_link_us, ARRIVAL, req)
        self.arrivals = len(issues)

    def _push(self, at: int, kind: str, payload) -> None:
        heapq.heappush(self.heap, (at, next(self.counter), kind, payload))

    # -- handlers ----------------------------------------------------------

    def _try_dispatch(self, now: int, req: _Request) -> None:
        router = self.routers[req.router]
        try:
            outcome = router.policies[req.lam].select(now)
        except NoEligibleDestination:
            retry_at = now + self.s.policy.retry_us
            if retry_at >= self.duration:
                self.unserved.append(
                    TraceRow(
                        req.seq, req.lam, req.router, -1, req.issued_us,
                        None, None, None, None, False, self.policy_label,
                        None, "no-eligible-destination",
                    )
                )
            else:
                self._push(retry_at, RETRY, req)
            return
        req.destination = outcome.destination
        req.is_probe = outcome.is_probe
        req.dispatch_us = now
        self._push(now + router.links_us[outcome.destination], DELIVER, req)

    def _start(self, now: int, comp: _Computer, req: _Request) -> None:
        comp.busy += 1
        req.service_start_us = now
        req.processing_us = service_time(comp, req.lam)
        self._push(now + req.processing_us, SERVICE_END, req)

    def _on_deliver(self, now: int, req: _Request) -> None:
        comp = self.computers[req.destination]
        req.delivered_us = now
        if comp.busy < comp.workers:
            self._start(now, comp, req)
        else:
            comp.queue.append(req)

    def _on_service_end(self, now: int, req: _Request) -> None:
        comp = self.computers[req.destination]
        comp.busy -= 1
        router = self.routers[req.router]
        self._push(now + router.links_us[req.destination], RESPONSE, req)
        if comp.queue:
            self._start(now, comp, comp.queue.popleft())

    def _on_response(self, now: int, req: _Request) -> None:
        router = self.routers[req.router]
        dest = req.destination
        dispatched = req.dispatch_us
        router.policies[req.lam].on_response(dest, now - dispatched, now)
        client = req.client_link_us
        issued = req.issued_us
        # Positional, in field order: ..., issued, completed, transfer, queue,
        # processing, is_probe, policy, dispatch_us.
        self.completed.append(
            TraceRow(
                req.seq, req.lam, req.router, dest, issued, now + client,
                2 * (client + router.links_us[dest]),
                (dispatched - issued - client) + (req.service_start_us - req.delivered_us),
                req.processing_us, req.is_probe, self.policy_label, dispatched,
            )
        )

    def _on_toggle(self, now: int, payload) -> None:
        rid, dest, on = payload
        policies = self.routers[rid].policies
        weights = tuple(
            (lam, policies[lam].sync_congestion(dest, on, now)) for lam in sorted(policies)
        )
        self.congestion_log.append(
            CongestionLogEntry(
                at_us=now, router=rid, computer=dest, congested=on, weights_us=weights
            )
        )

    # -- loop --------------------------------------------------------------

    def run(self) -> SimResult:
        handlers = {
            ARRIVAL: self._try_dispatch,
            RETRY: self._try_dispatch,
            DELIVER: self._on_deliver,
            SERVICE_END: self._on_service_end,
            RESPONSE: self._on_response,
            TOGGLE: self._on_toggle,
        }
        heap = self.heap
        while heap:
            at, _, kind, payload = heapq.heappop(heap)
            handlers[kind](at, payload)
        snapshot = {"routers": {}}
        for rid, router in self.routers.items():
            lambdas = {}
            for lam, policy in router.policies.items():
                lambdas[lam] = {
                    "weights": policy.table.snapshot(),
                    "policy": policy.snapshot(),
                    "responses_unmeasured": policy.responses_unmeasured,
                }
            snapshot["routers"][rid] = {"lambdas": lambdas}
        self.completed.sort(key=lambda r: r.seq)
        self.unserved.sort(key=lambda r: r.seq)
        return SimResult(
            scenario=self.s.name,
            policy=self.policy_label,
            seed=self.s.seed,
            duration_us=self.duration,
            arrivals=self.arrivals,
            completed=tuple(self.completed),
            unserved=tuple(self.unserved),
            snapshot=snapshot,
            congestion_log=tuple(self.congestion_log),
        )


def run(scenario: Scenario) -> SimResult:
    """Simulate one scenario to completion and return its full outcome.

    In-flight work left at the duration boundary drains to completion;
    arrivals stop strictly before it. Every issued request ends up in
    exactly one of ``completed`` or ``unserved``.
    """
    return _Sim(scenario).run()
