"""Deterministic discrete-event simulation of clients, routers, and computers.

One event loop drives the whole scenario: requests issued by clients reach
their router, get dispatched by the configured policy, travel a fixed-latency
link, queue for one of the computer's workers, execute, and travel back. The
router measures dispatch-to-response time and feeds it to the policy.
Congestion signals arrive on a script and toggle per-(router, computer)
blackouts. Identical scenario and seed always reproduce the identical trace.

Each heap entry is ``(time, class, n, handler, payload)``. The key
``(time, class, n)`` is unique and alone gives the order of events at one
microsecond:

0. congestion toggles, with ``n`` the toggle's place in window order
   (windows by start, router, computer; each one's mark, then its
   clear). Windows on one pair never overlap, so a touching window's
   clear precedes its mark;
1. arrivals, with ``n`` the request's ``seq``;
2. events pushed while the simulation runs (deliveries, service ends,
   responses, retries), with ``n`` their push order.

The loop calls the entry's bound handler; nothing looks the kind up.

Requests are issued in ``(time, workload)`` order, merged lazily from the
per-workload arrival streams, and ``seq`` is the place in that order. No
arrival lands sooner after its issue than the smallest client link, so the
loop files the next issue as an arrival once every event before that
earliest landing has run. The heap holds the toggles and the requests in
flight, never the issues still to come.

A service start is not an event: a request takes a worker the moment it is
delivered to an idle one, or the moment a worker it queued for frees up.

Each request ends as one ``TraceRow``, built once, positionally, when the
request completes or is given up. A row is slotted and frozen, and checks
its own delays: a completed row whose times or delays are negative, or
whose delays do not add up to its span, cannot be built, here or when a
trace is read back.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .policy import NoEligibleDestination, PolicyState
from .scenario import Scenario, ensure_valid


class UnknownLambda(KeyError):
    """A computer was asked to run a lambda it has no service time for."""


@dataclass(frozen=True, slots=True)
class TraceRow:
    """One request's outcome. Completed rows carry the full delay breakdown;
    unserved rows have destination -1 and no completion fields.

    A completed row must have non-negative times and delays whose sum is its
    span; construction raises ValueError otherwise. ``dispatch_us`` is the
    one field outside the on-disk trace format.
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
    dispatch_us: int | None = None

    def __post_init__(self) -> None:
        completed = self.completed_us
        if completed is None:
            return
        issued = self.issued_us
        transfer, queue, processing = self.transfer_us, self.queue_us, self.processing_us
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

    @property
    def latency_us(self) -> int | None:
        if self.completed_us is None:
            return None
        return self.completed_us - self.issued_us


# The name perfbench/run.py wraps for its ``core.request_record`` layer.
RequestRecord = TraceRow


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
    """One request in flight. It carries its (router, lambda) policy and its
    router's links, and its computer once dispatched, so no handler looks
    them up. The fields after ``links_us`` are set as the request reaches
    each stage."""

    __slots__ = (
        "seq",
        "lam",
        "router",
        "issued_us",
        "client_link_us",
        "policy",
        "links_us",
        "dispatch_us",
        "destination",
        "computer",
        "is_probe",
        "delivered_us",
        "service_start_us",
        "processing_us",
    )

    def __init__(self, seq, lam, router, issued_us, client_link_us, policy, links_us) -> None:
        self.seq = seq
        self.lam = lam
        self.router = router
        self.issued_us = issued_us
        self.client_link_us = client_link_us
        self.policy = policy
        self.links_us = links_us


# The second item of a heap key: at one microsecond, toggles run first, then
# arrivals, then run-time events.
_TOGGLE = 0
_ARRIVAL = 1
_RUNTIME = 2


def _issues(stream: Iterator[int], idx: int, duration_us: int) -> Iterator[tuple[int, int]]:
    """A workload's issue times before ``duration_us``, tagged with its index."""
    for t in stream:
        if t >= duration_us:
            return
        yield t, idx


class _Sim:
    def __init__(self, scenario: Scenario) -> None:
        ensure_valid(scenario)
        self.s = scenario
        self.duration = scenario.duration_us
        self.retry_us = scenario.policy.retry_us
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

        # Toggle n is its place in window order, so a touching window's
        # clear (numbered with the earlier window) precedes its mark.
        windows = sorted(
            scenario.congestion, key=lambda w: (w.start_us, w.router, w.computer)
        )
        on_toggle = self._on_toggle
        for i, win in enumerate(windows):
            pair = (win.router, self.routers[win.router].policies, win.computer)
            self.heap.append((win.start_us, _TOGGLE, 2 * i, on_toggle, (*pair, True)))
            self.heap.append((win.end_us, _TOGGLE, 2 * i + 1, on_toggle, (*pair, False)))
        heapq.heapify(self.heap)

        # Issues in (time, workload index) order; seq is the place in it.
        self.workloads = []
        for w in ordered_workload:
            router = self.routers[w.router]
            self.workloads.append(
                (w.lam, w.router, w.client_link_us, router.policies[w.lam], router.links_us)
            )
        self.issues = heapq.merge(
            *(
                _issues(arrival_process(w.process, w.rate_per_s, seed), idx, self.duration)
                for idx, (w, seed) in enumerate(zip(ordered_workload, arrival_seeds))
            )
        )
        # No issue arrives sooner after it is issued than this.
        self.lead_us = min((w.client_link_us for w in ordered_workload), default=0)

    # -- handlers ----------------------------------------------------------

    def _on_arrival(self, now: int, req: _Request) -> None:
        """The request reaches its router (or retries): dispatch it."""
        try:
            outcome = req.policy.select(now)
        except NoEligibleDestination:
            retry_at = now + self.retry_us
            if retry_at >= self.duration:
                self.unserved.append(
                    TraceRow(
                        req.seq, req.lam, req.router, -1, req.issued_us,
                        None, None, None, None, False, self.policy_label,
                    )
                )
            else:
                heapq.heappush(
                    self.heap, (retry_at, _RUNTIME, next(self.counter), self._on_arrival, req)
                )
            return
        dest = outcome.destination
        req.destination = dest
        req.computer = self.computers[dest]
        req.is_probe = outcome.is_probe
        req.dispatch_us = now
        heapq.heappush(
            self.heap,
            (now + req.links_us[dest], _RUNTIME, next(self.counter), self._on_deliver, req),
        )

    def _start(self, now: int, comp: _Computer, req: _Request) -> None:
        comp.busy += 1
        req.service_start_us = now
        req.processing_us = processing = service_time(comp, req.lam)
        heapq.heappush(
            self.heap, (now + processing, _RUNTIME, next(self.counter), self._on_service_end, req)
        )

    def _on_deliver(self, now: int, req: _Request) -> None:
        comp = req.computer
        req.delivered_us = now
        if comp.busy < comp.workers:
            self._start(now, comp, req)
        else:
            comp.queue.append(req)

    def _on_service_end(self, now: int, req: _Request) -> None:
        comp = req.computer
        comp.busy -= 1
        back_at = now + req.links_us[req.destination]
        heapq.heappush(
            self.heap, (back_at, _RUNTIME, next(self.counter), self._on_response, req)
        )
        if comp.queue:
            self._start(now, comp, comp.queue.popleft())

    def _on_response(self, now: int, req: _Request) -> None:
        dest = req.destination
        dispatched = req.dispatch_us
        req.policy.on_response(dest, now - dispatched, now)
        client = req.client_link_us
        issued = req.issued_us
        # Positional, in field order: ..., issued, completed, transfer, queue,
        # processing, is_probe, policy, dispatch_us.
        self.completed.append(
            TraceRow(
                req.seq, req.lam, req.router, dest, issued, now + client,
                2 * (client + req.links_us[dest]),
                (dispatched - issued - client) + (req.service_start_us - req.delivered_us),
                req.processing_us, req.is_probe, self.policy_label, dispatched,
            )
        )

    def _on_toggle(self, now: int, payload) -> None:
        rid, policies, dest, on = payload
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
        heap = self.heap
        pop = heapq.heappop
        push = heapq.heappush
        lead = self.lead_us
        workloads = self.workloads
        on_arrival = self._on_arrival
        seq = -1
        for seq, (t, idx) in enumerate(self.issues):
            # Every event before this issue's earliest arrival runs first;
            # the issues after it arrive no sooner, so none is missed.
            first = t + lead
            while heap and heap[0][0] < first:
                at, _, _, handler, payload = pop(heap)
                handler(at, payload)
            lam, rid, link, policy, links = workloads[idx]
            req = _Request(seq, lam, rid, t, link, policy, links)
            push(heap, (t + link, _ARRIVAL, seq, on_arrival, req))
        while heap:
            at, _, _, handler, payload = pop(heap)
            handler(at, payload)
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
            arrivals=seq + 1,
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
