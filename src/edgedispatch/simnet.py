"""Deterministic discrete-event simulation of clients, routers, and computers.

One event loop drives the whole scenario: requests issued by clients reach
their router, get dispatched by the configured policy, travel a fixed-latency
link, queue for one of the computer's workers, execute, and travel back. The
router measures dispatch-to-response time and feeds it to the policy.
Congestion signals arrive on a script and toggle per-(router, computer)
blackouts. Identical scenario and seed always reproduce the identical trace.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .core import RequestRecord
from .estimator import WeightTable
from .policy import NoEligibleDestination, PolicyKind, PolicyState
from .scenario import Scenario, ensure_valid


class UnknownLambda(KeyError):
    """A computer was asked to run a lambda it has no service time for."""


# Event kinds, in the order a request experiences them.
ARRIVAL = "arrival"  # request reaches its router
DELIVER = "deliver"  # request reaches the computer
SERVICE_START = "service-start"
SERVICE_END = "service-end"
RESPONSE = "response"  # response reaches the router
TOGGLE = "congestion-toggle"
RETRY = "retry"  # router re-attempts a dispatch that found no destination


@dataclass(frozen=True)
class TraceRow:
    """One request's outcome. Completed rows carry the full delay breakdown;
    unserved rows have destination -1 and no completion fields."""

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
            # Constructing the record re-checks the component-sum identity.
            RequestRecord(
                lam=self.lam,
                destination=self.destination,
                issued_at=self.issued_us,
                completed_at=self.completed_us,
                transfer_delay=self.transfer_us,
                queue_delay=self.queue_us,
                processing_delay=self.processing_us,
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
    counts the request being started.
    """
    if lam not in computer.service_us:
        raise UnknownLambda(f"computer {computer.id} has no service time for lambda {lam}")
    base = computer.service_us[lam]
    if computer.beta == 0:
        return base
    return round(base * (1 + computer.beta * computer.busy / computer.workers))


class _Router:
    __slots__ = ("id", "links_us", "tables", "policies")

    def __init__(self, spec, alpha, policy_seeds, policy_cfg) -> None:
        self.id = spec.id
        self.links_us = dict(spec.links_us)
        self.tables: dict[int, WeightTable] = {}
        self.policies: dict[int, PolicyState] = {}
        for l in sorted(spec.lambdas, key=lambda l: l.id):
            self.tables[l.id] = WeightTable(alpha=alpha)
            self.policies[l.id] = PolicyState(
                policy_cfg.kind,
                list(l.destinations),
                seed=policy_seeds[(spec.id, l.id)],
                b_min_us=policy_cfg.b_min_us,
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
            r.id: _Router(r, scenario.policy.alpha, policy_seeds, scenario.policy)
            for r in sorted(scenario.routers, key=lambda r: r.id)
        }
        self.unmeasured_responses = {
            (r.id, l.id): 0 for r in scenario.routers for l in r.lambdas
        }

        # Toggles go on the heap first: a toggle and an arrival at the same
        # microsecond resolve with the toggle already applied.
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
        policy = router.policies[req.lam]
        try:
            outcome = policy.select(router.tables[req.lam], now)
        except NoEligibleDestination:
            retry_at = now + self.s.policy.retry_us
            if retry_at >= self.duration:
                self.unserved.append(
                    TraceRow(
                        seq=req.seq,
                        lam=req.lam,
                        router=req.router,
                        destination=-1,
                        issued_us=req.issued_us,
                        completed_us=None,
                        transfer_us=None,
                        queue_us=None,
                        processing_us=None,
                        is_probe=False,
                        policy=self.s.policy.kind.value,
                        reason="no-eligible-destination",
                    )
                )
            else:
                self._push(retry_at, RETRY, req)
            return
        req.destination = outcome.destination
        req.is_probe = outcome.is_probe
        req.dispatch_us = now
        self._push(now + router.links_us[outcome.destination], DELIVER, req)

    def _on_deliver(self, now: int, req: _Request) -> None:
        comp = self.computers[req.destination]
        req.delivered_us = now
        if comp.busy < comp.workers:
            comp.busy += 1  # reserve the worker now; start fires at the same time
            self._push(now, SERVICE_START, req)
        else:
            comp.queue.append(req)

    def _on_service_start(self, now: int, req: _Request) -> None:
        comp = self.computers[req.destination]
        req.service_start_us = now
        req.processing_us = service_time(comp, req.lam)
        self._push(now + req.processing_us, SERVICE_END, req)

    def _on_service_end(self, now: int, req: _Request) -> None:
        comp = self.computers[req.destination]
        comp.busy -= 1
        if comp.queue:
            nxt = comp.queue.popleft()
            comp.busy += 1
            self._push(now, SERVICE_START, nxt)
        router = self.routers[req.router]
        self._push(now + router.links_us[req.destination], RESPONSE, req)

    def _on_response(self, now: int, req: _Request) -> None:
        router = self.routers[req.router]
        table = router.tables[req.lam]
        dest = req.destination
        if table.is_congested(dest):
            # The pair went congested while this response was in flight: the
            # client still gets its answer but the measurement is discarded.
            self.unmeasured_responses[(req.router, req.lam)] += 1
        else:
            router.policies[req.lam].on_response(table, dest, now - req.dispatch_us, now)
        link = router.links_us[dest]
        self.completed.append(
            TraceRow(
                seq=req.seq,
                lam=req.lam,
                router=req.router,
                destination=dest,
                issued_us=req.issued_us,
                completed_us=now + req.client_link_us,
                transfer_us=2 * req.client_link_us + 2 * link,
                queue_us=(req.dispatch_us - req.issued_us - req.client_link_us)
                + (req.service_start_us - req.delivered_us),
                processing_us=req.processing_us,
                is_probe=req.is_probe,
                policy=self.s.policy.kind.value,
                dispatch_us=req.dispatch_us,
            )
        )

    def _on_toggle(self, now: int, payload) -> None:
        rid, dest, on = payload
        router = self.routers[rid]
        weights: list[tuple[int, int | None]] = []
        for lam in sorted(router.policies):
            table = router.tables[lam]
            if on:
                before = table.get(dest)
                router.policies[lam].sync_congestion(table, dest, True, now)
                weights.append((lam, before if isinstance(before, int) else None))
            else:
                router.policies[lam].sync_congestion(table, dest, False, now)
                after = table.get(dest)
                weights.append((lam, after if isinstance(after, int) else None))
        self.congestion_log.append(
            CongestionLogEntry(
                at_us=now, router=rid, computer=dest, congested=on, weights_us=tuple(weights)
            )
        )

    # -- loop --------------------------------------------------------------

    def run(self) -> SimResult:
        handlers = {
            ARRIVAL: self._try_dispatch,
            RETRY: self._try_dispatch,
            DELIVER: self._on_deliver,
            SERVICE_START: self._on_service_start,
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
                    "weights": router.tables[lam].snapshot(),
                    "policy": policy.snapshot(),
                    "responses_unmeasured": self.unmeasured_responses[(rid, lam)],
                }
            snapshot["routers"][rid] = {"lambdas": lambdas}
        self.completed.sort(key=lambda r: r.seq)
        self.unserved.sort(key=lambda r: r.seq)
        return SimResult(
            scenario=self.s.name,
            policy=self.s.policy.kind.value,
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
