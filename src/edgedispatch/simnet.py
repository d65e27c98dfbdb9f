"""Deterministic discrete-event simulation of clients, routers, and computers.

One event loop drives the whole scenario: requests issued by clients reach
their router, get dispatched by the configured policy, travel a fixed-latency
link, queue for one of the computer's workers, execute, and travel back. The
router measures dispatch-to-response time and feeds it to the policy.
Congestion signals arrive on a script and toggle per-(router, computer)
blackouts. Identical scenario and seed always reproduce the identical trace.

Each heap entry is ``(time, class, n, payload)``. The key ``(time, class,
n)`` is unique and alone gives the order of events at one microsecond.
Each kind of event has its own class, in this written order:

0. congestion toggles, with ``n`` the toggle's place in window order
   (windows by start, router, computer; each one's mark, then its
   clear). Windows on one pair never overlap, so a touching window's
   clear precedes its mark. Toggles run first, so a request that arrives
   or retries as a window opens or closes sees the window's new state;
1. arrivals, with ``n`` the request's ``seq``;
2. retries, which dispatch again as arrivals do. They run right after
   the arrivals, so every dispatch at a microsecond, fresh or retried,
   sees the policy as it was before that microsecond's responses;
3. deliveries that wait in the heap; one over its computer's lead runs
   at its dispatch instead (below). They run after retries, since a retry
   over a 0 ms link files its delivery at its own microsecond: no event
   files one with a smaller key, so the keys run in order;
4. responses, each filed in the heap as its delivery runs. A delivery
   and a response touch disjoint state (a computer's workers; a policy
   and the rows), so their order changes no output; it is written down so
   that no tie is left to push order.

For classes 2 and 3, ``n`` is the creation order, and breaks ties only
within a kind: there, creation order is the physical order (FIFO links and
queues). A delivery's ``n`` is drawn at its dispatch, whether it waits in
the heap or not. A response's ``n`` is its request's delivery key,
``(delivered_at, n)``, so responses at one microsecond run in delivery
order. The class is the one statement of
an entry's kind: ``run`` binds the five handlers once, as a local tuple
indexed by class, and calls ``handlers[class](time, payload)``.

A request in flight is a plain tuple, never an object of its own. An
arrival or a retry carries ``(seq, issued_us, workload)``, where
``workload`` is the entry of ``_Sim.workloads`` that issued it: its
lambda, router, client link, (router, lambda) policy and the router's
routes, which map each linked computer to its ``(_Computer, link_us)``, so
one lookup at a dispatch finds both. A delivery carries those three, then
the destination, its ``_Computer``, the link, the probe flag, the dispatch
time and the delivery's ``n``. A response carries ``(policy, row)``: the
row is built at the delivery, and the response hands the policy its
dispatch-to-response time and files the row.

A computer is a FIFO queue in front of ``workers`` workers, and keeps when
each worker is next free, as a heap. Every request that can delay a start
was delivered earlier (Kiefer and Wolfowitz, Trans. AMS 78, 1955; Lindley,
1952, for one worker), so the delivery handler computes it: the request
starts at ``max(now, free[0])`` on the earliest free worker, and a worker
freed at a delivery's microsecond serves it. The handler also computes
the processing time and files the response, so a service end is not an
event. The load at a start ``s`` is 1 plus the number of requests on that
computer whose service ends after ``s``; one that ends at ``s`` is done.
Starts follow delivery order, so only a worker's last service can end
after ``s``: ``service_time`` counts over ``free``, and the handler calls
it only when the computer's ``beta`` is not 0; otherwise the processing
time is the base time, read inline. The start, the processing time, the
queue delay, the response's time and so the completion are then all
fixed, so the handler builds the request's ``TraceRow`` there. This
module runs 4 Python frames per request: ``_on_arrival``, ``_on_deliver``,
the row's ``__new__`` and ``_on_response``. The policy's part of a request
is two calls, ``select`` and ``on_response``; under ``rr`` they make 6
frames in all (``policy`` docstring), under ``li`` and ``rp`` 4.

Each computer has a lead, ``lead_us``: the shortest link that any router
has to it. No delivery reaches it sooner after its dispatch: this is the
lookahead of the arrivals below, applied per computer. The computer also
counts in ``waiting`` its deliveries dispatched and not yet run. A
dispatch over the lead, with none waiting, calls ``_on_deliver`` at once
with the delivery's time, ``now + lead_us``; any other delivery is pushed as
a class-3 entry. This is exact. Every delivery to that computer
dispatched before it has run, and every later one lands no sooner; one
that lands at the same microsecond was dispatched later, so it has the
larger ``n``. So the computer's deliveries still run in key order, and
only they read or write its ``free``: the start, the processing time, the
queue delay and the response's time are those of a delivery run from the
heap, and the response waits in the heap under its key like any other.
Across computers, deliveries do not run in key order, which is why a
response's ``n`` is its delivery key and not a number drawn as the
delivery runs.

Requests are issued in ``(time, workload)`` order, and ``seq`` is the
place in that order. ``_Sim.__init__`` draws every issue before the
duration at once, from the workloads' arrival streams, each a chain of C
iterators, and sorts the ``(time, workload index)`` pairs into
``issues``: the order a merge of the streams gives, with no Python frame
per issue. No arrival lands sooner after its issue than the smallest
client link (the loop's lookahead, as in conservative discrete-event
simulation: Chandy and Misra, IEEE TSE 1979), so the loop files the next
issue as an arrival once every event before that earliest landing has
run. The heap never holds the issues still to come.

An arrival that lands at that earliest moment (its workload has the
smallest link) skips the heap and runs at once, unless ``heap[0]`` is a
toggle or an earlier arrival at the same microsecond; then it is pushed.
The order stays the key's: every event before it has run, run-time events
at its microsecond come after arrivals, and each later issue lands no
sooner, at the same microsecond only with a higher ``seq``. The shipped
scenarios all have a client link of 0. On ``line`` (one router) every link
is its computer's lead, so a request makes one heap trip, its response,
instead of three. On ``ring-tree`` only a delivery over a remote link, or
one behind it at the same computer, waits in the heap.

The loop counts its pops against the termination bound. A request arrives
at most ``1 + ceil(duration / retry)`` times (a retry at or past the
duration gives it up), then is delivered (from the heap or in place) and
answered once; each window
toggles twice. So each issue adds ``3 + ceil(duration / retry)`` to a
budget that starts at the toggle count, and a pop past it raises
``RuntimeError``: an event that files itself again at its own microsecond
would otherwise keep the loop from ever ending.

A ``_Sim`` stores no bound method or closure of itself: that would make it
a reference cycle, so a finished run and its rows would wait for a full
garbage collection (``test_a_finished_run_leaves_no_reference_cycle``).
Since a run builds no cycle at all, ``run`` pauses CPython's cyclic
collector for the call (``core.collector_paused``): each row lives until
the run ends, so a young collection during the run would traverse every
row so far and free nothing. Reference counting still frees the rest.
``test_runs_and_trace_reads_leave_the_collector_nothing_to_free`` pins
the premise: with the collector off, the runs of ``line``, ``ring-tree``
and a fanout document under each policy, once dropped, leave it nothing.
The deferred work is one young collection, which traverses each row once.
It runs as the pause ends, when its exit allocates the generator's
``StopIteration``, so inside the call: on a 2-vCPU x86-64 host, about
0.5 ms for ``line`` (6,357 rows) and 0.25 ms for ``ring-tree``.

The future cannot change the past, within a cone that reads off the
handlers. Run a scenario for a duration D and again for a longer one. The
longer run adds only later events: arrivals of issues at D or later,
which land at D + L or later, L the smallest client link; and the retries
that the shorter run gave up, the first at G >= D. Every event before the
first of these is the same in both runs, and a row depends only on events
up to its delivery, where it is built. So every row delivered before
``min(D + L, G)`` is identical in both runs. With L > 0, D + L alone is
not enough: a request given up at D retries at D in the longer run and can
reach a computer before a request that arrives in ``(D, D + L)``
(``tests/test_simnet.py`` pins one).

Two transformations of a scenario do not carry over to its trace, and
are not meant to; ``tests/test_simnet.py`` pins one example of each.
Doubling every time (the duration, links, service times, retry and
backoff, and the gaps between issues) does not double every time of the
trace: ``WeightTable.observe`` rounds each blend half up to a whole
microsecond, so an estimate from doubled samples can be one less than
twice the estimate (0.9 * 7,000 + 0.1 * 7,005 rounds up to 7,001; the
doubled blend is exactly 14,001). ``line`` under ``rr``, with
deterministic issues every 1,600 us, matches its doubled twin up to row
109 of 6,249, where the two pick different computers. Renaming computer
ids keeps the trace, destinations renamed, only if the renaming keeps the
ids' order: a tie goes to the smallest id, so ``x -> 3 - x`` on ``line``
sends the first request to the other end of the line.

Each request ends as one ``TraceRow``, built once, positionally, when the
request is delivered or given up. A row is slotted and frozen, and checks
its own delays: a completed row whose times or delays are negative, or
whose delays do not add up to its span, cannot be built, here or when a
trace is read back. It is built in one allocation, by ``TraceRow.__new__``
(``init=False``; ``__init__`` is ``object.__init__``): it checks the delays,
fills a ``_Cells``, a writable class with ``TraceRow``'s own slots, with
plain slot stores, then switches that object's class to ``TraceRow``.
CPython allows the switch between classes of one layout and raises
``TypeError`` on any other, so a drift would fail on the first row. This
costs about half as much as filling each slot through its member
descriptor (``TraceRow`` has the numbers).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import accumulate, chain, count, repeat, takewhile
from math import log
from operator import attrgetter, mul, sub, truediv
from typing import Iterator

from .core import collector_paused
from .policy import NoEligibleDestination, PolicyState
from .scenario import Scenario, ensure_valid


@dataclass(frozen=True, slots=True, init=False)
class TraceRow:
    """One request's outcome. Completed rows carry the full delay breakdown;
    unserved rows have destination -1 and no completion fields.

    A completed row must have non-negative times and delays whose sum is its
    span; construction raises ValueError otherwise. ``dispatch_us`` is the
    one field outside the on-disk trace format.

    The simulator builds a completed row at its request's delivery, where
    every field is fixed, and carries it in the response's heap entry; the
    row joins the trace when that response runs. An unserved row is built
    when its request is given up.

    Every row, built by the simulator, by ``read_trace``, by
    ``dataclasses.replace`` or by unpickling, goes through ``__new__``: it
    checks the delay rule on its arguments, stores them into a fresh
    ``_Cells`` (a writable class whose ``__slots__`` are this class's) and
    sets that object's ``__class__`` to this class, from which point the
    frozen ``__setattr__`` refuses every store. ``__init__`` is
    ``object.__init__``. ``timeit`` on a 2-vCPU x86-64 host, best of 7,
    four runs: 0.47-0.52 µs a row, against 0.88-0.89 µs for twelve
    member-descriptor ``__set__`` calls after the check, 1.54-1.65 µs for
    the generated frozen ``__init__`` and 0.20-0.25 µs for a plain mutable
    slotted class.
    ``__reduce__`` rebuilds through ``__new__``, so ``pickle`` at every
    protocol, ``copy`` and ``deepcopy`` check the delays, as ``replace``
    does.
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

    def __new__(
        cls, seq, lam, router, destination, issued_us, completed_us,
        transfer_us, queue_us, processing_us, is_probe, policy, dispatch_us=None,
    ):
        if completed_us is not None:
            if (
                issued_us < 0 or completed_us < 0 or transfer_us < 0
                or queue_us < 0 or processing_us < 0
            ):
                raise ValueError(
                    "times and delays must be non-negative: "
                    f"issued {issued_us}, completed {completed_us}, transfer {transfer_us}, "
                    f"queue {queue_us}, processing {processing_us}"
                )
            span = completed_us - issued_us
            parts = transfer_us + queue_us + processing_us
            if span != parts:
                raise ValueError(
                    f"delay components sum to {parts}us but the record spans {span}us"
                )
        row = object.__new__(_Cells)
        row.seq = seq
        row.lam = lam
        row.router = router
        row.destination = destination
        row.issued_us = issued_us
        row.completed_us = completed_us
        row.transfer_us = transfer_us
        row.queue_us = queue_us
        row.processing_us = processing_us
        row.is_probe = is_probe
        row.policy = policy
        row.dispatch_us = dispatch_us
        row.__class__ = cls
        return row

    def __reduce__(self):
        return TraceRow, (
            self.seq, self.lam, self.router, self.destination, self.issued_us,
            self.completed_us, self.transfer_us, self.queue_us, self.processing_us,
            self.is_probe, self.policy, self.dispatch_us,
        )

    @property
    def latency_us(self) -> int | None:
        if self.completed_us is None:
            return None
        return self.completed_us - self.issued_us


# A writable twin of TraceRow's slots: TraceRow.__new__ fills one, then
# switches its class. The slots are TraceRow's own, so the layouts match.
_Cells = type("_Cells", (), {"__slots__": TraceRow.__slots__})

# The sort key of rows in issue order.
_by_seq = attrgetter("seq")

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
        return sorted(self.completed + self.unserved, key=_by_seq)


# What round() calls for a float, without round()'s lookup of __round__ on
# every issue: the same int.
_round = float.__round__


def arrival_process(kind: str, rate_per_s: float, seed: int = 0) -> Iterator[int]:
    """Endless stream of issue times in microseconds.

    ``deterministic`` spaces requests evenly at 1/rate; ``poisson`` draws
    exponential gaps. Both round to whole microseconds at emission, keeping
    the underlying accumulator exact so rounding never drifts.

    The stream is a chain of C iterators, so drawing an issue enters no
    Python frame. The k-th deterministic issue is ``round(k * period_us)``.
    A Poisson issue is the rounded running sum of the gaps, added left to
    right as ``t += gap`` would, each gap ``log(1.0 - u) / -rate_per_us``:
    IEEE division rounds the same whichever operand carries the sign, so
    that is the float ``-log(1.0 - u) / rate_per_us``. A first draw of 0
    gives the gap ``-0.0``, which rounds to 0, as ``0.0 + -0.0`` does, and
    adds to the next gap as 0.0 would. ``tests/helpers.py`` keeps the loop
    version.
    """
    if rate_per_s <= 0:
        raise ValueError("arrival rate must be positive")
    if kind == "deterministic":
        return map(_round, map(mul, count(1), repeat(1_000_000 / rate_per_s)))
    if kind == "poisson":
        # Random.expovariate's own formula (CPython 3.11 and 3.12), without
        # the method call: the same gaps, float for float.
        uniform = random.Random(seed).random
        rate_per_us = rate_per_s / 1_000_000
        gaps = map(
            truediv, map(log, map(sub, repeat(1.0), iter(uniform, None))), repeat(-rate_per_us)
        )
        return map(_round, accumulate(gaps))
    raise ValueError(f"unknown arrival process {kind!r}")


class _Computer:
    __slots__ = ("workers", "beta", "service_us", "free", "lead_us", "waiting")

    def __init__(self, spec) -> None:
        self.workers = spec.workers
        self.beta = spec.beta
        self.service_us = dict(spec.service_us)
        # When each worker is next free: a heap, so free[0] is the earliest.
        self.free = [0] * spec.workers
        # The shortest link any router has to it (None when none has one),
        # set by _Sim, and its deliveries dispatched and not yet run.
        self.lead_us = None
        self.waiting = 0


def service_time(computer: _Computer, lam: int, start: int) -> int:
    """Processing time for one invocation that starts at ``start``.

    The base time scales by 1 + beta * busy/workers, where ``busy`` counts
    the request being started and every request on the computer whose
    service ends after ``start``; one that ends at ``start`` is done. The
    count is taken only when beta is not 0. A lambda with no service time
    raises KeyError (validation refuses such a destination).
    """
    base = computer.service_us[lam]
    if computer.beta == 0:
        return base
    busy = 1 + sum(map(start.__lt__, computer.free))
    return round(base * (1 + computer.beta * busy / computer.workers))


# The second item of a heap key: the order of the kinds at one microsecond.
_TOGGLE, _ARRIVAL, _RETRY, _DELIVERY, _RESPONSE = range(5)


class _Sim:
    def __init__(self, scenario: Scenario) -> None:
        ensure_valid(scenario)
        self.s = scenario
        self.duration = scenario.duration_us
        self.retry_us = scenario.policy.retry_us
        self.policy_label = scenario.policy.kind.value
        self.heap: list = []
        self.counter = count()
        self.completed: list[TraceRow] = []
        self.unserved: list[TraceRow] = []
        self.congestion_log: list[CongestionLogEntry] = []

        # Seed streams are drawn in a fixed order that depends only on the
        # topology and workload, never on the policy kind, so runs of
        # different policies over the same scenario see identical arrivals.
        master = random.Random(scenario.seed)
        ordered_workload = sorted(
            scenario.workload, key=lambda w: (w.router, w.lam)
        )
        arrival_seeds = [master.getrandbits(48) for _ in ordered_workload]
        cfg = scenario.policy
        computers = {c.id: _Computer(c) for c in scenario.computers}
        # Policies by router, then lambda; one routes dict per router,
        # shared by its requests: each linked computer and the link to it.
        self.policies: dict[int, dict[int, PolicyState]] = {}
        routes: dict[int, dict[int, tuple[_Computer, int]]] = {}
        for r in sorted(scenario.routers, key=lambda r: r.id):
            routes[r.id] = {cid: (computers[cid], ms) for cid, ms in r.links_us.items()}
            self.policies[r.id] = {
                l.id: PolicyState(
                    cfg.kind, list(l.destinations), seed=master.getrandbits(48),
                    b_min_us=cfg.b_min_us, alpha=cfg.alpha,
                )
                for l in sorted(r.lambdas, key=lambda l: l.id)
            }
        for cid, comp in computers.items():
            comp.lead_us = min((to[cid][1] for to in routes.values() if cid in to), default=None)

        # Toggle n is its place in window order, so a touching window's
        # clear (numbered with the earlier window) precedes its mark.
        windows = sorted(
            scenario.congestion, key=lambda w: (w.start_us, w.router, w.computer)
        )
        for i, win in enumerate(windows):
            pair = (win.router, self.policies[win.router], win.computer)
            self.heap.append((win.start_us, _TOGGLE, 2 * i, (*pair, True)))
            self.heap.append((win.end_us, _TOGGLE, 2 * i + 1, (*pair, False)))
        heapq.heapify(self.heap)

        # Issues in (time, workload index) order; seq is the place in it.
        self.workloads = [
            (w.lam, w.router, w.client_link_us, self.policies[w.router][w.lam], routes[w.router])
            for w in ordered_workload
        ]
        # Every stream is sorted and endless, so each is cut at its first
        # issue at or past the duration. Sorting the (time, index) pairs
        # gives the order a merge of the streams would, with ties at one
        # microsecond in workload order.
        streams = [
            arrival_process(w.process, w.rate_per_s, seed)
            for w, seed in zip(ordered_workload, arrival_seeds)
        ]
        self.issues = sorted(
            chain.from_iterable(
                zip(takewhile(self.duration.__gt__, stream), repeat(idx))
                for idx, stream in enumerate(streams)
            )
        )
        # No issue arrives sooner after it is issued than this.
        self.lead_us = min((w.client_link_us for w in ordered_workload), default=0)

    # -- handlers ----------------------------------------------------------

    def _on_arrival(self, now: int, req: tuple) -> None:
        """The request ``(seq, issued_us, workload)`` reaches its router (or
        retries): dispatch it."""
        seq, issued, workload = req
        policy = workload[3]
        try:
            dest = policy.select(now)
        except NoEligibleDestination:
            retry_at = now + self.retry_us
            if retry_at >= self.duration:
                self.unserved.append(
                    TraceRow(
                        seq, workload[0], workload[1], -1, issued,
                        None, None, None, None, False, self.policy_label,
                    )
                )
            else:
                heapq.heappush(self.heap, (retry_at, _RETRY, next(self.counter), req))
            return
        comp, link = workload[4][dest]
        n = next(self.counter)
        delivery = (seq, issued, workload, dest, comp, link, dest in policy.probing, now, n)
        # Over the computer's lead, with none of its deliveries waiting,
        # nothing can reach it first: deliver now (module docstring).
        waiting = comp.waiting
        comp.waiting = waiting + 1
        if not waiting and link == comp.lead_us:
            self._on_deliver(now + link, delivery)
        else:
            heapq.heappush(self.heap, (now + link, _DELIVERY, n, delivery))

    def _on_deliver(self, now: int, delivery: tuple) -> None:
        """The request reaches its computer, from the heap or in place at
        its dispatch: it starts on the earliest free worker, its row is
        built, and its response is filed at once."""
        seq, issued, (lam, rid, client, policy, _), dest, comp, link, probe, dispatched, n = delivery
        comp.waiting -= 1
        free = comp.free
        start = free[0]
        if start < now:
            start = now
        # service_time's rule, with the call made only when beta counts
        if comp.beta:
            processing = service_time(comp, lam, start)
        else:
            processing = comp.service_us[lam]
        end = start + processing
        heapq.heapreplace(free, end)
        back_at = end + link
        # Positional, in field order: ..., issued, completed, transfer, queue,
        # processing, is_probe, policy, dispatch_us.
        row = TraceRow(
            seq, lam, rid, dest, issued, back_at + client, 2 * (client + link),
            (dispatched - issued - client) + (start - now), processing,
            probe, self.policy_label, dispatched,
        )
        # n is the delivery's key, so responses at one microsecond run in
        # delivery order, whether a delivery ran in place or from the heap.
        heapq.heappush(self.heap, (back_at, _RESPONSE, (now, n), (policy, row)))

    def _on_response(self, now: int, response: tuple) -> None:
        policy, row = response
        policy.on_response(row.destination, now - row.dispatch_us, now)
        self.completed.append(row)

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
        duration = self.duration
        workloads = self.workloads
        on_arrival = self._on_arrival
        # In class order. Local, so the _Sim holds no bound method of itself.
        handlers = (self._on_toggle, on_arrival, on_arrival, self._on_deliver, self._on_response)
        # The termination bound (module docstring), counted down per pop.
        per_issue = 3 - (-duration // self.retry_us)
        budget = len(heap)
        for seq, (t, idx) in enumerate(self.issues):
            budget += per_issue
            # Every event before this issue's earliest arrival runs first;
            # the issues after it arrive no sooner, so none is missed.
            first = t + lead
            while heap and heap[0][0] < first:
                at, kind, _, payload = pop(heap)
                handlers[kind](at, payload)
                budget -= 1
                if budget < 0:
                    raise _runaway(self.s)
            workload = workloads[idx]
            req = (seq, t, workload)
            at = t + workload[2]
            # Nothing can come before an arrival at the earliest landing
            # unless a toggle or an earlier arrival waits at that microsecond.
            if at == first and (not heap or heap[0][0] > at or heap[0][1] > _ARRIVAL):
                on_arrival(at, req)
            else:
                push(heap, (at, _ARRIVAL, seq, req))
        while heap:
            at, kind, _, payload = pop(heap)
            handlers[kind](at, payload)
            budget -= 1
            if budget < 0:
                raise _runaway(self.s)
        snapshot = {"routers": {}}
        for rid, policies in self.policies.items():
            lambdas = {}
            for lam, policy in policies.items():
                lambdas[lam] = {
                    "weights": policy.table.snapshot(),
                    "policy": policy.snapshot(),
                    "responses_unmeasured": policy.responses_unmeasured,
                }
            snapshot["routers"][rid] = {"lambdas": lambdas}
        self.completed.sort(key=_by_seq)
        self.unserved.sort(key=_by_seq)
        return SimResult(
            scenario=self.s.name,
            policy=self.policy_label,
            seed=self.s.seed,
            duration_us=self.duration,
            arrivals=len(self.issues),
            completed=tuple(self.completed),
            unserved=tuple(self.unserved),
            snapshot=snapshot,
            congestion_log=tuple(self.congestion_log),
        )


def _runaway(scenario: Scenario) -> RuntimeError:
    return RuntimeError(
        f"scenario {scenario.name!r}: the event loop popped more events than "
        "its issues and windows can make; an event is filing itself again"
    )


@collector_paused()
def run(scenario: Scenario) -> SimResult:
    """Simulate one scenario to completion and return its full outcome.

    In-flight work left at the duration boundary drains to completion;
    arrivals stop strictly before it. Every issued request ends up in
    exactly one of ``completed`` or ``unserved``. The cyclic garbage
    collector is paused for the call (module docstring).
    """
    return _Sim(scenario).run()
