"""Shared test helpers: naive ledger, policy, simulator and csv trace
oracles, scenario builders."""

import csv
import io
import itertools
import random
from collections import deque
from dataclasses import dataclass
from math import log

from hypothesis import strategies as st

from edgedispatch.ledger import (
    AlreadyAdmitted,
    DeficitLedger,
    EmptyLedger,
    UnknownDestination,
)
from edgedispatch.metrics import TRACE_COLUMNS
from edgedispatch.policy import NoEligibleDestination, PolicyKind, PolicyState
from edgedispatch.scenario import scenario_from_mapping
from edgedispatch.simnet import TraceRow, _by_seq


class NaiveLedger:
    """Plain-dict reimplementation of the ledger semantics, kept obvious."""

    def __init__(self):
        self.deficits = {}

    def __len__(self):
        return len(self.deficits)

    def __contains__(self, dest):
        return dest in self.deficits

    def charge(self, weights):
        """Charge the least deficit, smallest id on ties, its weight; return it."""
        if not self.deficits:
            raise EmptyLedger("empty")
        dest = min(self.deficits, key=lambda d: (self.deficits[d], d))
        if weights[dest] < 0:
            raise ValueError("negative charge")
        self.deficits[dest] += weights[dest]
        return dest

    def admit(self, dest, initial_deficit=0):
        if dest in self.deficits:
            raise AlreadyAdmitted(str(dest))
        if initial_deficit < 0:
            raise ValueError("negative deficit")
        if self.deficits:
            low = min(self.deficits.values())
            for d in self.deficits:
                self.deficits[d] -= low
        self.deficits[dest] = initial_deficit

    def evict(self, dest):
        if dest not in self.deficits:
            raise UnknownDestination(str(dest))
        del self.deficits[dest]

    def decode(self):
        return dict(self.deficits)


def reference_arrivals(kind, rate_per_s, seed=0):
    """The loop version of ``simnet.arrival_process``: the same issue
    times, one ``t += gap`` and one ``round`` per issue. ``simnet`` builds
    the stream from C iterators instead; the tests hold the two equal."""
    if rate_per_s <= 0:
        raise ValueError("arrival rate must be positive")
    if kind == "deterministic":
        period_us = 1_000_000 / rate_per_s
        for k in itertools.count(1):
            yield round(k * period_us)
    elif kind == "poisson":
        # Random.expovariate's own formula (CPython 3.11 and 3.12), without
        # the method call: the same gaps, float for float.
        uniform = random.Random(seed).random
        rate_per_us = rate_per_s / 1_000_000
        t = 0.0
        while True:
            t += -log(1.0 - uniform()) / rate_per_us
            yield round(t)
    else:
        raise ValueError(f"unknown arrival process {kind!r}")


def check_same_state(ledger: DeficitLedger, oracle: NaiveLedger):
    """Every observable of the real ledger must match the oracle.

    Order counts: ``decode()`` runs by ``(deficit, id)``, so its first key
    is the front the next ``charge`` charges, and ``deltas()`` is each
    deficit less its predecessor's, the first less zero. The oracle's order
    is sorted once, and every expectation is read from it.
    """
    ordered = sorted((deficit, dest) for dest, deficit in oracle.deficits.items())
    assert list(ledger.decode().items()) == [(dest, deficit) for deficit, dest in ordered]
    before = 0
    deltas = []
    for deficit, dest in ordered:
        deltas.append((dest, deficit - before))
        before = deficit
    assert ledger.deltas() == deltas
    assert len(ledger) == len(ordered)


class NaivePolicy(PolicyState):
    """``PolicyState`` whose selections rescan all k destinations.

    The state changes are inherited; only the lookups the indexes replace
    are done the obvious way: the probe candidates by comprehension and
    ``rng.choice``, the deficit front by ``min`` over the decoded ledger,
    which the ledger's ``charge`` must charge, with weights read from the
    table, the bootstrap cursor over a freshly built list of unmeasured
    destinations, and the random-proportional draw by a linear scan of
    freshly added sums. Active membership is read from the ledger, the one
    place that holds it.

    ``select`` itself is overridden, so no fast path inside
    ``PolicyState.select`` can skip the rescan. ``naive_selections`` counts
    the selections the rescan made; a caller compares it with the number of
    ``select`` calls, or an override gone dead would set the indexed code
    against itself.
    """

    naive_selections = 0

    def select(self, now):
        self.naive_selections += 1
        if self.kind is PolicyKind.ROUND_ROBIN:
            return self._scan_rr(now)
        table = self.table
        # congested first: ``get`` reports None for it as for an unmeasured one
        measured = [(table.get(d), d) for d in self.destinations if not table.is_congested(d)]
        unmeasured = [d for w, d in measured if w is None]
        if unmeasured:
            dest = unmeasured[self._bootstrap_cursor % len(unmeasured)]
            self._bootstrap_cursor += 1
            return dest
        if not measured:
            raise NoEligibleDestination("no destination with a finite weight")
        if self.kind is PolicyKind.LEAST_IMPEDANCE:
            return min(measured)[1]
        total = 0.0
        cumulative = []
        for weight, d in measured:
            total += 1.0 / weight
            cumulative.append((total, d))
        draw = self.rng.random() * total
        for bound, d in cumulative:
            if draw < bound:
                return d
        return cumulative[-1][1]

    def _scan_rr(self, now):
        eligible = [
            d
            for d in self.destinations
            if d not in self.ledger
            and d not in self.probing
            and not self.table.is_congested(d)
            and self.eligible_at[d] <= now
        ]
        if eligible:
            dest = self.rng.choice(eligible)
            self.probing.add(dest)
            self.probes_launched += 1
            return dest
        deficits = self.ledger.decode()
        if not deficits:
            raise NoEligibleDestination("nothing active or probe-eligible")
        dest = min(deficits, key=lambda d: (deficits[d], d))
        assert self.ledger.charge({d: self.table.get(d) for d in deficits}) == dest
        return dest


@dataclass
class ReferenceResult:
    """What ``reference_run`` reports: the rows in issue order, the final
    snapshot as ``summarize`` takes it, the issue count, one
    ``(at_us, router, computer, congested, weights_us)`` per toggle, the
    retries scheduled, the ``select`` calls the run made, the selections
    ``NaivePolicy``'s rescan made, and the events the run popped."""

    rows: list
    snapshot: dict
    arrivals: int
    congestion_log: list
    retries: int
    selects: int
    naive_selections: int
    pops: int


def reference_run(scenario):
    """Simulate ``scenario`` the plain way, as the ``simnet`` module
    docstring and the README state the rules; an oracle for ``simnet.run``.

    Every pending event is a ``(time, class, n)`` key with its action, and
    the next event is the ``min`` key. The classes are the kinds, in the
    order they run at one microsecond: 0 toggles, ``n`` their place in
    window order (windows by start, router, computer; mark ``2i``, clear
    ``2i + 1``); 1 arrivals, ``n`` the request's ``seq``; 2 retries, 3
    service ends and 4 deliveries, ``n`` their push order; 5 responses,
    ``n`` the pop number of the request's delivery, so responses at one
    microsecond run in the order their requests were delivered. Every
    arrival is filed before the run starts and waits for its turn like any
    other event; the arrivals sit in their own list, sorted by the same
    key, only so that ``min`` need not scan all of them. Issue times come
    straight from ``Random.expovariate`` or ``k / rate``, dispatch from
    ``NaivePolicy``. A computer serves its queue in delivery order on
    ``workers`` workers. A service end frees its worker before any
    delivery at its microsecond, so the worker serves a request delivered
    then. A service takes ``base * (1 + beta * busy / workers)``, with
    ``busy`` 1 plus the services in progress that end after its start: one
    that ends at the start is done, even if its end event has not run.
    Only the scenario, the state changes of ``PolicyState`` (through
    ``NaivePolicy``) and the row type are shared with ``simnet``.

    ``selects`` and ``naive_selections`` in the result let a caller check
    that the ``NaivePolicy`` rescan made every selection.
    """
    s = scenario
    label = s.policy.kind.value
    master = random.Random(s.seed)
    workloads = sorted(s.workload, key=lambda w: (w.router, w.lam))
    arrival_seeds = [master.getrandbits(48) for _ in workloads]
    policies = {}
    for r in sorted(s.routers, key=lambda r: r.id):
        for l in sorted(r.lambdas, key=lambda l: l.id):
            policies[r.id, l.id] = NaivePolicy(
                s.policy.kind,
                list(l.destinations),
                seed=master.getrandbits(48),
                b_min_us=s.policy.b_min_us,
                alpha=s.policy.alpha,
            )
    links = {r.id: dict(r.links_us) for r in s.routers}
    # the ends of the services in progress, and the requests waiting
    computers = {c.id: {"spec": c, "ends": [], "queue": deque()} for c in s.computers}

    issues = []
    for idx, (w, seed) in enumerate(zip(workloads, arrival_seeds)):
        rng = random.Random(seed)
        t = 0.0
        k = 0
        while True:
            if w.process == "poisson":
                t += rng.expovariate(w.rate_per_s / 1_000_000)
                issued = round(t)
            else:
                k += 1
                issued = round(k * (1_000_000 / w.rate_per_s))
            if issued >= s.duration_us:
                break
            issues.append((issued, idx))
    issues.sort()
    arrivals = []
    for seq, (issued, idx) in enumerate(issues):
        w = workloads[idx]
        req = {
            "seq": seq, "lam": w.lam, "router": w.router, "issued": issued,
            "client": w.client_link_us,
        }
        arrivals.append(((issued + w.client_link_us, 1, seq), "arrive", req))
    arrivals.sort(reverse=True)

    pending = []
    windows = sorted(s.congestion, key=lambda w: (w.start_us, w.router, w.computer))
    for i, win in enumerate(windows):
        pending.append(((win.start_us, 0, 2 * i), "toggle", (win.router, win.computer, True)))
        pending.append(((win.end_us, 0, 2 * i + 1), "toggle", (win.router, win.computer, False)))
    pushes = 0
    pops = 0
    selects = 0
    rows = []
    log = []
    retries = 0

    def push(at, kind, action, payload):
        nonlocal pushes
        pending.append(((at, kind, pushes), action, payload))
        pushes += 1

    def start(now, comp, req):
        spec = comp["spec"]
        busy = 1 + sum(end > now for end in comp["ends"])
        req["started"] = now
        req["processing"] = round(spec.service_us[req["lam"]] * (1 + spec.beta * busy / spec.workers))
        req["end"] = now + req["processing"]
        comp["ends"].append(req["end"])
        push(req["end"], 3, "finish", req)

    while pending or arrivals:
        event = min(pending + arrivals[-1:], key=lambda e: e[0])
        if arrivals and event is arrivals[-1]:
            arrivals.pop()
        else:
            pending.remove(event)
        pops += 1
        (now, _, _), action, req = event
        if action == "toggle":
            rid, dest, on = req
            lams = sorted(lam for r, lam in policies if r == rid)
            weights = tuple((lam, policies[rid, lam].sync_congestion(dest, on, now)) for lam in lams)
            log.append((now, rid, dest, on, weights))
        elif action == "arrive":
            policy = policies[req["router"], req["lam"]]
            selects += 1
            try:
                dest = policy.select(now)
            except NoEligibleDestination:
                if now + s.policy.retry_us >= s.duration_us:
                    rows.append(
                        TraceRow(
                            req["seq"], req["lam"], req["router"], -1, req["issued"],
                            None, None, None, None, False, label,
                        )
                    )
                else:
                    retries += 1
                    push(now + s.policy.retry_us, 2, "arrive", req)
                continue
            req["dest"] = dest
            req["probe"] = dest in policy.probing
            req["dispatched"] = now
            push(now + links[req["router"]][req["dest"]], 4, "deliver", req)
        elif action == "deliver":
            comp = computers[req["dest"]]
            req["delivered"] = now
            req["delivery"] = pops
            if len(comp["ends"]) < comp["spec"].workers:
                start(now, comp, req)
            else:
                comp["queue"].append(req)
        elif action == "finish":
            comp = computers[req["dest"]]
            comp["ends"].remove(req["end"])
            back_at = now + links[req["router"]][req["dest"]]
            pending.append(((back_at, 5, req["delivery"]), "respond", req))
            if comp["queue"]:
                start(now, comp, comp["queue"].popleft())
        else:
            dest = req["dest"]
            policies[req["router"], req["lam"]].on_response(dest, now - req["dispatched"], now)
            client = req["client"]
            link = links[req["router"]][dest]
            rows.append(
                TraceRow(
                    req["seq"], req["lam"], req["router"], dest, req["issued"],
                    now + client, 2 * (client + link),
                    (req["dispatched"] - req["issued"] - client) + (req["started"] - req["delivered"]),
                    req["processing"], req["probe"], label,
                )
            )

    snapshot = {"routers": {}}
    for (rid, lam), policy in sorted(policies.items()):
        lambdas = snapshot["routers"].setdefault(rid, {"lambdas": {}})["lambdas"]
        lambdas[lam] = {
            "weights": policy.table.snapshot(),
            "policy": policy.snapshot(),
            "responses_unmeasured": policy.responses_unmeasured,
        }
    rows.sort(key=lambda r: r.seq)
    return ReferenceResult(
        rows=rows,
        snapshot=snapshot,
        arrivals=len(issues),
        congestion_log=log,
        retries=retries,
        selects=selects,
        naive_selections=sum(p.naive_selections for p in policies.values()),
        pops=pops,
    )


def naive_max_deviation(weights, counts):
    """Worst fairness deviation of one group from its full ratio matrix.

    The destinations with a positive integer weight each have the product
    count x weight; the result is the largest ``abs(p_i / p_j - 1.0)`` over
    ordered pairs ``i != j`` with ``p_j != 0``, 0.0 for a lone destination
    with a nonzero product, and None when no pair or lone product counts.
    """
    finite = sorted(d for d, w in weights.items() if isinstance(w, int) and w > 0)
    products = {d: counts.get(d, 0) * weights[d] for d in finite}
    deviations = [
        abs(products[i] / products[j] - 1.0)
        for i in finite
        for j in finite
        if i != j and products[j] != 0
    ]
    if len(finite) == 1 and products[finite[0]] > 0:
        deviations.append(0.0)
    return max(deviations) if deviations else None


def csv_trace_bytes(rows) -> bytes:
    """The trace bytes as the ``csv`` module writes them: None as an empty
    cell, every other value as its ``str()``, ``is_probe`` as 0 or 1.

    Tests hold ``metrics.trace_bytes`` to it.
    """
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    writer.writerows(
        (
            r.seq, r.lam, r.router, r.destination, r.issued_us, r.completed_us,
            r.transfer_us, r.queue_us, r.processing_us, int(r.is_probe), r.policy,
        )
        for r in sorted(rows, key=_by_seq)
    )
    return buf.getvalue().encode("utf-8")


# The probe cell as the oracle writes it; any other text is refused.
_PROBE_FLAG = {"0": False, "1": True}


def csv_read_trace(path) -> list[TraceRow]:
    """The trace reader on the ``csv`` module's default dialect: the checks
    of ``metrics.read_trace`` on cells that may be quoted, lines that may
    end in a carriage return, and integers parsed by ``int()`` from text,
    which takes non-ASCII digits. It takes any policy name.
    """
    rows: list[TraceRow] = []
    width = len(TRACE_COLUMNS)
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != list(TRACE_COLUMNS):
            raise ValueError(f"unexpected trace header: {header}")
        for cells in reader:
            if len(cells) != width:
                raise ValueError(f"trace row has {len(cells)} cells: {cells}")
            is_probe = _PROBE_FLAG.get(cells[9])
            if is_probe is None:
                raise ValueError(f"trace row has probe flag {cells[9]!r}, not 0 or 1: {cells}")
            blanks = cells[5:9].count("")
            if not blanks:
                row = TraceRow(*map(int, cells[:9]), is_probe, cells[10])
                if row.destination < 0:
                    raise ValueError(f"completed trace row has no destination: {cells}")
                rows.append(row)
                continue
            seq, lam, router, destination, issued = map(int, cells[:5])
            if blanks < 4 or destination != -1:
                raise ValueError(f"completion cells not all filled or all unserved: {cells}")
            rows.append(
                TraceRow(
                    seq, lam, router, -1, issued,
                    None, None, None, None, is_probe, cells[10],
                )
            )
    return rows


def tiny_doc(**overrides):
    """Raw mapping for a one-router one-computer scenario, pre-validation."""
    doc = {
        "name": "tiny",
        "duration_ms": 150,
        "seed": 0,
        "policy": {"kind": "li"},
        "computers": [
            {"id": 0, "workers": 1, "beta": 0.0, "service_ms": {0: 5}},
        ],
        "routers": [
            {
                "id": 0,
                "links_ms": {0: 1},
                "lambdas": [{"id": 0, "destinations": [0]}],
            }
        ],
        "workload": [
            {
                "router": 0,
                "lambda": 0,
                "process": "deterministic",
                "rate_per_s": 10,
                "client_link_ms": 0,
            }
        ],
        "congestion": [],
    }
    doc.update(overrides)
    return doc


def tiny_scenario(**overrides):
    """One router, one computer, deterministic arrivals. Keyword overrides
    replace top-level scenario fields."""
    return scenario_from_mapping(tiny_doc(**overrides))


def fanout_doc(seed, computers=48, duration_ms=200):
    """Raw mapping for one router fanning one lambda out to many computers.

    Computers draw 1 or 2 workers, beta 0 or 0.5, and a service and link
    time from the seed. Every third computer gets blackout windows laid out
    left to right with gaps, so no two windows on a pair overlap or touch.
    They start after 30 ms, once every computer has answered once. Poisson
    arrivals run at 70% of the aggregate base capacity.
    """
    rng = random.Random(seed)
    comps, links = [], {}
    for cid in range(computers):
        workers = rng.choice((1, 2))
        service = rng.choice((3, 5, 8))
        comps.append(
            {
                "id": cid,
                "workers": workers,
                "beta": rng.choice((0.0, 0.5)),
                "service_ms": {0: service},
            }
        )
        links[cid] = rng.choice((1, 2, 4))
    capacity = sum(c["workers"] * 1000 / c["service_ms"][0] for c in comps)
    congestion = []
    for cid in range(0, computers, 3):
        start = rng.randint(30, 30 + duration_ms // 3)
        while start < duration_ms - 1:
            end = min(start + rng.randint(5, 30), duration_ms)
            congestion.append({"router": 0, "computer": cid, "start_ms": start, "end_ms": end})
            start = end + rng.randint(10, 60)
    return {
        "name": f"fanout-{computers}",
        "duration_ms": duration_ms,
        "seed": rng.getrandbits(31),
        "policy": {"kind": "rr", "alpha": 0.9, "b_min_ms": 10, "retry_ms": 5},
        "computers": comps,
        "routers": [
            {
                "id": 0,
                "links_ms": links,
                "lambdas": [{"id": 0, "destinations": list(range(computers))}],
            }
        ],
        "workload": [
            {
                "router": 0,
                "lambda": 0,
                "process": "poisson",
                "rate_per_s": round(0.7 * capacity, 3),
                "client_link_ms": 1,
            }
        ],
        "congestion": congestion,
    }


@st.composite
def scenario_docs(draw):
    """A Hypothesis strategy for valid scenario documents.

    1-3 routers each link to a subset of 1-5 computers and serve a subset of
    1-3 lambdas over a subset of their links. Computers have 1-4 workers,
    ``beta >= 0`` and a service time for every lambda. Each served (router,
    lambda) pair may get a workload with a client link; at least one does.
    Each linked (router, computer) pair may get blackout windows, touching
    or separate, under which a 1-10 ms retry fires. Rates stay low, so a run
    takes milliseconds. About half the rates divide 1000, so deterministic
    issues land on the whole milliseconds where links end and toggles fire,
    and ties at one microsecond are common. Where a deterministic workload
    has no client link, one blackout may start and end on two of its issue
    microseconds, at a computer it can pick: its arrivals then land in
    place, on a toggle's microsecond, and must still run after the toggle.

    About half the documents have a hot spot, which meets the end tie: two
    services on one computer end at one microsecond while a request waits,
    and the waiting one must start with neither counted as busy. Computer 0
    then has 2-4 workers, ``beta > 0`` and a different service time for
    each of 2-3 lambdas, and an extra router sends it lambdas 0 and 1 at
    100-500 deterministic requests per second each, more than its workers
    take at times.
    """
    duration_ms = draw(st.integers(20, 200))
    computer_ids = list(range(draw(st.integers(1, 5))))
    hot = draw(st.booleans())
    lambda_ids = list(range(draw(st.integers(2 if hot else 1, 3))))

    def subset(items):
        return draw(st.lists(st.sampled_from(items), min_size=1, max_size=len(items), unique=True))

    computers = [
        {
            "id": cid,
            "workers": draw(st.integers(1, 4)),
            "beta": draw(st.sampled_from((0.0, 0.25, 0.5, 2.0))),
            "service_ms": {lam: draw(st.integers(1, 10)) for lam in lambda_ids},
        }
        for cid in computer_ids
    ]
    routers, workload, congestion = [], [], []
    for rid in range(draw(st.integers(1, 3))):
        linked = sorted(subset(computer_ids))
        lambdas = sorted(subset(lambda_ids))
        routers.append(
            {
                "id": rid,
                "links_ms": {cid: draw(st.integers(0, 3)) for cid in linked},
                "lambdas": [{"id": lam, "destinations": subset(linked)} for lam in lambdas],
            }
        )
        for lam in lambdas:
            if draw(st.booleans()):
                workload.append(
                    {
                        "router": rid,
                        "lambda": lam,
                        "process": draw(st.sampled_from(("poisson", "deterministic"))),
                        "rate_per_s": draw(
                            st.integers(5, 200) | st.sampled_from((8, 10, 20, 25, 40, 50, 100, 125, 200))
                        ),
                        "client_link_ms": draw(st.integers(0, 2)),
                    }
                )
        for cid in linked:
            # consecutive chosen segments touch; a skipped one leaves a gap
            cuts = sorted(set(draw(st.lists(st.integers(0, duration_ms), max_size=5))))
            for start, end in zip(cuts, cuts[1:]):
                if draw(st.booleans()):
                    congestion.append(
                        {"router": rid, "computer": cid, "start_ms": start, "end_ms": end}
                    )
    if hot:
        computers[0].update(
            workers=draw(st.integers(2, 4)),
            beta=draw(st.sampled_from((0.25, 0.5, 2.0))),
            service_ms=dict(
                zip(lambda_ids, draw(st.permutations(range(1, 11)))[: len(lambda_ids)])
            ),
        )
        rid = len(routers)
        routers.append(
            {
                "id": rid,
                "links_ms": {0: draw(st.integers(0, 3))},
                "lambdas": [{"id": lam, "destinations": [0]} for lam in (0, 1)],
            }
        )
        for lam in (0, 1):
            workload.append(
                {
                    "router": rid,
                    "lambda": lam,
                    "process": "deterministic",
                    "rate_per_s": draw(st.sampled_from((100, 200, 250, 500))),
                    "client_link_ms": draw(st.integers(0, 2)),
                }
            )
    if not workload:
        first = routers[0]
        workload.append(
            {
                "router": first["id"],
                "lambda": first["lambdas"][0]["id"],
                "process": "deterministic",
                "rate_per_s": 50,
                "client_link_ms": 1,
            }
        )
    tied = [w for w in workload if w["process"] == "deterministic" and w["client_link_ms"] == 0]
    if tied and draw(st.booleans()):
        w = draw(st.sampled_from(tied))
        period_us = 1_000_000 / w["rate_per_s"]
        issues = []
        while (t := round((len(issues) + 1) * period_us)) < 1000 * duration_ms:
            issues.append(t)
        if issues:
            rid = w["router"]
            (lam,) = [l for l in routers[rid]["lambdas"] if l["id"] == w["lambda"]]
            cid = draw(st.sampled_from(lam["destinations"]))
            i = draw(st.integers(0, len(issues) - 1))
            end_us = (issues + [1000 * duration_ms])[draw(st.integers(i + 1, len(issues)))]
            start_us = issues[i]
            # the pair's drawn windows that overlap this one give way to it
            congestion = [
                c
                for c in congestion
                if (c["router"], c["computer"]) != (rid, cid)
                or 1000 * c["end_ms"] <= start_us
                or end_us <= 1000 * c["start_ms"]
            ]
            congestion.append(
                {"router": rid, "computer": cid, "start_ms": start_us / 1000, "end_ms": end_us / 1000}
            )
    return {
        "name": "drawn",
        "duration_ms": duration_ms,
        "seed": draw(st.integers(0, 2**31 - 1)),
        "policy": {
            "kind": draw(st.sampled_from(("rr", "li", "rp"))),
            "alpha": draw(st.sampled_from((0.0, 0.5, 0.9, 1.0))),
            "b_min_ms": draw(st.integers(1, 20)),
            "retry_ms": draw(st.integers(1, 10)),
        },
        "computers": computers,
        "routers": routers,
        "workload": workload,
        "congestion": congestion,
    }


@st.composite
def given_up_docs(draw):
    """``scenario_docs`` documents in which a request is given up at the
    duration D and its retry, in a longer run, can come before D plus the
    smallest client link L.

    Every client link is 1-3 ms, so L is at least 1 ms, and the retry is
    1-4 ms. One workload issues deterministically at 200-1,000 per second,
    and every destination of its lambda is blacked out at its router from
    one of its last arrivals before D until D: that arrival fails, and its
    first retry at or past D is given up. Another arrival of the workload,
    or a request of another workload at the same computer, may then come
    between that retry and D + L.
    """
    doc = draw(scenario_docs())
    duration_us = 1000 * doc["duration_ms"]
    for w in doc["workload"]:
        w["client_link_ms"] = draw(st.integers(1, 3))
    doc["policy"]["retry_ms"] = draw(st.integers(1, 4))
    w = draw(st.sampled_from(doc["workload"]))
    w.update(process="deterministic", rate_per_s=draw(st.sampled_from((200, 250, 500, 1000))))
    period_us = 1_000_000 / w["rate_per_s"]
    link_us = 1000 * w["client_link_ms"]
    arrivals = []
    while (t := round((len(arrivals) + 1) * period_us) + link_us) < duration_us:
        arrivals.append(t)
    start_us = arrivals[-draw(st.integers(1, min(3, len(arrivals))))]
    rid = w["router"]
    (lam,) = [l for l in doc["routers"][rid]["lambdas"] if l["id"] == w["lambda"]]
    blacked = {(rid, cid) for cid in lam["destinations"]}
    # the pairs' drawn windows that overlap the blackout give way to it
    doc["congestion"] = [
        c
        for c in doc["congestion"]
        if (c["router"], c["computer"]) not in blacked
        or 1000 * c["end_ms"] <= start_us
        or duration_us <= 1000 * c["start_ms"]
    ] + [
        {"router": rid, "computer": cid, "start_ms": start_us / 1000, "end_ms": doc["duration_ms"]}
        for _, cid in sorted(blacked)
    ]
    return doc
