"""Shared test helpers: naive ledger and policy oracles, scenario builders."""

import random

from hypothesis import strategies as st

from edgedispatch.core import INFINITE
from edgedispatch.ledger import (
    AlreadyAdmitted,
    DeficitLedger,
    EmptyLedger,
    UnknownDestination,
)
from edgedispatch.policy import (
    NoEligibleDestination,
    PolicyKind,
    PolicyState,
    SelectionOutcome,
)
from edgedispatch.scenario import scenario_from_mapping


class NaiveLedger:
    """Plain-dict reimplementation of the ledger semantics, kept obvious."""

    def __init__(self):
        self.deficits = {}

    def __len__(self):
        return len(self.deficits)

    def __contains__(self, dest):
        return dest in self.deficits

    def pop_min(self):
        if not self.deficits:
            raise EmptyLedger("empty")
        return min(self.deficits, key=lambda d: (self.deficits[d], d))

    def charge(self, dest, amount):
        if amount < 0:
            raise ValueError("negative charge")
        if dest not in self.deficits:
            raise UnknownDestination(str(dest))
        self.deficits[dest] += amount

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


def check_same_state(ledger: DeficitLedger, oracle: NaiveLedger):
    """Every observable of the real ledger must match the oracle.

    Order counts: ``decode()`` runs by ``(deficit, id)``, and ``deltas()``
    is each deficit less its predecessor's, the first less zero.
    """
    ordered = sorted(oracle.decode().items(), key=lambda item: (item[1], item[0]))
    assert list(ledger.decode().items()) == ordered
    previous = [0] + [deficit for _, deficit in ordered]
    assert ledger.deltas() == [
        (dest, deficit - before) for (dest, deficit), before in zip(ordered, previous)
    ]
    assert len(ledger) == len(oracle)
    if len(oracle):
        assert ledger.pop_min() == oracle.pop_min()


class NaivePolicy(PolicyState):
    """``PolicyState`` whose selections rescan all k destinations.

    The state changes are inherited; only the four lookups the indexes
    replace are done the obvious way: the probe candidates by comprehension
    and ``rng.choice``, the active minimum by ``min``, the bootstrap cursor
    over a freshly built list of unmeasured destinations, and the
    random-proportional draw by a linear scan of freshly added sums. Active
    membership is read from the ledger, the one place that holds it.

    ``naive_selections`` counts the selections these overrides made. A
    caller asserts it is positive: if ``PolicyState`` renamed or split a
    selection method, the override would go dead and the comparison would
    set the indexed code against itself.
    """

    naive_selections = 0

    def _select_greedy(self):
        self.naive_selections += 1
        get = self.table.get
        weights = [(get(d), d) for d in self.destinations]
        unmeasured = [d for w, d in weights if w is None]
        if unmeasured:
            dest = unmeasured[self._bootstrap_cursor % len(unmeasured)]
            self._bootstrap_cursor += 1
            return SelectionOutcome(dest, is_probe=False)
        measured = [(w, d) for w, d in weights if w is not INFINITE]
        if not measured:
            raise NoEligibleDestination("no destination with a finite weight")
        if self.kind is PolicyKind.LEAST_IMPEDANCE:
            return SelectionOutcome(min(measured)[1], is_probe=False)
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

    def _select_rr(self, now):
        self.naive_selections += 1
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
            return SelectionOutcome(dest, is_probe=True)
        if len(self.ledger) == 0:
            raise NoEligibleDestination("nothing active or probe-eligible")
        dest = self.ledger.pop_min()
        self.ledger.charge(dest, self.table.get(dest))
        return SelectionOutcome(dest, is_probe=False)

    def _min_active_weight(self):
        active = [d for d in self.destinations if d in self.ledger]
        if not active:
            return float("inf")
        return min(self.table.get(d) for d in active)


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
    takes milliseconds.
    """
    duration_ms = draw(st.integers(20, 200))
    computer_ids = list(range(draw(st.integers(1, 5))))
    lambda_ids = list(range(draw(st.integers(1, 3))))

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
                        "rate_per_s": draw(st.integers(5, 200)),
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
