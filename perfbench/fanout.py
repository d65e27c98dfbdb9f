"""Seeded generator for the ``fanout`` workload: one router, many computers.

The scenario is returned as a plain mapping and turned into a ``Scenario``
by ``edgedispatch.scenario_from_mapping``, so the schema and the semantic
checks run on every generated input. The same seed always gives the same
mapping.

Two choices are deliberate:

* Blackout windows on one (router, computer) pair never overlap. The
  simulator toggles a blackout per pair without reference counting, so the
  first clear of two overlapping windows lifts the blackout while the second
  is still open. That leak is a known defect (ROADMAP.md, item 4) whose fix
  changes behaviour; its own tests will show it, and the benchmark neither
  hides it nor depends on it.
* Every time in the document is a whole number of milliseconds, 1 ms or
  more. Sub-microsecond values round to zero microseconds, and a zero retry
  or service time can stall the event loop at one timestamp.
"""

from __future__ import annotations

import itertools
import random

WORKERS = (1, 2)
BETAS = (0.0, 0.5)
SERVICE_MS = (3, 5, 8)
LINK_MS = (1, 2, 4)
COMPUTERS = 256
DURATION_MS = 100  # about 5,800 arrivals, a few seconds of host time per policy
LOAD = 0.7  # arrival rate over aggregate capacity at base service time
# Blackouts start only after every computer has answered once (at most
# 2 x 4 ms of links plus 1.5 x 8 ms of service after its first dispatch). A
# clear restores the estimate held before the mark; a computer never measured
# comes back unmeasured, and until its first response the greedy policies send
# it every request, which turns one clear into a backlog of seconds.
BOOTSTRAP_MS = 30


def capacity_per_s(computers: list[dict]) -> float:
    """Aggregate requests/s the computers sustain at their base service time."""
    return sum(c["workers"] * 1000 / c["service_ms"]["0"] for c in computers)


def fanout_mapping(seed: int) -> dict:
    """Scenario document: router 0 serves lambda 0 on COMPUTERS computers.

    Arrivals are Poisson at LOAD times the aggregate base capacity. Every
    fourth computer gets a script of non-overlapping blackout windows.
    """
    rng = random.Random(seed)
    kinds = list(itertools.product(WORKERS, BETAS, SERVICE_MS, LINK_MS))
    # Every kind appears equally often (up to one), so aggregate capacity and
    # the arrival rate are the same for every seed; the seed draws which
    # computer id gets which kind.
    drawn = [kinds[i % len(kinds)] for i in range(COMPUTERS)]
    rng.shuffle(drawn)
    comps = []
    links = {}
    for cid, (workers, beta, service, link) in enumerate(drawn):
        comps.append(
            {"id": cid, "workers": workers, "beta": beta, "service_ms": {"0": service}}
        )
        links[str(cid)] = link
    congestion = []
    for cid in range(0, COMPUTERS, 4):
        # Windows are laid out left to right with gaps of 10 ms or more, so
        # no two windows on this pair overlap or touch.
        start = rng.randint(BOOTSTRAP_MS, BOOTSTRAP_MS + DURATION_MS // 3)
        while start < DURATION_MS - 1:
            end = min(start + rng.randint(5, 30), DURATION_MS)
            congestion.append(
                {"router": 0, "computer": cid, "start_ms": start, "end_ms": end}
            )
            start = end + rng.randint(10, 60)
    return {
        "name": f"fanout-{COMPUTERS}",
        "description": "One router, heterogeneous computers, scripted blackouts.",
        "duration_ms": DURATION_MS,
        "seed": rng.getrandbits(31),
        "policy": {"kind": "rr", "alpha": 0.9, "b_min_ms": 10, "retry_ms": 5},
        "computers": comps,
        "routers": [
            {
                "id": 0,
                "links_ms": links,
                "lambdas": [{"id": 0, "destinations": list(range(COMPUTERS))}],
            }
        ],
        "workload": [
            {
                "router": 0,
                "lambda": 0,
                "process": "poisson",
                "rate_per_s": round(LOAD * capacity_per_s(comps), 3),
                "client_link_ms": 1,
            }
        ],
        "congestion": congestion,
    }
