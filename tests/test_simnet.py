import dataclasses
import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgedispatch import simnet
from edgedispatch.metrics import summarize, trace_bytes
from edgedispatch.policy import PolicyState
from edgedispatch.scenario import ComputerSpec, load_scenario, scenario_from_mapping
from edgedispatch.simnet import (
    TraceRow,
    UnknownLambda,
    _Computer,
    arrival_process,
    run,
    service_time,
)

from helpers import scenario_docs, tiny_doc, tiny_scenario


def take(it, n):
    return list(itertools.islice(it, n))


def test_deterministic_arrivals_are_evenly_spaced():
    assert take(arrival_process("deterministic", 10), 3) == [100_000, 200_000, 300_000]
    # fractional periods round per-arrival without drifting
    assert take(arrival_process("deterministic", 3), 3) == [333_333, 666_667, 1_000_000]


def test_poisson_arrivals_hit_the_requested_rate():
    times = take(arrival_process("poisson", 1000, seed=11), 100_000)
    mean_gap = times[-1] / len(times)
    assert abs(mean_gap - 1000) / 1000 < 0.02
    assert times == sorted(times)


def test_poisson_seed_reproducible():
    a = take(arrival_process("poisson", 500, seed=3), 100)
    b = take(arrival_process("poisson", 500, seed=3), 100)
    c = take(arrival_process("poisson", 500, seed=4), 100)
    assert a == b
    assert a != c


def test_arrival_process_validation():
    with pytest.raises(ValueError):
        next(arrival_process("bursty", 10))
    with pytest.raises(ValueError):
        next(arrival_process("poisson", 0))
    with pytest.raises(ValueError):
        next(arrival_process("deterministic", -5))


def test_service_time_scales_with_load():
    comp = _Computer(ComputerSpec(id=0, workers=2, beta=1.0, service_us={0: 5000}))
    comp.busy = 2
    assert service_time(comp, 0) == 10_000  # fully busy doubles it
    comp.busy = 1
    assert service_time(comp, 0) == 7500
    # 5003 * 1.25 = 6253.75 rounds to nearest, not down
    half = _Computer(ComputerSpec(id=0, workers=2, beta=0.5, service_us={0: 5003, 1: 5002}))
    half.busy = 1
    assert service_time(half, 0) == 6254
    # 5002 * 1.25 = 6252.5 rounds half to even
    assert service_time(half, 1) == 6252
    flat = _Computer(ComputerSpec(id=0, workers=2, beta=0.0, service_us={0: 5000}))
    flat.busy = 2
    assert service_time(flat, 0) == 5000
    with pytest.raises(UnknownLambda):
        service_time(comp, 9)


def trace_row(issued, completed, transfer, queue, processing, lam=0, destination=2):
    return TraceRow(
        0, lam, 0, destination, issued, completed, transfer, queue, processing, False, "rr"
    )


def test_trace_row_accepts_delays_that_sum_to_its_span():
    row = trace_row(1000, 8000, 2000, 0, 5000)
    assert row.latency_us == 7000


@pytest.mark.parametrize(
    "times",
    [
        (1000, 8001, 2000, 0, 5000),
        (1000, 7999, 2000, 0, 5000),
        (1000, 8000, 2001, 0, 5000),
        (1000, 8000, 2000, 1, 5000),
        (1000, 8000, 2000, 0, 4999),
    ],
)
def test_trace_row_rejects_a_sum_off_by_one(times):
    with pytest.raises(ValueError, match="sum to"):
        trace_row(*times)


@pytest.mark.parametrize(
    "times",
    [
        (-10, 6990, 2000, 0, 5000),  # issued
        (0, -7, 0, 0, -7),  # completed: a negative span needs a negative delay too
        (1000, 8000, -1, 2001, 5000),  # transfer
        (1000, 8000, 2001, -1, 5000),  # queue
        (1000, 8000, 2001, 5000, -1),  # processing
    ],
)
def test_trace_row_rejects_each_negative_field(times):
    # Every case but the negative completion sums to its span, so the
    # rejection comes from the sign rule alone.
    with pytest.raises(ValueError, match="non-negative"):
        trace_row(*times)


def test_trace_row_errors_name_the_broken_rule():
    with pytest.raises(ValueError) as negative:
        trace_row(0, -7, 0, 0, -7)
    assert str(negative.value) == (
        "times and delays must be non-negative: "
        "issued 0, completed -7, transfer 0, queue 0, processing -7"
    )
    with pytest.raises(ValueError) as unbalanced:
        trace_row(1000, 8000, 2000, 1, 5000)
    assert str(unbalanced.value) == "delay components sum to 7001us but the record spans 7000us"


def test_trace_row_accepts_unserved_rows():
    row = TraceRow(3, 0, 0, -1, 500, None, None, None, None, False, "li")
    assert row.latency_us is None


def test_trace_row_is_frozen_and_slotted():
    row = trace_row(1000, 8000, 2000, 0, 5000)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.queue_us = 1
    assert not hasattr(row, "__dict__")
    (completed, *_) = run(tiny_scenario()).completed
    assert not hasattr(completed, "__dict__")


def _raises_value_error(build, *args) -> bool:
    try:
        build(*args)
    except ValueError:
        return True
    return False


@settings(max_examples=300)
@given(
    fields=st.tuples(*[st.integers(-1_000, 1_000)] * 7),
    balanced=st.booleans(),
)
@example(fields=(0, 2, 1000, 8000, 2000, 0, 5000), balanced=False)
@example(fields=(0, 2, 1000, 8000, 2000, 1, 5000), balanced=False)
@example(fields=(0, 0, 0, -7, 0, 0, -7), balanced=False)
def test_trace_row_raises_exactly_when_the_delay_rule_fails(fields, balanced):
    lam, destination, issued, completed, transfer, queue, processing = fields
    if balanced:  # else the sum almost never holds
        completed = issued + transfer + queue + processing
    times = (issued, completed, transfer, queue, processing)
    row_raises = _raises_value_error(trace_row, *times, lam, destination)
    assert row_raises == (min(times) < 0 or completed - issued != transfer + queue + processing)


def test_single_request_delay_breakdown():
    result = run(tiny_scenario())
    assert result.arrivals == 1
    assert not result.unserved
    (row,) = result.completed
    assert row.destination == 0
    assert row.issued_us == 100_000
    assert row.completed_us == 107_000
    assert row.transfer_us == 2000  # 1 ms each way
    assert row.queue_us == 0
    assert row.processing_us == 5000
    assert row.latency_us == 7000
    assert row.policy == "li"


def test_client_link_adds_to_transfer():
    doc = tiny_doc()
    doc["workload"][0]["client_link_ms"] = 3
    result = run(tiny_scenario(workload=doc["workload"]))
    (row,) = result.completed
    assert row.transfer_us == 2 * 3000 + 2 * 1000
    assert row.completed_us == 100_000 + 3000 + 1000 + 5000 + 1000 + 3000
    assert row.queue_us == 0


def test_second_simultaneous_arrival_waits_for_the_worker():
    doc = tiny_doc()
    doc["workload"] = [dict(doc["workload"][0]), dict(doc["workload"][0])]
    for w in doc["workload"]:
        w["rate_per_s"] = 5
    s = tiny_scenario(duration_ms=250, workload=doc["workload"])
    result = run(s)
    assert result.arrivals == 2
    first, second = result.completed
    assert (first.issued_us, second.issued_us) == (200_000, 200_000)
    assert first.queue_us == 0
    assert second.queue_us == 5000  # one worker, so it sits out one service
    assert second.completed_us == first.completed_us + 5000


def test_simultaneous_starts_see_only_earlier_starts_as_busy():
    # two workers, beta 0.5, both requests delivered at one microsecond: the
    # first starts alone (1 of 2 busy), the second beside it (2 of 2 busy)
    doc = tiny_doc()
    doc["computers"][0].update(workers=2, beta=0.5)
    doc["workload"] = [dict(doc["workload"][0]), dict(doc["workload"][0])]
    for w in doc["workload"]:
        w["rate_per_s"] = 5
    s = tiny_scenario(duration_ms=250, computers=doc["computers"], workload=doc["workload"])
    result = run(s)
    first, second = result.completed
    assert first.dispatch_us == second.dispatch_us
    assert (first.queue_us, second.queue_us) == (0, 0)
    assert (first.processing_us, second.processing_us) == (6250, 7500)


def test_every_arrival_is_accounted_for():
    s = load_scenario("line").with_overrides(duration_us=500_000)
    result = run(s)
    rows = result.rows
    assert len(rows) == result.arrivals
    assert [r.seq for r in rows] == list(range(result.arrivals))
    assert len(result.completed) + len(result.unserved) == result.arrivals


def test_delays_compose_and_respect_causality():
    s = load_scenario("line").with_overrides(duration_us=500_000)
    for row in run(s).completed:
        assert row.completed_us > row.issued_us
        assert row.transfer_us >= 0 and row.queue_us >= 0 and row.processing_us > 0
        assert row.latency_us == row.transfer_us + row.queue_us + row.processing_us


def test_identical_runs_match_exactly():
    s = load_scenario("ring-tree").with_overrides(duration_us=1_500_000)
    a = run(s)
    b = run(s)
    assert a.rows == b.rows
    assert a.snapshot == b.snapshot
    assert a.congestion_log == b.congestion_log


def test_arrivals_do_not_depend_on_policy():
    from edgedispatch.policy import PolicyKind

    doc = tiny_doc(duration_ms=200)
    doc["workload"][0]["process"] = "poisson"
    doc["workload"][0]["rate_per_s"] = 100
    base = tiny_scenario(**{k: doc[k] for k in ("duration_ms", "workload")})
    issued = {}
    for kind in (PolicyKind.LEAST_IMPEDANCE, PolicyKind.ROUND_ROBIN):
        rows = run(base.with_overrides(policy_kind=kind)).rows
        issued[kind] = [r.issued_us for r in rows]
    assert issued[PolicyKind.LEAST_IMPEDANCE] == issued[PolicyKind.ROUND_ROBIN]


def test_blackout_delays_dispatch_until_cleared():
    # the only destination is congested from the start; the request retries
    # until the window closes and then goes straight through
    s = tiny_scenario(
        duration_ms=100,
        policy={"kind": "li", "retry_ms": 10},
        workload=[
            {
                "router": 0,
                "lambda": 0,
                "process": "deterministic",
                "rate_per_s": 20,
                "client_link_ms": 0,
            }
        ],
        congestion=[{"router": 0, "computer": 0, "start_ms": 0, "end_ms": 80}],
    )
    result = run(s)
    (row,) = result.completed
    assert row.issued_us == 50_000
    assert row.dispatch_us == 80_000  # clear and retry share the microsecond
    assert row.queue_us == 30_000
    assert row.latency_us == 2000 + 30_000 + 5000


def test_an_arrival_sees_a_toggle_at_its_microsecond():
    # toggles run before arrivals: a window opening as the request arrives
    # blocks it, and one closing then lets it through
    blocked = tiny_scenario(
        policy={"kind": "li", "retry_ms": 10},
        congestion=[{"router": 0, "computer": 0, "start_ms": 100, "end_ms": 120}],
    )
    (row,) = run(blocked).completed
    assert (row.issued_us, row.dispatch_us) == (100_000, 120_000)
    cleared = tiny_scenario(
        policy={"kind": "li", "retry_ms": 10},
        congestion=[{"router": 0, "computer": 0, "start_ms": 50, "end_ms": 100}],
    )
    (row,) = run(cleared).completed
    assert row.dispatch_us == 100_000


def test_arrivals_landing_together_go_in_seq_order():
    # lambda 1 (the later workload) is issued at 95 ms over a 5 ms client
    # link, lambda 0 at 100 ms over none: both reach the router at 100 ms,
    # and the earlier issue (seq 0) takes the only worker
    doc = tiny_doc(duration_ms=101)
    doc["computers"][0]["service_ms"] = {0: 5, 1: 5}
    doc["routers"][0]["lambdas"] = [
        {"id": 0, "destinations": [0]},
        {"id": 1, "destinations": [0]},
    ]
    doc["workload"] = [
        dict(doc["workload"][0], rate_per_s=10),
        dict(doc["workload"][0], **{"lambda": 1, "rate_per_s": 1000 / 95, "client_link_ms": 5}),
    ]
    first, second = run(tiny_scenario(**doc)).rows
    assert (first.seq, first.lam, first.issued_us) == (0, 1, 95_000)
    assert (second.seq, second.lam, second.issued_us) == (1, 0, 100_000)
    assert first.dispatch_us == second.dispatch_us == 100_000
    assert (first.queue_us, second.queue_us) == (0, 5000)


def test_an_arrival_runs_before_a_retry_at_its_microsecond():
    # seq 0 meets a blackout at 100 ms and retries at 200 ms, when seq 1
    # arrives: the arrival is dispatched first and takes the only worker
    s = tiny_scenario(
        duration_ms=250,
        policy={"kind": "li", "retry_ms": 100},
        congestion=[{"router": 0, "computer": 0, "start_ms": 100, "end_ms": 150}],
    )
    retried, arrived = run(s).rows
    assert retried.dispatch_us == arrived.dispatch_us == 200_000
    assert arrived.queue_us == 0
    assert retried.queue_us == 100_000 + 5000


class MonotonePolicy(PolicyState):
    """``PolicyState`` that fails when simulated time runs backwards: every
    ``now`` passed to any instance must be at least the one before it."""

    last_now = 0

    def _see(self, now):
        assert now >= MonotonePolicy.last_now, (now, MonotonePolicy.last_now)
        MonotonePolicy.last_now = now

    def select(self, now):
        self._see(now)
        return super().select(now)

    def on_response(self, dest, measured_us, now):
        self._see(now)
        return super().on_response(dest, measured_us, now)

    def sync_congestion(self, dest, congested, now):
        self._see(now)
        return super().sync_congestion(dest, congested, now)


@settings(max_examples=200)
@given(doc=scenario_docs())
def test_simulated_time_never_runs_backwards(doc):
    MonotonePolicy.last_now = 0
    with mock.patch.object(simnet, "PolicyState", MonotonePolicy):
        sim = simnet._Sim(scenario_from_mapping(doc))
    # the patch took: every policy in the run checks its clock
    assert all(
        type(p) is MonotonePolicy for r in sim.routers.values() for p in r.policies.values()
    )
    result = sim.run()
    assert len(result.completed) + len(result.unserved) == result.arrivals


def test_request_unserved_when_no_destination_before_the_end():
    s = tiny_scenario(
        congestion=[{"router": 0, "computer": 0, "start_ms": 0, "end_ms": 150}]
    )
    result = run(s)
    assert not result.completed
    (row,) = result.unserved
    assert row.destination == -1
    assert row.completed_us is None
    assert row.latency_us is None


def test_response_during_blackout_completes_but_is_not_measured():
    # dispatched before the window opens, answered inside it
    s = tiny_scenario(
        congestion=[{"router": 0, "computer": 0, "start_ms": 101, "end_ms": 140}]
    )
    result = run(s)
    (row,) = result.completed
    assert row.completed_us == 107_000
    lam_state = result.snapshot["routers"][0]["lambdas"][0]
    assert lam_state["responses_unmeasured"] == 1
    assert lam_state["weights"][0]["weight"] is None  # discarded, never observed


def test_blackout_is_scoped_to_one_router():
    doc = tiny_doc(duration_ms=150)
    doc["routers"].append(
        {"id": 1, "links_ms": {0: 1}, "lambdas": [{"id": 0, "destinations": [0]}]}
    )
    doc["workload"] = [
        dict(doc["workload"][0]),
        dict(doc["workload"][0], router=1),
    ]
    doc["congestion"] = [{"router": 0, "computer": 0, "start_ms": 90, "end_ms": 150}]
    result = run(tiny_scenario(**doc))
    assert [r.router for r in result.unserved] == [0]
    assert [r.router for r in result.completed] == [1]


def test_router_keeps_one_estimate_table_per_lambda():
    # lambdas 0 and 1 share computer 0 but must never share an estimate
    doc = tiny_doc(duration_ms=1000)
    doc["computers"][0]["service_ms"] = {0: 5, 1: 20}
    doc["routers"][0]["lambdas"] = [
        {"id": 0, "destinations": [0]},
        {"id": 1, "destinations": [0]},
    ]
    doc["workload"] = [
        dict(doc["workload"][0], rate_per_s=10),
        dict(doc["workload"][0], **{"lambda": 1, "rate_per_s": 7}),
    ]
    result = run(tiny_scenario(**doc))
    lambdas = result.snapshot["routers"][0]["lambdas"]
    assert lambdas[0]["weights"] == {0: {"weight": 7304, "congested": False, "shadow": None}}
    assert lambdas[1]["weights"] == {0: {"weight": 22000, "congested": False, "shadow": None}}


def test_probe_marked_in_trace_and_snapshot():
    result = run(tiny_scenario(policy={"kind": "rr"}))
    (row,) = result.completed
    assert row.is_probe
    assert row.policy == "rr"
    policy_snap = result.snapshot["routers"][0]["lambdas"][0]["policy"]
    assert policy_snap["probes_launched"] == 1
    assert policy_snap["probes_admitted"] == 1
    assert policy_snap["deficits_us"] == {0: 7000}


def test_congestion_log_shows_bit_exact_restore():
    s = load_scenario("ring-tree").with_overrides(duration_us=4_500_000)
    result = run(s)
    mark, clear = result.congestion_log
    assert (mark.at_us, mark.congested) == (2_000_000, True)
    assert (clear.at_us, clear.congested) == (4_000_000, False)
    assert mark.router == clear.router == 0
    assert mark.computer == clear.computer == 1
    assert mark.weights_us == clear.weights_us  # restored exactly
    assert all(w is not None for _, w in mark.weights_us)
    # nothing was dispatched into the blackout
    for row in result.completed:
        if row.router == 0 and row.destination == 1:
            assert not 2_000_000 <= row.dispatch_us < 4_000_000


@st.composite
def churn_docs(draw):
    """One router over 2-8 computers under ``rr``, ``li`` or ``rp``, offered
    30-150% of their base capacity, each computer with its own
    non-overlapping blackout windows (touching ones included): congestion
    marks and clears occur under every policy, and under ``rr`` probes,
    admissions, evictions and backoffs too."""
    n = draw(st.integers(2, 8))
    duration_ms = draw(st.integers(60, 400))
    computers, links, congestion = [], {}, []
    for cid in range(n):
        workers = draw(st.integers(1, 2))
        service = draw(st.integers(1, 12))
        computers.append(
            {
                "id": cid,
                "workers": workers,
                "beta": draw(st.sampled_from((0.0, 0.5))),
                "service_ms": {0: service},
            }
        )
        links[cid] = draw(st.integers(0, 4))
        cuts = sorted(draw(st.lists(st.integers(0, duration_ms), max_size=6)))
        for start, end in zip(cuts[::2], cuts[1::2]):
            if start < end:
                congestion.append(
                    {"router": 0, "computer": cid, "start_ms": start, "end_ms": end}
                )
    capacity = sum(c["workers"] * 1000 / c["service_ms"][0] for c in computers)
    return {
        "name": "churn",
        "duration_ms": duration_ms,
        "seed": draw(st.integers(0, 2**31 - 1)),
        "policy": {
            "kind": draw(st.sampled_from(("rr", "li", "rp"))),
            "alpha": draw(st.sampled_from((0.5, 0.9))),
            "b_min_ms": draw(st.integers(1, 20)),
            "retry_ms": draw(st.integers(1, 10)),
        },
        "computers": computers,
        "routers": [
            {
                "id": 0,
                "links_ms": links,
                "lambdas": [{"id": 0, "destinations": list(range(n))}],
            }
        ],
        "workload": [
            {
                "router": 0,
                "lambda": 0,
                "process": "poisson",
                "rate_per_s": round(draw(st.floats(0.3, 1.5)) * capacity, 3),
                "client_link_ms": draw(st.integers(0, 2)),
            }
        ],
        "congestion": congestion,
    }


@settings(max_examples=45)
@given(doc=churn_docs())
def test_under_churn_accounts_respects_blackouts_and_repeats(doc):
    scenario = scenario_from_mapping(doc)
    result = run(scenario)
    rows = result.rows
    assert [r.seq for r in rows] == list(range(result.arrivals))
    windows = {}
    for w in scenario.congestion:
        windows.setdefault((w.router, w.computer), []).append((w.start_us, w.end_us))
    for row in result.completed:
        for start, end in windows.get((row.router, row.destination), ()):
            assert not start <= row.dispatch_us < end, (row, start, end)
    again = run(scenario_from_mapping(doc))
    assert trace_bytes(again.rows) == trace_bytes(rows)
    assert (
        summarize(again.rows, again.snapshot).to_json()
        == summarize(rows, result.snapshot).to_json()
    )
