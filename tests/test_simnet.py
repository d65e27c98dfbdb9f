import contextlib
import copy
import dataclasses
import gc
import heapq
import inspect
import itertools
import pickle
import random
import types
import weakref
from importlib import resources
from unittest import mock

import pytest
import yaml
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from edgedispatch import simnet
from edgedispatch.estimator import WeightTable
from edgedispatch.metrics import read_trace, summarize, trace_bytes, write_trace
from edgedispatch.policy import PolicyKind, PolicyState
from edgedispatch.scenario import ComputerSpec, load_scenario, scenario_from_mapping
from edgedispatch.simnet import (
    TraceRow,
    _Computer,
    arrival_process,
    run,
    service_time,
)

from helpers import (
    fanout_doc,
    given_up_docs,
    reference_arrivals,
    reference_run,
    scenario_docs,
    tiny_doc,
    tiny_scenario,
)
from perfbench.fanout import fanout_mapping


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


@pytest.mark.parametrize("rate_per_s", [0.5, 120, 640, 12_345.678, 2e6])
@pytest.mark.parametrize("seed", [0, 7, 2**48 - 1])
def test_poisson_gaps_are_expovariate_draws(rate_per_s, seed):
    # the stream inlines Random.expovariate's formula; it must not drift
    # from the method's floats, or every Poisson trace would move
    rng = random.Random(seed)
    rate_per_us = rate_per_s / 1_000_000
    t = 0.0
    expected = []
    for _ in range(10_000):
        t += rng.expovariate(rate_per_us)
        expected.append(round(t))
    assert take(arrival_process("poisson", rate_per_s, seed), 10_000) == expected


@pytest.mark.parametrize("seed", [0, 5, 2**48 - 1])
@pytest.mark.parametrize("rate_per_s", [1, 640, 1_000_000])
@pytest.mark.parametrize("kind", ["deterministic", "poisson"])
def test_arrival_process_is_the_loop(kind, rate_per_s, seed):
    # the C iterator chain yields the loop's ints, draw for draw
    got = take(arrival_process(kind, rate_per_s, seed), 100_000)
    assert got == take(reference_arrivals(kind, rate_per_s, seed), 100_000)


def reference_issues(scenario):
    """The issues as a lazy merge of the loop streams gave them: ``(time,
    workload index)`` in order, up to the first at or past the duration."""
    master = random.Random(scenario.seed)
    workloads = sorted(scenario.workload, key=lambda w: (w.router, w.lam))
    seeds = [master.getrandbits(48) for _ in workloads]
    streams = [
        zip(reference_arrivals(w.process, w.rate_per_s, seed), itertools.repeat(idx))
        for idx, (w, seed) in enumerate(zip(workloads, seeds))
    ]
    merged = heapq.merge(*streams)
    return list(itertools.takewhile(lambda issue: issue[0] < scenario.duration_us, merged))


# Two deterministic workloads at one rate, on two routers: every issue of
# the one ties with an issue of the other at its microsecond.
TIED_ISSUES_DOC = tiny_doc(
    routers=[
        {"id": 0, "links_ms": {0: 1}, "lambdas": [{"id": 0, "destinations": [0]}]},
        {"id": 1, "links_ms": {0: 1}, "lambdas": [{"id": 0, "destinations": [0]}]},
    ],
    workload=[
        {"router": r, "lambda": 0, "process": "deterministic", "rate_per_s": 40, "client_link_ms": 0}
        for r in (1, 0)
    ],
)


@settings(max_examples=100)
@given(doc=scenario_docs())
@example(doc=TIED_ISSUES_DOC)
def test_the_issues_are_the_merged_streams(doc):
    scenario = scenario_from_mapping(doc)
    issues = simnet._Sim(scenario).issues
    assert issues == reference_issues(scenario)
    if doc is TIED_ISSUES_DOC:
        assert issues[:4] == [(25_000, 0), (25_000, 1), (50_000, 0), (50_000, 1)]
        assert len(issues) == 10


def test_arrival_process_validation():
    with pytest.raises(ValueError):
        next(arrival_process("bursty", 10))
    with pytest.raises(ValueError):
        next(arrival_process("poisson", 0))
    with pytest.raises(ValueError):
        next(arrival_process("deterministic", -5))


def test_service_time_scales_with_load():
    # The load at a start is 1 plus the services on the computer that end
    # after it, read from the workers' free times
    comp = _Computer(ComputerSpec(id=0, workers=2, beta=1.0, service_us={0: 5000}))
    comp.free = [8000, 12_000]
    assert service_time(comp, 0, 8000) == 10_000  # fully busy doubles it
    # a worker that becomes free exactly at the start is done
    comp.free = [0, 9000]
    assert service_time(comp, 0, 9000) == 7500
    # 5003 * 1.25 = 6253.75 rounds to nearest, not down
    half = _Computer(ComputerSpec(id=0, workers=2, beta=0.5, service_us={0: 5003, 1: 5002}))
    half.free = [0, 3000]
    assert service_time(half, 0, 4000) == 6254
    # 5002 * 1.25 = 6252.5 rounds half to even
    assert service_time(half, 1, 4000) == 6252
    flat = _Computer(ComputerSpec(id=0, workers=2, beta=0.0, service_us={0: 5000}))
    flat.free = [8000, 12_000]
    assert service_time(flat, 0, 8000) == 5000
    with pytest.raises(KeyError):
        service_time(comp, 9, 9000)


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
    (completed, *_) = run(tiny_scenario()).completed
    for built in (row, completed, pickle.loads(pickle.dumps(row)), dataclasses.replace(row)):
        assert type(built) is TraceRow and not hasattr(built, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.queue_us = 1


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


# TraceRow.__new__ is written out and stores each slot by name, so these
# tests hold it to the declared fields.

_natural = st.integers(0, 10**9)


@st.composite
def row_args(draw):
    """A TraceRow argument tuple that satisfies the delay rule: completed
    with non-negative delays summing to the span, or unserved."""
    seq, lam, router, destination = draw(st.tuples(*[st.integers(-1, 10**6)] * 4))
    issued = draw(_natural)
    if draw(st.booleans()):
        transfer, queue, processing = draw(st.tuples(_natural, _natural, _natural))
        completion = (issued + transfer + queue + processing, transfer, queue, processing)
    else:
        completion = (None, None, None, None)
    tail = draw(st.tuples(st.booleans(), st.text(max_size=3), st.none() | _natural))
    return (seq, lam, router, destination, issued, *completion, *tail)


@settings(max_examples=200)
@given(args=row_args())
@example(args=(1, 2, 3, 4, 5, 66, 7, 8, 46, True, "rr", 9))
@example(args=(1, 2, 3, -1, 5, None, None, None, None, False, "li", None))
def test_trace_row_stores_every_argument_in_its_own_field(args):
    row = TraceRow(*args)
    assert dataclasses.astuple(row) == args
    names = [f.name for f in dataclasses.fields(TraceRow)]
    by_keyword = TraceRow(**dict(zip(names, args)))
    assert by_keyword == row and hash(by_keyword) == hash(row)
    twins = [pickle.loads(pickle.dumps(row, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (*twins, copy.copy(row), copy.deepcopy(row)):
        assert type(twin) is TraceRow
        assert dataclasses.astuple(twin) == args
        assert twin == row and hash(twin) == hash(row)


def test_trace_row_signature_lists_the_fields_in_order():
    params = inspect.signature(TraceRow).parameters
    fields = dataclasses.fields(TraceRow)
    assert list(params) == [f.name for f in fields]
    assert [p.default for p in params.values()] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        for f in fields
    ]
    assert params["dispatch_us"].default is None


def test_replace_checks_the_delay_rule():
    row = trace_row(1000, 8000, 2000, 0, 5000)
    with pytest.raises(ValueError, match="sum to"):
        dataclasses.replace(row, queue_us=row.queue_us + 1)


def test_a_pickled_row_is_rebuilt_through_the_delay_check():
    row = trace_row(1000, 8000, 2000, 0, 5000)
    build, args = row.__reduce__()
    assert build is TraceRow and args == dataclasses.astuple(row)
    queue = [f.name for f in dataclasses.fields(TraceRow)].index("queue_us")
    forged = args[:queue] + (args[queue] + 1,) + args[queue + 1:]

    class Forged:
        def __reduce__(self):
            return build, forged

    payload = pickle.dumps(Forged())
    with pytest.raises(ValueError, match="sum to"):
        pickle.loads(payload)


def test_trace_row_is_built_by_the_written_new():
    # No __init__ runs but object's: simnet's __new__ fills a writable twin
    # whose slots are TraceRow's own, then switches its class.
    assert TraceRow.__new__.__code__.co_filename == simnet.__file__
    assert TraceRow.__init__ is object.__init__
    assert not TraceRow.__dataclass_params__.init
    assert simnet._Cells.__slots__ == TraceRow.__slots__


def test_a_twin_with_another_layout_fails_on_the_first_row(monkeypatch):
    wider = type("_Cells", (), {"__slots__": (*TraceRow.__slots__, "extra")})
    monkeypatch.setattr(simnet, "_Cells", wider)
    with pytest.raises(TypeError, match="layout differs"):
        trace_row(1000, 8000, 2000, 0, 5000)


def test_request_record_names_trace_row():
    assert simnet.RequestRecord is TraceRow


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


@pytest.mark.parametrize("policy", ["rr", "li", "rp"])
@pytest.mark.parametrize("name", ["line", "ring-tree"])
def test_a_finished_run_leaves_no_reference_cycle(name, policy):
    # A _Sim that refers to itself, say through a stored bound handler, and
    # its rows wait for a full garbage collection once the run is over; a
    # prototype that did so raised the benchmark's peak RSS by a quarter.
    # With the collector off, dropping the last reference must free it.
    scenario = load_scenario(name).with_overrides(
        duration_us=500_000, policy_kind=PolicyKind(policy)
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = simnet._Sim(scenario)
        gone = weakref.ref(sim)
        assert sim.run().completed
        del sim
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


def test_runs_and_trace_reads_leave_the_collector_nothing_to_free(tmp_path):
    # simnet.run and metrics.read_trace pause the cyclic collector, which
    # only defers work if neither builds a reference cycle. With the
    # collector off, every run and read below, once dropped, must leave
    # gc.collect() nothing: line and ring-tree at their own durations, and
    # fanout_doc(7), which has blackout toggles and, under rr, retries and
    # probes.
    scenarios = [
        scenario.with_overrides(policy_kind=kind)
        for scenario in (
            load_scenario("line"),
            load_scenario("ring-tree"),
            scenario_from_mapping(fanout_doc(7)),
        )
        for kind in PolicyKind
    ]
    path = tmp_path / "trace.csv"
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for scenario in scenarios:
            result = run(scenario)
            write_trace(path, result.rows)
            rows = read_trace(path)
            assert len(rows) == len(result.rows)
            del result, rows
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


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
        type(p) is MonotonePolicy for ps in sim.policies.values() for p in ps.values()
    )
    result = sim.run()
    assert len(result.completed) + len(result.unserved) == result.arrivals


@settings(max_examples=100)
@given(doc=scenario_docs(), data=st.data())
def test_the_order_of_a_documents_lists_never_changes_the_run(doc, data):
    # scenario_docs emits every list in id order, so only a shuffled copy
    # shows a seed, a policy or an arrival stream handed out in list order
    shuffled = copy.deepcopy(doc)

    def permute(items):
        # Drawn permutations lean toward the order they are given, so they
        # start from the reverse of id order: most draws then move something.
        return data.draw(st.permutations(items[::-1]))

    for key in ("routers", "workload", "computers", "congestion"):
        shuffled[key] = permute(shuffled[key])
    for r in shuffled["routers"]:
        r["lambdas"] = permute(r["lambdas"])
        for l in r["lambdas"]:
            l["destinations"] = permute(l["destinations"])
    original = scenario_from_mapping(doc)
    reordered = scenario_from_mapping(shuffled)
    for kind in PolicyKind:
        want = run(original.with_overrides(policy_kind=kind))
        got = run(reordered.with_overrides(policy_kind=kind))
        assert trace_bytes(got.rows) == trace_bytes(want.rows)
        if want.rows:
            assert (
                summarize(got.rows, got.snapshot).to_json()
                == summarize(want.rows, want.snapshot).to_json()
            )
        else:
            assert got.snapshot == want.snapshot


def shipped_doc(file):
    """A shipped scenario's document, as parsed from its YAML file."""
    text = resources.files("edgedispatch").joinpath(f"scenarios/{file}").read_text("utf-8")
    return yaml.safe_load(text)


def runs_by_kind(doc):
    scenario = scenario_from_mapping(doc)
    return {kind: run(scenario.with_overrides(policy_kind=kind)) for kind in PolicyKind}


def relabelled_doc(doc, relabel):
    """``doc`` with every computer id ``x`` written as ``relabel(x)``."""
    relabelled = copy.deepcopy(doc)
    for c in relabelled["computers"]:
        c["id"] = relabel(c["id"])
    for r in relabelled["routers"]:
        r["links_ms"] = {relabel(cid): ms for cid, ms in r["links_ms"].items()}
        for l in r["lambdas"]:
            l["destinations"] = [relabel(cid) for cid in l["destinations"]]
    for w in relabelled["congestion"]:
        w["computer"] = relabel(w["computer"])
    return relabelled


def with_destinations(rows, relabel):
    return [
        dataclasses.replace(row, destination=relabel(row.destination))
        if row.destination >= 0
        else row
        for row in rows
    ]


@settings(max_examples=50)
@given(doc=scenario_docs())
@example(doc=shipped_doc("line.yaml"))
@example(doc=shipped_doc("ring_tree.yaml"))
def test_computer_ids_are_names(doc):
    # x -> 3x + 7 keeps the ids' order, so every tie breaks as before; the
    # wider ids widen the policies' sorted indexes as they fill
    def relabel(cid):
        return 3 * int(cid) + 7

    want, got = runs_by_kind(doc), runs_by_kind(relabelled_doc(doc, relabel))
    for kind in PolicyKind:
        mapped = with_destinations(want[kind].rows, relabel)
        assert trace_bytes(got[kind].rows) == trace_bytes(mapped)


def test_a_relabel_that_reverses_the_ids_changes_who_wins_a_tie():
    # Not a relation (simnet docstring): a tie goes to the smallest id, so
    # x -> 3 - x on line's four computers sends the first request, which
    # meets four equal weights, to the other end of the line.
    doc = shipped_doc("line.yaml")

    def relabel(cid):
        return 3 - int(cid)

    want, got = runs_by_kind(doc), runs_by_kind(relabelled_doc(doc, relabel))
    for kind in PolicyKind:
        mapped = with_destinations(want[kind].rows, relabel)
        assert (mapped[0].destination, got[kind].rows[0].destination) == (3, 0)
        assert trace_bytes(got[kind].rows) != trace_bytes(mapped)


def test_doubling_every_time_breaks_at_a_fixed_row():
    # Not a relation (simnet docstring): WeightTable.observe rounds half up
    # in integer microseconds, so an estimate of doubled samples is not
    # always double the estimate. line under rr with deterministic issues
    # every 1600 us (625 per second, so every issue time doubles exactly)
    # matches its doubled twin up to row 109 of 6,249.
    doc = shipped_doc("line.yaml")
    doc["workload"][0].update(process="deterministic", rate_per_s=625)
    doubled = copy.deepcopy(doc)
    doubled["duration_ms"] *= 2
    for key in ("b_min_ms", "retry_ms"):
        doubled["policy"][key] *= 2
    for c in doubled["computers"]:
        c["service_ms"] = {lam: 2 * ms for lam, ms in c["service_ms"].items()}
    for r in doubled["routers"]:
        r["links_ms"] = {cid: 2 * ms for cid, ms in r["links_ms"].items()}
    for w in doubled["workload"]:
        w.update(rate_per_s=w["rate_per_s"] / 2, client_link_ms=2 * w["client_link_ms"])
    times = ("issued_us", "completed_us", "transfer_us", "queue_us", "processing_us", "dispatch_us")
    want = [
        dataclasses.replace(row, **{t: 2 * getattr(row, t) for t in times})
        for row in run(scenario_from_mapping(doc)).rows
    ]
    got = run(scenario_from_mapping(doubled)).rows
    assert len(got) == len(want) == 6249
    first = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    assert first == 109
    assert (want[first].destination, got[first].destination) == (0, 1)

    # The rounding itself, at alpha 0.9: 0.9 * 7000 + 0.1 * 7005 = 7000.5
    # rounds up to 7001, but the doubled blend is exactly 14001.
    for scale, want_estimate in ((1, 7001), (2, 14001)):
        table = WeightTable(0.9)
        table.observe(0, 7000 * scale)
        assert table.observe(0, 7005 * scale) == want_estimate


@settings(max_examples=50)
@given(doc=scenario_docs(), extra=st.integers(0, 40))
@example(doc=shipped_doc("line.yaml"), extra=2)
@example(doc=shipped_doc("ring_tree.yaml"), extra=9)
def test_a_computer_no_lambda_routes_to_changes_nothing(doc, extra):
    # linked from every router but no lambda's destination, with an id that
    # may fall between the others
    ids = {int(c["id"]) for c in doc["computers"]}
    cid = extra if extra not in ids else max(ids) + 1 + extra
    grown = copy.deepcopy(doc)
    service_ms = dict(grown["computers"][0]["service_ms"])
    grown["computers"].append({"id": cid, "workers": 1, "beta": 0.5, "service_ms": service_ms})
    for r in grown["routers"]:
        r["links_ms"] = {**r["links_ms"], cid: 0}
    want, got = runs_by_kind(doc), runs_by_kind(grown)
    for kind in PolicyKind:
        assert trace_bytes(got[kind].rows) == trace_bytes(want[kind].rows)
        assert (
            summarize(got[kind].rows, got[kind].snapshot).to_json()
            == summarize(want[kind].rows, want[kind].snapshot).to_json()
        )


def undisturbed_before(scenario, result):
    """When a longer run of ``scenario`` can first differ from ``result``
    (simnet docstring): the duration plus the smallest client link, or the
    earliest retry that ``result`` gave up, whichever is sooner."""
    retry = scenario.policy.retry_us
    client = {(w.router, w.lam): w.client_link_us for w in scenario.workload}
    assert len(client) == len(scenario.workload)
    end = scenario.duration_us + min(client.values())
    for row in result.unserved:
        # every attempt failed, one retry apart from the arrival; the first
        # retry at or past the duration is the one given up
        at = row.issued_us + client[row.router, row.lam]
        end = min(end, at + retry * max(1, -(-(scenario.duration_us - at) // retry)))
    return end


# Client links of 2 ms. Router 0's request (seq 1, issued at 10 ms) meets a
# blackout until the 17 ms duration, and its retry at 17 ms is given up;
# router 1's seq 2, issued at 16 ms, is delivered at 18 ms, before the
# duration plus the smallest client link.
GIVEN_UP_DOC = tiny_doc(
    duration_ms=17,
    policy={"kind": "li", "retry_ms": 5},
    computers=[{"id": 0, "workers": 1, "beta": 0.0, "service_ms": {0: 5}}],
    routers=[
        {"id": 0, "links_ms": {0: 0}, "lambdas": [{"id": 0, "destinations": [0]}]},
        {"id": 1, "links_ms": {0: 0}, "lambdas": [{"id": 0, "destinations": [0]}]},
    ],
    workload=[
        {"router": 0, "lambda": 0, "process": "deterministic", "rate_per_s": 100, "client_link_ms": 2},
        {"router": 1, "lambda": 0, "process": "deterministic", "rate_per_s": 125, "client_link_ms": 2},
    ],
    congestion=[{"router": 0, "computer": 0, "start_ms": 0, "end_ms": 17}],
)


def doubled_duration(doc):
    longer = copy.deepcopy(doc)
    longer["duration_ms"] *= 2
    return longer


@settings(max_examples=100)
@given(doc=scenario_docs() | given_up_docs())
@example(doc=shipped_doc("line.yaml"))
@example(doc=shipped_doc("ring_tree.yaml"))
@example(doc=GIVEN_UP_DOC)
def test_the_future_cannot_change_the_past(doc):
    # a row is fixed at its delivery, so one delivered before the longer
    # run's first extra event is the same row in both runs
    scenario = scenario_from_mapping(doc)
    links = {r.id: r.links_us for r in scenario.routers}
    want, got = runs_by_kind(doc), runs_by_kind(doubled_duration(doc))
    for kind in PolicyKind:
        end = undisturbed_before(scenario, want[kind])
        rows = {row.seq: row for row in got[kind].rows}
        for row in want[kind].completed:
            if row.dispatch_us + links[row.router][row.destination] < end:
                assert rows[row.seq] == row


def test_a_request_given_up_at_the_duration_can_reach_a_computer_first():
    # The cone ends at the first retry given up, not only at the duration
    # plus the smallest client link (simnet docstring): run for 34 ms, seq
    # 1 retries at 17 ms and holds the computer until 22 ms, so seq 2,
    # delivered at 18 ms, waits 4 ms for it.
    scenario = scenario_from_mapping(GIVEN_UP_DOC)
    short = run(scenario)
    want = short.rows
    got = run(scenario_from_mapping(doubled_duration(GIVEN_UP_DOC))).rows
    assert want[1].destination == -1
    assert (got[1].dispatch_us, got[1].queue_us) == (17_000, 5000)
    assert (want[2].dispatch_us, want[2].queue_us, got[2].queue_us) == (18_000, 0, 4000)
    assert undisturbed_before(scenario, short) == 17_000
    assert want[0] == got[0]


def a_row_before_the_looser_cone_moves(doc):
    """Whether a longer run changes a row delivered before the duration
    plus the smallest client link: the cone without the given-up retry."""
    scenario = scenario_from_mapping(doc)
    end = scenario.duration_us + min(w.client_link_us for w in scenario.workload)
    links = {r.id: r.links_us for r in scenario.routers}
    want, got = runs_by_kind(doc), runs_by_kind(doubled_duration(doc))
    for kind in PolicyKind:
        rows = {row.seq: row for row in got[kind].rows}
        for row in want[kind].completed:
            if row.dispatch_us + links[row.router][row.destination] < end and rows[row.seq] != row:
                return True
    return False


def test_a_drawn_document_breaks_the_cone_without_the_given_up_retry():
    # not only GIVEN_UP_DOC: given_up_docs draws documents on which the
    # looser cone fails, so the property above runs where it matters. The
    # first such document is enough (about one in twelve draws); shrinking
    # it would cost six runs a step.
    doc = find(
        given_up_docs(),
        a_row_before_the_looser_cone_moves,
        settings=settings(
            max_examples=300, derandomize=True, database=None, phases=[Phase.generate]
        ),
    )
    scenario = scenario_from_mapping(doc)
    assert min(w.client_link_us for w in scenario.workload) >= 1000
    assert any(run(scenario.with_overrides(policy_kind=kind)).unserved for kind in PolicyKind)


def termination_bound(scenario, arrivals):
    """The most events a run of ``scenario`` with ``arrivals`` issues can
    pop. Every delay is at least 1 us and a retry at or past the duration
    gives the request up, so a request arrives at most
    ``1 + ceil(duration / retry)`` times, then is delivered, served and
    answered once; each window toggles twice."""
    retries = -(-scenario.duration_us // scenario.policy.retry_us)
    return arrivals * (4 + retries) + 2 * len(scenario.congestion)


def assert_matches_reference(scenario):
    """The loop and ``helpers.reference_run`` agree on every byte of the
    trace and the summary, on the arrivals and on the congestion log; the
    reference pops no more events than the termination bound."""
    result = run(scenario)
    reference = reference_run(scenario)
    assert result.arrivals == reference.arrivals
    assert reference.pops <= termination_bound(scenario, reference.arrivals)
    assert trace_bytes(result.rows) == trace_bytes(reference.rows)
    assert [
        (e.at_us, e.router, e.computer, e.congested, e.weights_us) for e in result.congestion_log
    ] == reference.congestion_log
    # every selection went through the rescan, so the comparison really
    # sets two implementations against each other
    assert reference.naive_selections == reference.selects
    if reference.rows:
        assert reference.selects > 0
        assert (
            summarize(result.rows, result.snapshot).to_json()
            == summarize(reference.rows, reference.snapshot).to_json()
        )
    else:
        assert result.snapshot == reference.snapshot
    return reference


# Two workloads with client links of 0 and 2 ms land at the same
# microseconds, some on the marks and clears of touching windows, some with
# nothing else there, while a 1 ms retry fires under the blackouts.
TIED_DOC = tiny_doc(
    duration_ms=120,
    policy={"kind": "rr", "retry_ms": 1, "b_min_ms": 2},
    computers=[
        {"id": 0, "workers": 1, "beta": 0.5, "service_ms": {0: 3}},
        {"id": 1, "workers": 2, "beta": 0.0, "service_ms": {0: 4}},
    ],
    routers=[
        {"id": 0, "links_ms": {0: 0, 1: 1}, "lambdas": [{"id": 0, "destinations": [0, 1]}]},
        {"id": 1, "links_ms": {0: 1}, "lambdas": [{"id": 0, "destinations": [0]}]},
    ],
    workload=[
        {"router": 0, "lambda": 0, "process": "deterministic", "rate_per_s": 200, "client_link_ms": 0},
        {"router": 1, "lambda": 0, "process": "deterministic", "rate_per_s": 250, "client_link_ms": 2},
    ],
    congestion=[
        {"router": 0, "computer": 0, "start_ms": 10, "end_ms": 30},
        {"router": 0, "computer": 1, "start_ms": 20, "end_ms": 30},
        {"router": 0, "computer": 1, "start_ms": 30, "end_ms": 50},
        {"router": 1, "computer": 0, "start_ms": 30, "end_ms": 60},
    ],
)


@pytest.mark.parametrize("policy", ["rr", "li", "rp"])
def test_ties_and_retries_match_the_reference(policy):
    scenario = scenario_from_mapping(TIED_DOC).with_overrides(policy_kind=PolicyKind(policy))
    reference = assert_matches_reference(scenario)
    assert reference.retries > 0
    assert reference.congestion_log


def deterministic(router, lam, client_link_ms, rate_per_s=100):
    return {
        "router": router, "lambda": lam, "process": "deterministic",
        "rate_per_s": rate_per_s, "client_link_ms": client_link_ms,
    }


def run_logging_handlers(scenario):
    """Run ``scenario``; also return each handler call the loop made, in
    call order, as ``(now, handler name, seq)``. An arrival's and a
    delivery's payload starts with the seq; a response's is ``(policy,
    row)``."""
    calls = []

    def logged(handler):
        def call(self, now, payload):
            seq = payload[1].seq if handler.__name__ == "_on_response" else payload[0]
            calls.append((now, handler.__name__, seq))
            return handler(self, now, payload)

        return call

    names = ("_on_arrival", "_on_deliver", "_on_response")
    with mock.patch.multiple(simnet._Sim, **{n: logged(getattr(simnet._Sim, n)) for n in names}):
        result = run(scenario)
    return result, calls


@contextlib.contextmanager
def watching_heap():
    """Patch ``simnet``'s ``heapq`` so that every push is seen. Yields a dict
    with the event heap's high-water mark and the number of deliveries
    pushed (not run in place at their dispatch)."""
    seen = {"high_water": 0, "deliveries": 0}

    def heappush(heap, entry):
        heapq.heappush(heap, entry)
        seen["high_water"] = max(seen["high_water"], len(heap))
        if entry[1] == simnet._DELIVERY:
            seen["deliveries"] += 1

    shim = {name: getattr(heapq, name) for name in heapq.__all__}
    shim["heappush"] = heappush
    with mock.patch.object(simnet, "heapq", types.SimpleNamespace(**shim)):
        yield seen


def response_calls(calls):
    return [(t, seq) for t, name, seq in calls if name == "_on_response"]


def test_a_service_that_ends_at_a_start_does_not_load_it():
    # Two workers, beta 1. seq 0 (lambda 0, 4 ms) starts alone at 10 ms and
    # takes 6 ms; seq 1 (lambda 1, 2 ms) starts beside it at 12 ms and takes
    # 4 ms; seq 2 (lambda 0) arrives at 13 ms and waits. Both services end at
    # 16 ms, so seq 2 starts with no other request in service: 4 ms x 1.5,
    # not the 4 ms x 2 that counting the second end as busy would give.
    scenario = tiny_scenario(
        duration_ms=20,
        computers=[{"id": 0, "workers": 2, "beta": 1.0, "service_ms": {0: 4, 1: 2}}],
        routers=[
            {
                "id": 0,
                "links_ms": {0: 0},
                "lambdas": [{"id": 0, "destinations": [0]}, {"id": 1, "destinations": [0]}],
            },
            {"id": 1, "links_ms": {0: 0}, "lambdas": [{"id": 0, "destinations": [0]}]},
        ],
        workload=[deterministic(0, 0, 0), deterministic(0, 1, 2), deterministic(1, 0, 3)],
    )
    rows = run(scenario).rows
    # with 0 ms links, a service starts at dispatch + queue
    assert [(r.seq, r.lam, r.dispatch_us, r.queue_us, r.processing_us) for r in rows] == [
        (0, 0, 10_000, 0, 6000),
        (1, 1, 12_000, 0, 4000),
        (2, 0, 13_000, 3000, 6000),
    ]
    assert_matches_reference(scenario)


def test_a_retry_runs_before_a_delivery_at_its_microsecond():
    # seq 0 (router 0) is delivered at 12 ms over a 2 ms link. seq 1 (router
    # 1) meets a blackout at 10 ms and retries at 12 ms, as it clears; its 0
    # ms link files its delivery at 12 ms, behind seq 0's, so seq 0 takes the
    # only worker and seq 1 waits for it
    scenario = tiny_scenario(
        duration_ms=20,
        policy={"kind": "li", "retry_ms": 2},
        routers=[
            {"id": 0, "links_ms": {0: 2}, "lambdas": [{"id": 0, "destinations": [0]}]},
            {"id": 1, "links_ms": {0: 0}, "lambdas": [{"id": 0, "destinations": [0]}]},
        ],
        workload=[deterministic(0, 0, 0), deterministic(1, 0, 0)],
        congestion=[{"router": 1, "computer": 0, "start_ms": 10, "end_ms": 12}],
    )
    result, calls = run_logging_handlers(scenario)
    assert [(t, name, seq) for t, name, seq in calls if t == 12_000] == [
        (12_000, "_on_arrival", 1),
        (12_000, "_on_deliver", 0),
        (12_000, "_on_deliver", 1),
    ]
    first, retried = result.rows
    assert (first.issued_us, first.dispatch_us, first.queue_us) == (10_000, 10_000, 0)
    assert (retried.issued_us, retried.dispatch_us, retried.queue_us) == (10_000, 12_000, 2000 + 5000)
    assert_matches_reference(scenario)


def test_a_delivery_runs_before_a_response_at_its_microsecond():
    # seq 0 (lambda 0) is delivered at 11 ms over a 1 ms link, served for 5
    # ms and answered at 17 ms, when seq 1 (lambda 1, issued at 16 ms) is
    # delivered
    scenario = tiny_scenario(
        duration_ms=20,
        computers=[{"id": 0, "workers": 1, "beta": 0.0, "service_ms": {0: 5, 1: 5}}],
        routers=[
            {
                "id": 0,
                "links_ms": {0: 1},
                "lambdas": [{"id": 0, "destinations": [0]}, {"id": 1, "destinations": [0]}],
            }
        ],
        workload=[deterministic(0, 0, 0), deterministic(0, 1, 0, rate_per_s=62.5)],
    )
    result, calls = run_logging_handlers(scenario)
    assert [(t, name, seq) for t, name, seq in calls if t == 17_000] == [
        (17_000, "_on_deliver", 1),
        (17_000, "_on_response", 0),
    ]
    answered, delivered = result.rows
    assert (answered.completed_us, delivered.dispatch_us, delivered.queue_us) == (17_000, 16_000, 0)
    assert_matches_reference(scenario)


def test_responses_at_one_microsecond_run_in_delivery_order():
    # rr probes computer 0 at 5 ms and computer 1 at 10 ms. Probe 0 is
    # delivered first (6 ms) but served for 9 ms; probe 1 is delivered at 12
    # ms and served for 2 ms, so its service ends first (14 ms against 15).
    # Both are answered at 16 ms: probe 0's response runs first, so computer
    # 0 is admitted first and computer 1 joins at its deficit
    scenario = tiny_scenario(
        duration_ms=12,
        policy={"kind": "rr"},
        computers=[
            {"id": 0, "workers": 1, "beta": 0.0, "service_ms": {0: 9}},
            {"id": 1, "workers": 1, "beta": 0.0, "service_ms": {0: 2}},
        ],
        routers=[{"id": 0, "links_ms": {0: 1, 1: 2}, "lambdas": [{"id": 0, "destinations": [0, 1]}]}],
        workload=[deterministic(0, 0, 0, rate_per_s=200)],
    )
    result, calls = run_logging_handlers(scenario)
    assert [(r.destination, r.dispatch_us, r.processing_us, r.completed_us) for r in result.rows] == [
        (0, 5000, 9000, 16_000),
        (1, 10_000, 2000, 16_000),
    ]
    assert [(t, name, seq) for t, name, seq in calls if t == 16_000] == [
        (16_000, "_on_response", 0),
        (16_000, "_on_response", 1),
    ]
    policy = result.snapshot["routers"][0]["lambdas"][0]["policy"]
    assert policy["deficits_us"] == {0: 0, 1: 6000}
    assert_matches_reference(scenario)


def test_responses_at_one_microsecond_run_in_delivery_order_across_computers():
    # rr probes computer 0 at 2 ms over a 4 ms link, then computer 1 at 4 ms
    # over a 1 ms link: dispatched in that order, delivered in the other (6
    # and 5 ms). Both responses land at 12 ms. Computer 1's runs first, so
    # computer 1 is admitted first and computer 0 joins at its 10 ms deficit
    scenario = tiny_scenario(
        duration_ms=5,
        policy={"kind": "rr"},
        computers=[
            {"id": 0, "workers": 1, "beta": 0.0, "service_ms": {0: 2}},
            {"id": 1, "workers": 1, "beta": 0.0, "service_ms": {0: 6}},
        ],
        routers=[{"id": 0, "links_ms": {0: 4, 1: 1}, "lambdas": [{"id": 0, "destinations": [0, 1]}]}],
        workload=[deterministic(0, 0, 0, rate_per_s=500)],
    )
    result, calls = run_logging_handlers(scenario)
    assert [(r.destination, r.dispatch_us, r.processing_us, r.completed_us) for r in result.rows] == [
        (0, 2000, 2000, 12_000),
        (1, 4000, 6000, 12_000),
    ]
    assert response_calls(calls) == [(12_000, 1), (12_000, 0)]
    policy = result.snapshot["routers"][0]["lambdas"][0]["policy"]
    assert list(policy["deficits_us"].items()) == [(1, 0), (0, 10_000)]
    assert_matches_reference(scenario)


@pytest.mark.parametrize(
    "client_link_ms, queue_us", [(9.5, 4500), (9, 5000)], ids=["later", "same-microsecond"]
)
def test_a_computers_queue_stays_fifo_past_a_delivery_in_the_heap(client_link_ms, queue_us):
    # Router 0 reaches the computer over 10 ms, router 1 over 1 ms, its
    # lead. seq 1 (router 0) is dispatched at 20 ms and waits in the heap
    # until 30 ms. seq 2 is dispatched over the lead at 29.5 ms (or 29 ms)
    # and lands at 30.5 ms (or at 30 ms, behind seq 1's delivery): it must
    # not run in place, ahead of seq 1, but wait behind it for the only
    # worker. seq 0 and seq 3 find no delivery waiting and run in place.
    scenario = tiny_scenario(
        duration_ms=35,
        routers=[
            {"id": 0, "links_ms": {0: 10}, "lambdas": [{"id": 0, "destinations": [0]}]},
            {"id": 1, "links_ms": {0: 1}, "lambdas": [{"id": 0, "destinations": [0]}]},
        ],
        workload=[deterministic(0, 0, 0, rate_per_s=50), deterministic(1, 0, client_link_ms)],
    )
    with watching_heap() as seen:
        result = run(scenario)
    assert seen["deliveries"] == 2
    assert [(r.seq, r.router, r.queue_us) for r in result.rows] == [
        (0, 1, 0), (1, 0, 0), (2, 1, queue_us), (3, 1, 0),
    ]
    assert_matches_reference(scenario)


def test_only_a_delivery_over_a_longer_link_waits_in_the_heap():
    # One router: every link is its computer's lead, and no delivery waits
    # in the heap. ring-tree's remote links are 2 ms against a local 1 ms.
    for scenario, pushed in (
        (load_scenario("line"), False),
        (scenario_from_mapping(fanout_mapping(1)), False),
        (load_scenario("ring-tree"), True),
    ):
        with watching_heap() as seen:
            run(scenario)
        assert bool(seen["deliveries"]) is pushed, scenario.name


def test_a_worker_freed_at_a_delivery_serves_it():
    # seq 0's 5 ms service ends at 15 ms; seq 1, issued beside it over a 5
    # ms client link, is delivered then and takes the freed worker at once
    scenario = tiny_scenario(
        duration_ms=20,
        computers=[{"id": 0, "workers": 1, "beta": 0.0, "service_ms": {0: 5, 1: 5}}],
        routers=[
            {
                "id": 0,
                "links_ms": {0: 0},
                "lambdas": [{"id": 0, "destinations": [0]}, {"id": 1, "destinations": [0]}],
            }
        ],
        workload=[deterministic(0, 0, 0), deterministic(0, 1, 5)],
    )
    first, second = run(scenario).rows
    # with 0 ms links, a service ends at dispatch + queue + processing
    assert first.dispatch_us + first.queue_us + first.processing_us == 15_000
    assert second.dispatch_us == 15_000
    assert second.queue_us == 0
    assert_matches_reference(scenario)


def test_a_shorter_return_link_answers_a_later_delivery_first():
    # One worker, 1 ms services. Router 0's requests (issued at 10 and 20 ms)
    # cross a 5 ms link; router 1's (issued beside them over a 6 ms client
    # link) cross none. seq 0 is served at 15-16 ms and answered at 21 ms;
    # seq 1, delivered at 16 ms, is answered at 17 ms, before seq 0
    scenario = tiny_scenario(
        duration_ms=30,
        computers=[{"id": 0, "workers": 1, "beta": 0.0, "service_ms": {0: 1}}],
        routers=[
            {"id": 0, "links_ms": {0: 5}, "lambdas": [{"id": 0, "destinations": [0]}]},
            {"id": 1, "links_ms": {0: 0}, "lambdas": [{"id": 0, "destinations": [0]}]},
        ],
        workload=[deterministic(0, 0, 0), deterministic(1, 0, 6)],
    )
    result, calls = run_logging_handlers(scenario)
    assert [(r.seq, r.router, r.completed_us) for r in result.rows] == [
        (0, 0, 21_000), (1, 1, 23_000), (2, 0, 31_000), (3, 1, 33_000),
    ]
    assert response_calls(calls) == [(17_000, 1), (21_000, 0), (27_000, 3), (31_000, 2)]
    assert_matches_reference(scenario)


def test_a_later_start_that_ends_first_is_answered_first():
    # Two workers, beta 1. seq 0 (lambda 0, 8 ms) starts alone at 11 ms and
    # takes 12 ms; seq 1 (lambda 1, 1 ms) starts beside it at 13 ms, takes 2
    # ms and is answered at 16 ms, before seq 0 at 24 ms. seq 2 starts at 21
    # ms and is answered at 38 ms; seq 3 starts at 23 ms and is answered at
    # 26 ms, before seq 2
    scenario = tiny_scenario(
        duration_ms=30,
        computers=[{"id": 0, "workers": 2, "beta": 1.0, "service_ms": {0: 8, 1: 1}}],
        routers=[
            {
                "id": 0,
                "links_ms": {0: 1},
                "lambdas": [{"id": 0, "destinations": [0]}, {"id": 1, "destinations": [0]}],
            }
        ],
        workload=[deterministic(0, 0, 0), deterministic(0, 1, 2)],
    )
    result, calls = run_logging_handlers(scenario)
    assert [(r.seq, r.lam, r.queue_us, r.processing_us) for r in result.rows] == [
        (0, 0, 0, 12_000), (1, 1, 0, 2000), (2, 0, 0, 16_000), (3, 1, 0, 2000),
    ]
    assert response_calls(calls) == [(16_000, 1), (24_000, 0), (26_000, 3), (38_000, 2)]
    assert_matches_reference(scenario)


@pytest.mark.parametrize("duration_ms", [150, 250])
def test_an_event_that_files_itself_again_raises(duration_ms):
    # The response at 107 ms files itself again at its own microsecond, once
    # every arrival has run (150 ms) or before the next one (250 ms). The
    # loop would never end; its pop bound turns that into an error.
    def refile(self, now, req):
        heapq.heappush(self.heap, (now, simnet._RESPONSE, next(self.counter), req))

    with mock.patch.object(simnet._Sim, "_on_response", refile):
        with pytest.raises(RuntimeError, match="filing itself again"):
            run(tiny_scenario(duration_ms=duration_ms))


@settings(max_examples=150)
@given(doc=scenario_docs())
def test_the_loop_matches_the_reference_simulator(doc):
    scenario = scenario_from_mapping(doc)
    for kind in PolicyKind:
        assert_matches_reference(scenario.with_overrides(policy_kind=kind))


# Documents at validation's edges: the highest rate, with no link to spread
# the arrivals; the shortest retry, under a blackout that lasts the run; the
# shortest run, whose one arrival lands at 0 us.
EXTREME_DOCS = {
    "rate": tiny_doc(
        duration_ms=3,
        routers=[{"id": 0, "links_ms": {0: 0}, "lambdas": [{"id": 0, "destinations": [0]}]}],
        workload=[
            {"router": 0, "lambda": 0, "process": "deterministic", "rate_per_s": 1_000_000, "client_link_ms": 0}
        ],
    ),
    "retry": tiny_doc(
        duration_ms=5,
        policy={"kind": "li", "retry_ms": 0.001},
        workload=[
            {"router": 0, "lambda": 0, "process": "deterministic", "rate_per_s": 1000, "client_link_ms": 0}
        ],
        congestion=[{"router": 0, "computer": 0, "start_ms": 0, "end_ms": 5}],
    ),
    "duration": tiny_doc(
        duration_ms=0.001,
        seed=4,
        workload=[
            {"router": 0, "lambda": 0, "process": "poisson", "rate_per_s": 1_000_000, "client_link_ms": 0}
        ],
    ),
}


@pytest.mark.parametrize("policy", ["rr", "li", "rp"])
@pytest.mark.parametrize("name", sorted(EXTREME_DOCS))
def test_extreme_documents_pop_within_the_termination_bound(name, policy):
    scenario = scenario_from_mapping(EXTREME_DOCS[name]).with_overrides(
        policy_kind=PolicyKind(policy)
    )
    reference = assert_matches_reference(scenario)
    assert reference.arrivals
    if name == "retry":
        # each request, issued at 1-4 ms, retries every microsecond until the
        # next retry would reach the duration
        assert reference.retries == sum(scenario.duration_us - 1 - t for t in (1000, 2000, 3000, 4000))


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
