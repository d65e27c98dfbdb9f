import types
from array import array

import pytest

import run
import tracing
from edgedispatch import load_scenario
from tracing import COUNT, SPAN, Tracer, self_times, traced


def test_self_time_of_a_nested_tree():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    assert list(self_times(parent, start, end)) == [3.0, 3.0, 3.0, 1.0]


def test_overlapping_children_are_covered_once():
    # root [0, 10] with children [1, 5] and [3, 7] covers [1, 7]
    parent = [-1, 0, 0]
    start = [0.0, 1.0, 3.0]
    end = [10.0, 5.0, 7.0]
    assert list(self_times(parent, start, end)) == [4.0, 4.0, 4.0]


class Widget:
    def outer(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        if x < 0:
            raise ValueError("negative")
        return x * 2


def test_wrappers_record_parents_errors_and_counts():
    module = types.SimpleNamespace(helper=lambda: 5)
    tracer = Tracer()
    targets = [
        (Widget, "outer", "w.outer", SPAN),
        (Widget, "inner", "w.inner", SPAN),
        (module, "helper", "m.helper", COUNT),
    ]
    with traced(tracer, targets):
        assert Widget().outer(2) == 5
        assert module.helper() == 5
        with pytest.raises(ValueError):
            Widget().outer(-1)
    assert [tracer.names[n] for n in tracer.name] == ["w.outer", "w.inner"] * 2
    assert list(tracer.parent) == [-1, 0, -1, 2]
    totals = tracer.totals()
    assert totals["w.inner"].calls == 2
    assert totals["w.inner"].errors == 1
    assert totals["w.outer"].errors == 1
    assert tracer.count("m.helper") == 1
    assert totals["w.outer"].self_s <= totals["w.outer"].inclusive_s


def test_wrappers_are_removed_afterwards_even_on_error():
    originals = dict(vars(Widget))
    module = types.SimpleNamespace(helper=len)
    with pytest.raises(RuntimeError):
        with traced(Tracer(), [(Widget, "inner", "w", SPAN), (module, "helper", "h", COUNT)]):
            assert vars(Widget)["inner"] is not originals["inner"]
            raise RuntimeError("stop")
    assert vars(Widget)["inner"] is originals["inner"]
    assert module.helper is len


def test_layer_wrappers_restore_the_program():
    prog = run.import_program()
    targets = run.layer_targets(prog)
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    with traced(Tracer(), targets):
        assert all(vars(o)[a] is not b for (o, a, _, _), b in zip(targets, before))
    assert all(vars(o)[a] is b for (o, a, _, _), b in zip(targets, before))


def test_traced_run_gives_the_untraced_digests(tmp_path):
    prog = run.import_program()
    sc = load_scenario("ring-tree").with_overrides(duration_us=300_000)
    job = run.SimJob("ring-tree/short/rr", 0, "rr", sc)
    state = run.State(tmp_path / "t.csv", tmp_path / "s.json")
    run.run_sim(prog, job, state)
    tracer = Tracer()
    with traced(tracer, run.layer_targets(prog)):
        run.run_sim(prog, job, state)
    assert state.problems == []
    names = {tracer.names[n] for n in tracer.name}
    assert {"simnet.run", "policy.select", "ledger.charge", "metrics.read_trace"} <= names


def test_spans_round_trip_through_a_file(tmp_path):
    tracer = Tracer()
    f = tracer.span_wrapper("f", lambda: None)
    f()
    f()
    path = tmp_path / "spans.bin"
    tracer.write(path, {"workload": "x"})
    header, arrays = tracing.read_spans(path)
    assert header["names"] == ["f"] and header["meta"] == {"workload": "x"}
    assert arrays["start"] == tracer.start and arrays["end"] == tracer.end
    assert arrays["parent"] == array("i", [-1, -1])
