import dataclasses

import pytest

import checks
import run
from edgedispatch import PolicyKind, load_scenario, summarize
from edgedispatch.fairness import SuiteReport


@pytest.fixture(scope="module")
def result():
    sc = load_scenario("ring-tree").with_overrides(
        policy_kind=PolicyKind.ROUND_ROBIN, duration_us=300_000
    )
    return run.import_program().simnet.run(sc)


def test_accounting_accepts_a_real_run(result):
    assert checks.check_accounting("ring-tree", result) == []


def test_accounting_rejects_a_dropped_row(result):
    tampered = dataclasses.replace(result, completed=result.completed[1:])
    assert checks.check_accounting("ring-tree", tampered)


def test_accounting_rejects_a_duplicated_seq(result):
    rows = result.completed
    twin = dataclasses.replace(rows[1], seq=rows[0].seq)
    tampered = dataclasses.replace(result, completed=(rows[0], twin) + rows[2:])
    assert len(tampered.completed) + len(tampered.unserved) == tampered.arrivals
    assert checks.check_accounting("ring-tree", tampered)


def test_round_trip_rejects_an_altered_summary(result):
    text = summarize(result.rows, result.snapshot).to_json()
    assert checks.check_round_trip("x", text, text) == []
    assert checks.check_round_trip("x", text, text.replace('"completed"', '"completed "'))


def test_digests_must_repeat():
    seen = {}
    assert checks.check_digests("job", seen, ("a", "b")) == []
    assert checks.check_digests("job", seen, ("a", "b")) == []
    assert checks.check_digests("job", seen, ("a", "c"))


def test_failed_suite_is_reported():
    assert checks.check_suite(SuiteReport("s", True, 3)) == []
    assert checks.check_suite(SuiteReport("s", False, 3, failures=["case 1"]))


def _state(tmp_path):
    return run.State(tmp_path / "trace.csv", tmp_path / "summary.json")


def test_run_sim_reports_a_summary_that_changed_between_passes(tmp_path):
    prog = run.import_program()
    sc = load_scenario("line").with_overrides(duration_us=200_000)
    job = run.SimJob("line/short/rr", 0, "rr", sc)
    state = _state(tmp_path)
    run.run_sim(prog, job, state)
    assert state.problems == []
    trace_sha, summary_sha = state.digests[job.label]
    state.digests[job.label] = (trace_sha, "0" * 64)
    run.run_sim(prog, job, state)
    assert len(state.problems) == 1 and "digests" in state.problems[0]


def test_main_fails_without_program_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "builtin", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
