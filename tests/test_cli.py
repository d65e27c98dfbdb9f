import json

import pytest
import yaml

from edgedispatch.cli import main
from edgedispatch.metrics import TRACE_COLUMNS, read_trace, summarize

from helpers import tiny_doc


def test_replay_table(capsys):
    assert main(["replay-table"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "step  destination  deficits (ms)",
        "   1            1  1: 2, 2: 0, 3: 0",
        "   2            2  1: 2, 2: 3, 3: 0",
        "   3            3  1: 2, 2: 3, 3: 4",
        "   4            1  1: 4, 2: 3, 3: 4",
        "   5            2  1: 4, 2: 6, 3: 4",
        "   6            1  1: 6, 2: 6, 3: 4",
        "   7            3  1: 6, 2: 6, 3: 8",
        "   8            1  1: 8, 2: 6, 3: 8",
        "   9            2  1: 8, 2: 9, 3: 8",
        "  10            1  1: 10, 2: 9, 3: 8",
        "  11            3  1: 10, 2: 9, 3: 12",
        "  12            2  1: 10, 2: 12, 3: 12",
        "  13            1  1: 12, 2: 12, 3: 12",
        "selections after 13 steps: 1 x6, 2 x4, 3 x3",
        "weights (ms): 1: 2, 2: 3, 3: 4",
    ]


def test_validate_builtin(capsys):
    assert main(["validate", "line"]) == 0
    assert capsys.readouterr().out == "ok: line (1 routers, 4 computers, 10000 ms)\n"


def test_validate_rejects_bad_scenario(tmp_path, capsys):
    doc = tiny_doc()
    doc["routers"][0]["lambdas"][0]["destinations"] = []
    path = tmp_path / "broken.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid scenario: router 0 lambda 0: empty destination set" in err


@pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize("field", ["rate_per_s", "beta"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_finite_numbers_exit_one(tmp_path, capsys, command, field, value):
    # an infinite rate used to pass validate and never end a run; the
    # others crashed mid-run converting to an integer, with exit code 2
    doc = tiny_doc()
    target = doc["workload"][0] if field == "rate_per_s" else doc["computers"][0]
    target[field] = value
    path = tmp_path / "nonfinite.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    args = [str(path)] if command == "validate" else [
        "--scenario", str(path),
        "--trace-out", str(tmp_path / "t.csv"),
        "--summary-out", str(tmp_path / "s.json"),
    ]
    assert main([command, *args]) == 1
    assert "is not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("value", [1.0e306, -1.0e306], ids=["+1e306", "-1e306"])
@pytest.mark.parametrize(
    "path",
    [
        ("duration_ms",),
        ("policy", "b_min_ms"),
        ("policy", "retry_ms"),
        ("computers", 0, "service_ms", 0),
        ("computers", 0, "beta"),
        ("routers", 0, "links_ms", 0),
        ("workload", 0, "client_link_ms"),
        ("congestion", 0, "start_ms"),
        ("congestion", 0, "end_ms"),
    ],
    ids=lambda path: "/".join(map(str, path)),
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_numbers_past_the_float_range_exit_one(tmp_path, capsys, command, path, value):
    # a millisecond value this large is finite, but its microsecond value
    # is not: rounding it used to exit 2, and so did a service time that
    # beta scales past the float range
    doc = tiny_doc(congestion=[{"router": 0, "computer": 0, "start_ms": 50, "end_ms": 100}])
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    scenario = tmp_path / "huge.yaml"
    scenario.write_text(yaml.safe_dump(doc), encoding="utf-8")
    trace = tmp_path / "t.csv"
    args = [str(scenario)] if command == "validate" else [
        "--scenario", str(scenario),
        "--trace-out", str(trace),
        "--summary-out", str(tmp_path / "s.json"),
    ]
    assert main([command, *args]) == 1
    if last != "beta":
        problem = f"{'/'.join(map(str, path))}: {value!r} ms is not a finite number of microseconds"
    elif value > 0:
        problem = f"computer 0: beta must leave service_us * (1 + beta) finite, got {value!r}"
    else:
        problem = f"computer 0: beta must be finite and non-negative, got {value!r}"
    assert capsys.readouterr().err == f"invalid scenario: {problem}\n"
    assert not trace.exists()


@pytest.mark.parametrize("duration", ["inf", "nan", "Infinity", "1e306", "-1e306"])
def test_run_rejects_a_non_finite_duration(tmp_path, capsys, duration):
    code = main(
        [
            "run", "--scenario", "line", f"--duration-ms={duration}",
            "--trace-out", str(tmp_path / "t.csv"),
            "--summary-out", str(tmp_path / "s.json"),
        ]
    )
    assert code == 1
    assert "--duration-ms" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_run_rejects_a_negative_seed(tmp_path, capsys):
    # it used to run, and write the same trace as --seed 5
    code = main(
        [
            "run", "--scenario", "line", "--seed", "-5",
            "--trace-out", str(tmp_path / "t.csv"),
            "--summary-out", str(tmp_path / "s.json"),
        ]
    )
    assert code == 1
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_validate_unknown_name(capsys):
    assert main(["validate", "does-not-exist"]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "ring-tree" in err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("kind", ["directory", "latin-1"])
def test_an_unreadable_scenario_file_exits_one(tmp_path, capsys, command, kind):
    path = tmp_path / "s.yaml"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes("name: caf\u00e9\n".encode("latin-1"))
    args = [str(path)] if command == "validate" else ["--scenario", str(path)]
    assert main([command, *args]) == 1
    assert capsys.readouterr().err.startswith("invalid scenario:")


def test_run_writes_trace_and_summary(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    code = main(
        [
            "run",
            "--scenario",
            "line",
            "--duration-ms",
            "400",
            "--trace-out",
            str(trace),
            "--summary-out",
            str(summary),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("line policy=rr seed=1:")
    doc = json.loads(summary.read_text(encoding="utf-8"))
    rows = read_trace(trace)
    assert doc["policy"] == "rr"
    assert doc["arrivals"] == len(rows)
    assert doc["completed"] + doc["unserved"] == doc["arrivals"]


def test_run_that_issues_nothing_writes_both_files(tmp_path, capsys):
    # One deterministic issue every 20 ms over 20 ms: the first issue falls
    # on the duration, so the trace has no rows, and the summary says so.
    doc = tiny_doc(duration_ms=20)
    doc["workload"][0]["rate_per_s"] = 50
    path = tmp_path / "empty.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    code = main(
        ["run", "--scenario", str(path), "--trace-out", str(trace), "--summary-out", str(summary)]
    )
    assert code == 0
    assert "0 completed, 0 unserved, no completions" in capsys.readouterr().out
    assert trace.read_text(encoding="utf-8") == ",".join(TRACE_COLUMNS) + "\n"
    text = summary.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert (doc["arrivals"], doc["completed"], doc["unserved"]) == (0, 0, 0)
    assert doc["policy"] == "li"
    assert summarize(read_trace(trace), doc["snapshot"]).to_json() == text


def test_run_defaults_land_in_cwd(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--scenario", "line", "--duration-ms", "300"]) == 0
    capsys.readouterr()
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "summary.json").exists()
    header = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(TRACE_COLUMNS)


def test_run_overrides_policy_and_seed(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    code = main(
        [
            "run",
            "--scenario",
            "line",
            "--policy",
            "li",
            "--seed",
            "7",
            "--duration-ms",
            "300",
            "--trace-out",
            str(trace),
            "--summary-out",
            str(summary),
        ]
    )
    assert code == 0
    assert "policy=li seed=7" in capsys.readouterr().out
    rows = read_trace(trace)
    assert rows and all(r.policy == "li" for r in rows)


def test_run_twice_is_byte_identical(tmp_path, capsys):
    outputs = []
    for tag in ("a", "b"):
        trace = tmp_path / f"{tag}.csv"
        summary = tmp_path / f"{tag}.json"
        args = [
            "run",
            "--scenario",
            "ring-tree",
            "--duration-ms",
            "1000",
            "--trace-out",
            str(trace),
            "--summary-out",
            str(summary),
        ]
        assert main(args) == 0
        outputs.append((trace.read_bytes(), summary.read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_run_verbose_prints_fairness_detail(tmp_path, capsys):
    code = main(
        [
            "run",
            "--scenario",
            "line",
            "--duration-ms",
            "300",
            "--verbose",
            "--trace-out",
            str(tmp_path / "t.csv"),
            "--summary-out",
            str(tmp_path / "s.json"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    detail = json.loads(out[out.index("{"):])
    group = detail["groups"]["0"]["0"]
    assert set(group) == {"max_deviation", "ratios"}
    assert group["max_deviation"] == detail["max_deviation"]
    # line: one router fanning out to four computers, a full 4 x 4 matrix
    assert [sorted(row) for row in group["ratios"].values()] == [["0", "1", "2", "3"]] * 4
    summary = (tmp_path / "s.json").read_text(encoding="utf-8")
    assert '"max_deviation"' in summary
    for key in ('"ratios"', '"weights_us"', '"counts"'):
        assert key not in summary


def test_lemmas_pass(capsys):
    code = main(
        [
            "lemmas",
            "--runs",
            "20",
            "--steps",
            "400",
            "--cases",
            "5",
            "--draws",
            "400000",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)
    assert lines[0].startswith("PASS short-term fairness bounds: 20 cases")
    assert lines[1].startswith("PASS exact inverse-proportional convergence: 5 cases")
    assert lines[2].startswith("PASS long-term proportional selection: 400000 cases")


def test_lemmas_failure_exits_one(capsys):
    # far too few draws to meet the 1% ratio tolerance
    code = main(
        ["lemmas", "--runs", "5", "--steps", "100", "--cases", "2", "--draws", "2000"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL long-term proportional selection" in out


@pytest.mark.parametrize(
    "flag, value",
    [("--runs", "-2"), ("--runs", "0"), ("--steps", "0"), ("--cases", "-1"), ("--draws", "-3")],
)
def test_lemmas_refuses_a_size_below_one(capsys, flag, value):
    # the sizes are checked before any suite runs, so nothing is printed
    assert main(["lemmas", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag[2:]} must be at least 1, got {value}\n"


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["run"])
    assert info.value.code == 2


def test_runtime_error_exits_two(tmp_path, capsys):
    code = main(
        [
            "run",
            "--scenario",
            "line",
            "--duration-ms",
            "200",
            "--trace-out",
            str(tmp_path / "missing-dir" / "t.csv"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
