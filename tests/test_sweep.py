"""The committed sweep manifest: its shape, a fixed slice of its runs, and
the tool's three modes on a small run list."""

import json
import re

import pytest

import sweep
from test_golden import GOLDEN

DIGEST = re.compile("[0-9a-f]{64}")


def test_the_manifest_pins_every_run_of_the_sweep_and_nothing_else():
    labels = [sweep.label(*key) for key in sweep.RUNS]
    assert len(labels) == len(set(labels)) == 198
    pinned = sweep.load_manifest()
    assert list(pinned) == labels
    for digests in pinned.values():
        assert sorted(digests) == ["summary_sha256", "trace_sha256"]
        assert all(DIGEST.fullmatch(d) for d in digests.values())


def test_the_seed_1_runs_of_the_shipped_scenarios_are_the_goldens():
    pinned = sweep.load_manifest()
    for (name, policy), (trace, summary) in GOLDEN.items():
        assert pinned[sweep.label(name, policy, 1)] == {
            "trace_sha256": trace,
            "summary_sha256": summary,
        }


def test_a_slice_of_the_sweep_matches_the_manifest():
    assert set(sweep.SLICE) <= set(sweep.RUNS)
    assert sweep.moved(sweep.load_manifest(), sweep.SLICE) == []


def test_write_check_and_diff_on_a_small_run_list(tmp_path, monkeypatch, capsys):
    runs = [("ring-tree", "rr", 1), ("ring-tree", "li", 1)]
    monkeypatch.setattr(sweep, "RUNS", runs)
    monkeypatch.setattr(sweep, "MANIFEST", tmp_path / "sweep.json")
    assert sweep.main(["--write"]) == 0
    assert sweep.main(["--check"]) == 0
    assert capsys.readouterr().out.endswith("2 of 2 runs match sweep.json\n")
    pinned = sweep.load_manifest()
    pinned["ring-tree/li/1"]["summary_sha256"] = "0" * 64
    pinned["line/rr/9"] = pinned["ring-tree/rr/1"]
    sweep.MANIFEST.write_text(json.dumps(pinned), encoding="utf-8")
    assert sweep.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "moved: ring-tree/li/1 (summary_sha256)",
        "not a run of the sweep: line/rr/9",
        "1 of 2 runs match sweep.json",
    ]
    assert sweep.main(["--diff"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["ring-tree li: 1 moved", "  seed 1: summary"]



def test_table_on_a_small_run_list(monkeypatch, capsys):
    runs = [("ring-tree", "rr", 1), ("line", "rr", 1999834075)]
    monkeypatch.setattr(sweep, "RUNS", runs)
    assert sweep.main(["--table"]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["run", "p50_us", "p99_us", "served"],
        ["ring-tree/rr/1", "9000", "21617", "1.0000"],
        ["line/rr/1999834075", "99203", "632686", "1.0000"],
        "ring-tree rr: p99 above 100 ms in 0 of 1 runs".split(),
        "line rr: p99 above 100 ms in 1 of 1 runs".split(),
    ]


def test_table_seeds_are_the_first_draws_of_the_sweep_stream(monkeypatch):
    assert sweep.BUILTIN_SEEDS[1:] == sweep.draws(30)
    chosen = []
    monkeypatch.setattr(sweep, "table", lambda runs: chosen.append(runs) or [])
    assert sweep.main(["--table", "--seeds", "2", "--seed", "1999834075", "--seed", "7"]) == 0
    assert chosen == [sweep.runs([*sweep.BUILTIN_SEEDS[1:3], 1999834075, 7])]
    with pytest.raises(SystemExit):
        sweep.main(["--check", "--seeds", "2"])
