"""The committed sweep manifest: its shape, a fixed slice of its runs, and
the tool's three modes on a small run list."""

import json
import re

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

