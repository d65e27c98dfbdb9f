import json

import pytest

from edgedispatch.metrics import (
    TRACE_COLUMNS,
    EmptyTrace,
    nearest_rank,
    read_trace,
    summarize,
    trace_bytes,
    write_trace,
)
from edgedispatch.scenario import load_scenario
from edgedispatch.simnet import TraceRow, run

from helpers import tiny_scenario


def completed_row(seq, dest, latency_us, lam=0, router=0, policy="rr"):
    # all latency booked as processing keeps the component identity trivially
    return TraceRow(
        seq=seq,
        lam=lam,
        router=router,
        destination=dest,
        issued_us=1000 * seq,
        completed_us=1000 * seq + latency_us,
        transfer_us=0,
        queue_us=0,
        processing_us=latency_us,
        is_probe=False,
        policy=policy,
    )


def unserved_row(seq, lam=0, router=0, policy="rr"):
    return TraceRow(
        seq=seq,
        lam=lam,
        router=router,
        destination=-1,
        issued_us=1000 * seq,
        completed_us=None,
        transfer_us=None,
        queue_us=None,
        processing_us=None,
        is_probe=False,
        policy=policy,
    )


def snapshot_for(weights, policy_snap=None):
    """Single router/lambda snapshot with the given dest -> weight map."""
    return {
        "routers": {
            0: {
                "lambdas": {
                    0: {
                        "weights": {
                            d: {"weight": w, "congested": False, "shadow": None}
                            for d, w in weights.items()
                        },
                        "policy": policy_snap or {},
                        "responses_unmeasured": 0,
                    }
                }
            }
        }
    }


def test_nearest_rank():
    values = [10, 20, 30, 40]
    assert nearest_rank(values, 50) == 20
    assert nearest_rank(values, 95) == 40
    assert nearest_rank(values, 1) == 10  # rank floors at 1
    assert nearest_rank(values, 100) == 40
    assert nearest_rank([7], 99) == 7
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_latency_stats():
    # latencies 5, 10, 15 ms
    rows = [completed_row(i, 0, us) for i, us in enumerate((5000, 10_000, 15_000))]
    s = summarize(rows, snapshot_for({0: 1000}))
    assert s.mean_latency_us == 10_000.0
    assert s.median_latency_us == 10_000
    assert s.p95_latency_us == 15_000
    assert s.p99_latency_us == 15_000
    assert (s.arrivals, s.completed, s.unserved) == (3, 3, 0)


def test_no_completed_requests_has_no_latency_stats():
    rows = [unserved_row(0), unserved_row(1)]
    s = summarize(rows, {"routers": {}})
    assert s.completed == 0 and s.unserved == 2
    assert s.mean_latency_us is None
    assert s.median_latency_us is None
    assert s.p95_latency_us is None
    assert s.fairness_max_deviation is None


def test_summarize_rejects_empty_trace():
    with pytest.raises(EmptyTrace):
        summarize([], {})


def test_perfectly_weighted_counts_have_zero_deviation():
    # weights 2/3/4 ms with counts 6/4/3: every product is 12000
    rows = []
    seq = 0
    for dest, count in ((1, 6), (2, 4), (3, 3)):
        for _ in range(count):
            rows.append(completed_row(seq, dest, 5000))
            seq += 1
    s = summarize(rows, snapshot_for({1: 2000, 2: 3000, 3: 4000}))
    assert s.fairness_max_deviation == 0.0
    group = s.fairness_groups[0][0]
    assert group["counts"] == {1: 6, 2: 4, 3: 3}
    assert all(v == 1.0 for row in group["ratios"].values() for v in row.values())


def test_single_destination_is_trivially_fair():
    s = summarize([completed_row(0, 0, 5000)], snapshot_for({0: 5000}))
    assert s.fairness_max_deviation == 0.0


def test_unbalanced_counts_show_up_as_deviation():
    rows = [completed_row(i, 0, 5000) for i in range(3)]
    rows.append(completed_row(3, 1, 5000))
    s = summarize(rows, snapshot_for({0: 1000, 1: 1000}))
    # products 3000 vs 1000: ratios 3 and 1/3
    assert s.fairness_max_deviation == 2.0


def test_fairness_ignores_destinations_without_estimates():
    rows = [completed_row(0, 0, 5000)]
    s = summarize(rows, snapshot_for({0: 5000, 1: None}))
    group = s.fairness_groups[0][0]
    assert list(group["weights_us"]) == [0]
    assert s.fairness_max_deviation == 0.0


def test_zero_count_destination_gives_none_ratio():
    rows = [completed_row(0, 0, 5000), completed_row(1, 0, 5000)]
    s = summarize(rows, snapshot_for({0: 1000, 1: 1000}))
    group = s.fairness_groups[0][0]
    assert group["ratios"][0][1] is None  # divide by an unselected destination
    assert group["ratios"][1][0] == 0.0
    assert s.fairness_max_deviation == 1.0


def test_selections_sum_to_completed():
    result = run(load_scenario("line").with_overrides(duration_us=400_000))
    s = summarize(result.rows, result.snapshot)
    total = sum(
        count
        for by_lam in s.selections.values()
        for by_dest in by_lam.values()
        for count in by_dest.values()
    )
    assert total == s.completed == result.arrivals - len(result.unserved)


def test_mixed_policies_are_labeled():
    rows = [completed_row(0, 0, 1000, policy="li"), completed_row(1, 0, 1000, policy="rr")]
    assert summarize(rows, {"routers": {}}).policy == "li,rr"
    assert summarize(rows[:1], {"routers": {}}).policy == "li"


def test_probe_totals_come_from_the_snapshot():
    result = run(tiny_scenario(policy={"kind": "rr"}))
    s = summarize(result.rows, result.snapshot)
    assert s.probes == {
        "launched": 1,
        "admitted": 1,
        "rejected": 0,
        "stale_responses": 0,
    }


def test_trace_file_layout(tmp_path):
    rows = [completed_row(0, 2, 7000), unserved_row(1)]
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert lines[1] == "0,0,0,2,0,7000,0,0,7000,0,rr"
    assert lines[2] == "1,0,0,-1,1000,,,,,0,rr"  # unserved: blank completion cells


def test_trace_round_trip(tmp_path):
    rows = [completed_row(0, 2, 7000), unserved_row(1), completed_row(2, 0, 9000)]
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    assert read_trace(path) == rows
    # and the bytes are reproducible from what was read
    assert trace_bytes(read_trace(path)) == path.read_bytes()


def test_write_trace_sorts_by_seq(tmp_path):
    rows = [completed_row(1, 0, 2000), completed_row(0, 0, 1000)]
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    assert [r.seq for r in read_trace(path)] == [0, 1]


def test_read_trace_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("seq,lam\n0,0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_trace(path)


def test_read_trace_rejects_short_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(TRACE_COLUMNS) + "\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_trace(path)


@pytest.mark.parametrize(
    "row",
    [
        "0,0,0,1,10,30,,5,5,0,rr",  # one delay blank
        "0,0,0,3,10,,10,5,5,0,rr",  # completion blank, delays filled
        "0,0,0,3,10,,,,,0,rr",  # unserved but with a destination
        "0,0,0,-1,10,,,,7,0,rr",  # unserved but with a delay
    ],
)
def test_read_trace_rejects_partly_blank_completions(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(TRACE_COLUMNS) + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="completion cells"):
        read_trace(path)


def test_summary_survives_the_disk_round_trip(tmp_path):
    result = run(load_scenario("ring-tree").with_overrides(duration_us=1_000_000))
    first = summarize(result.rows, result.snapshot)
    trace_path = tmp_path / "trace.csv"
    write_trace(trace_path, result.rows)
    parsed = json.loads(first.to_json())
    again = summarize(read_trace(trace_path), parsed["snapshot"])
    assert again.to_json() == first.to_json()


def test_summary_json_shape():
    s = summarize([completed_row(0, 0, 5000)], snapshot_for({0: 5000}))
    doc = json.loads(s.to_json())
    assert doc["latency_us"]["mean"] == 5000.0
    assert doc["selections"] == {"0": {"0": {"0": 1}}}
    assert doc["fairness"]["max_deviation"] == 0.0
    assert set(doc) == {
        "policy",
        "arrivals",
        "completed",
        "unserved",
        "latency_us",
        "selections",
        "fairness",
        "probes",
        "snapshot",
    }
