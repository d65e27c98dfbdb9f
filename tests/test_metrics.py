import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgedispatch.metrics import (
    TRACE_COLUMNS,
    fairness_ratios,
    nearest_rank,
    read_trace,
    summarize,
    trace_bytes,
    write_trace,
)
from edgedispatch.policy import PolicyKind
from edgedispatch.scenario import load_scenario, scenario_from_mapping
from edgedispatch.simnet import TraceRow, run

from helpers import (
    csv_read_trace,
    csv_trace_bytes,
    fanout_doc,
    naive_max_deviation,
    tiny_scenario,
)

POLICIES = ("rr", "li", "rp")


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


def test_summarize_an_empty_trace():
    # A valid run can issue nothing before its duration; its policy comes
    # from the snapshot, since there is no row to name it.
    s = summarize([], snapshot_for({}, {"kind": "rr", "probes_launched": 0}))
    assert s.policy == "rr"
    assert (s.arrivals, s.completed, s.unserved) == (0, 0, 0)
    assert (s.mean_latency_us, s.median_latency_us, s.p95_latency_us, s.p99_latency_us) == (
        None, None, None, None,
    )
    assert s.selections == {} and s.fairness_groups == {}
    assert s.fairness_max_deviation is None
    assert s.probes == {"launched": 0, "admitted": 0, "rejected": 0, "stale_responses": 0}
    assert summarize([], {}).policy == ""


def test_perfectly_weighted_counts_have_zero_deviation():
    # weights 2/3/4 ms with counts 6/4/3: every product is 12000
    rows = []
    seq = 0
    for dest, count in ((1, 6), (2, 4), (3, 3)):
        for _ in range(count):
            rows.append(completed_row(seq, dest, 5000))
            seq += 1
    weights = {1: 2000, 2: 3000, 3: 4000}
    s = summarize(rows, snapshot_for(weights))
    assert s.fairness_max_deviation == 0.0
    assert s.fairness_groups == {0: {0: 0.0}}
    assert s.selections[0][0] == {1: 6, 2: 4, 3: 3}
    ratios = fairness_ratios(weights, s.selections[0][0])
    assert sorted(ratios) == [1, 2, 3]
    assert all(v == 1.0 for row in ratios.values() for v in row.values())


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
    weights = {0: 5000, 1: None}
    s = summarize(rows, snapshot_for(weights))
    assert fairness_ratios(weights, s.selections[0][0]) == {0: {0: 1.0}}
    assert s.fairness_max_deviation == 0.0


def test_zero_count_destination_gives_none_ratio():
    rows = [completed_row(0, 0, 5000), completed_row(1, 0, 5000)]
    s = summarize(rows, snapshot_for({0: 1000, 1: 1000}))
    ratios = fairness_ratios({0: 1000, 1: 1000}, s.selections[0][0])
    assert ratios[0][1] is None  # divide by an unselected destination
    assert ratios[1][0] == 0.0
    assert s.fairness_max_deviation == 1.0


def test_summary_groups_carry_no_ratio_matrix():
    # weights live in the snapshot and counts in selections, once each
    rows = [completed_row(0, 0, 5000), completed_row(1, 1, 5000)]
    s = summarize(rows, snapshot_for({0: 1000, 1: 3000, 2: None}))
    assert s.fairness_groups == {0: {0: 2.0}}
    text = s.to_json()
    assert json.loads(text)["fairness"]["groups"] == {"0": {"0": 2.0}}
    for key in ('"ratios"', '"weights_us"', '"counts"'):
        assert key not in text


def test_group_with_no_nonzero_product_is_null():
    # a group with finite weights but no completions has no deviation; a
    # group with no finite weight at all has no entry
    s = summarize([unserved_row(0)], snapshot_for({0: 1000}))
    assert s.fairness_groups == {0: {0: None}}
    assert s.fairness_max_deviation is None
    assert summarize([unserved_row(0)], snapshot_for({0: None})).fairness_groups == {}


def test_deviation_takes_the_larger_of_the_two_quotients():
    # Near 1e16 the quotient above 1 rounds to exactly 1.0 while the one
    # below 1 does not, so only 1 - lo/hi sees the difference.
    rows = [completed_row(0, 0, 5000), completed_row(1, 1, 5000)]
    weights = {0: 10**16, 1: 10**16 + 1}
    s = summarize(rows, snapshot_for(weights))
    assert (10**16 + 1) / 10**16 - 1.0 == 0.0
    assert s.fairness_max_deviation == 1.0 - 10**16 / (10**16 + 1) > 0.0
    assert s.fairness_max_deviation == naive_max_deviation(weights, {0: 1, 1: 1})


@st.composite
def fairness_groups(draw):
    """Weights and counts of one group: k = 1-10 destinations, with
    no estimate, non-positive weights, zero counts, products up to about
    1e12 and, for tie-heavy groups, weights that make count x weight equal."""
    k = draw(st.integers(1, 10))
    base = draw(st.integers(1, 4 * 10**7))
    weights, counts = {}, {}
    for dest in range(k):
        count = draw(st.integers(0, 12))
        kind = draw(st.sampled_from(("tie", "tie", "free", "none", "nonpositive")))
        if kind == "tie" and count:
            # 27720 = lcm(1..12): every tied product is base * 27720
            weight = base * 27720 // count
        elif kind == "none":
            weight = None
        elif kind == "nonpositive":
            weight = draw(st.integers(-5, 0))
        else:
            weight = draw(st.integers(1, 10**11))
        weights[dest] = weight
        if count:
            counts[dest] = count
    return weights, counts


@settings(max_examples=400)
@given(fairness_groups())
def test_linear_max_deviation_matches_the_ratio_matrix(group):
    weights, counts = group
    rows = []
    for dest, count in counts.items():
        rows += [completed_row(len(rows), dest, 5000) for _ in range(count)]
    if not rows:
        rows = [unserved_row(0)]
    s = summarize(rows, snapshot_for(weights))
    # the group's number against the full matrix over the group's weights
    # as the summary's snapshot holds them and its selections
    group_weights = {
        d: info["weight"]
        for d, info in s.snapshot["routers"][0]["lambdas"][0]["weights"].items()
    }
    expected = naive_max_deviation(group_weights, s.selections.get(0, {}).get(0, {}))
    got = s.fairness_groups.get(0, {}).get(0)
    assert type(got) is type(expected)
    assert got == expected
    assert s.fairness_max_deviation == expected


@pytest.mark.parametrize("policy", ["rr", "li", "rp"])
def test_fanout_groups_match_the_ratio_matrix(policy):
    scenario = scenario_from_mapping(fanout_doc(7))
    result = run(scenario.with_overrides(policy_kind=PolicyKind(policy)))
    s = summarize(result.rows, result.snapshot)
    # one router, one lambda: the run's only group
    entry = result.snapshot["routers"][0]["lambdas"][0]
    weights = {d: info["weight"] for d, info in entry["weights"].items()}
    expected = naive_max_deviation(weights, s.selections[0][0])
    got = s.fairness_groups[0][0]
    assert type(got) is type(expected)
    assert got == expected == s.fairness_max_deviation


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


@pytest.mark.parametrize(
    "row",
    [
        "0,0,0,3,10,31,10,5,5,0,rr",  # delays sum to 20 over a span of 21
        "0,0,0,3,10,30,16,-1,5,0,rr",  # negative queue_us, sum holds
        ",0,0,3,10,30,10,5,5,0,rr",  # blank seq on a completed row
        ",0,0,-1,10,,,,,0,rr",  # blank seq on an unserved row
    ],
)
def test_read_trace_rejects_rows_that_break_the_delay_rule(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(TRACE_COLUMNS) + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_trace(path)


@pytest.mark.parametrize("flag", ["2", "-7", "True", "", " 1", "01"])
@pytest.mark.parametrize("line", ["0,0,0,3,10,30,10,5,5,{},rr", "0,0,0,-1,10,,,,,{},rr"])
def test_read_trace_rejects_a_probe_flag_other_than_0_or_1(tmp_path, line, flag):
    # bool(int("2")) would read True and write back "1": no round trip
    path = tmp_path / "bad.csv"
    row = line.format(flag)
    path.write_text(",".join(TRACE_COLUMNS) + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="probe flag") as info:
        read_trace(path)
    assert row.split(",")[4] in str(info.value)


@pytest.mark.parametrize("destination", ["-1", "-5"])
def test_read_trace_rejects_a_completed_row_without_a_computer(tmp_path, destination):
    path = tmp_path / "bad.csv"
    row = f"0,0,0,{destination},10,30,10,5,5,0,rr"
    path.write_text(",".join(TRACE_COLUMNS) + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no destination") as info:
        read_trace(path)
    assert destination in str(info.value)


def test_read_trace_keeps_probe_flags_and_blanks(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        ",".join(TRACE_COLUMNS) + "\n0,0,0,3,10,30,10,5,5,1,rr\n1,0,0,-1,20,,,,,0,rr\n",
        encoding="utf-8",
    )
    served, unserved = read_trace(path)
    assert served.is_probe is True and served.latency_us == 20
    assert unserved.is_probe is False
    assert unserved.destination == -1 and unserved.completed_us is None
    assert trace_bytes([served, unserved]) == path.read_bytes()


def trace_file(tmp_path, *lines, end="\n"):
    path = tmp_path / "trace.csv"
    path.write_bytes(end.join((",".join(TRACE_COLUMNS),) + lines).encode() + end.encode())
    return path


@pytest.mark.parametrize(
    "line, refusal",
    [
        ('0,0,0,3,10,30,10,5,5,0,"rr"', """has policy '"rr"', not one of li, rp, rr"""),
        ('"0",0,0,3,10,30,10,5,5,0,rr', "invalid literal for int"),
        ("0,0,0,3,10,30,10,5,5,0,xx", "has policy 'xx', not one of li, rp, rr"),
        ("0,0,0,\uff13,10,30,10,5,5,0,rr", "invalid literal for int"),
    ],
    ids=["quoted-policy", "quoted-number", "policy-xx", "fullwidth-digit"],
)
def test_read_trace_refuses_what_only_the_csv_dialect_took(tmp_path, line, refusal):
    path = trace_file(tmp_path, line)
    assert len(csv_read_trace(path)) == 1
    with pytest.raises(ValueError, match=refusal) as info:
        read_trace(path)
    assert str(info.value).endswith(": " + line)


def test_read_trace_refuses_a_crlf_trace(tmp_path):
    path = trace_file(tmp_path, "0,0,0,3,10,30,10,5,5,0,rr", "1,0,0,-1,20,,,,,0,rr", end="\r\n")
    assert len(csv_read_trace(path)) == 2
    with pytest.raises(ValueError, match="carriage return"):
        read_trace(path)


def test_writer_refuses_a_policy_the_reader_would_refuse(tmp_path):
    rows = [completed_row(0, 2, 7000), completed_row(1, 2, 7000, policy="a,b")]
    path = tmp_path / "trace.csv"
    for write in (trace_bytes, lambda rows: write_trace(path, rows)):
        with pytest.raises(ValueError, match="trace row 1 has policy 'a,b', not one of li, rp, rr"):
            write(rows)
    assert not path.exists()


@st.composite
def trace_rows(draw):
    """A row as simnet builds one, completed or unserved, under any kind."""
    ids = st.integers(0, 2**40)
    seq, lam, router, issued = draw(ids), draw(st.integers(0, 9)), draw(st.integers(0, 9)), draw(ids)
    probe, policy = draw(st.booleans()), draw(st.sampled_from(POLICIES))
    if draw(st.booleans()):
        return TraceRow(seq, lam, router, -1, issued, None, None, None, None, probe, policy)
    transfer, queue, processing = draw(ids), draw(ids), draw(ids)
    completed = issued + transfer + queue + processing
    return TraceRow(
        seq, lam, router, draw(ids), issued, completed, transfer, queue, processing, probe, policy,
        dispatch_us=draw(st.none() | ids),
    )


@settings(max_examples=300)
@given(st.lists(trace_rows(), max_size=12))
def test_trace_bytes_match_the_csv_writer(rows):
    assert trace_bytes(rows) == csv_trace_bytes(rows)


NON_ASCII_DIGITS = "\uff10\u0660\u0966\u09e6"  # fullwidth, Arabic-Indic, Devanagari, Bengali zero


@st.composite
def mutated_line(draw, line):
    """``line`` with one or two edits of the kinds a hand-edited or foreign
    trace might have."""
    cells = line.split(",")
    for _ in range(draw(st.integers(1, 2))):
        j = draw(st.integers(0, len(cells) - 1))
        kind = draw(
            st.sampled_from(
                ("drop", "add", "blank", "probe", "sign", "space", "plus", "underscore",
                 "zeros", "cr", "crlf", "quote", "policy", "digit")
            )
        )
        if kind == "drop" and len(cells) > 1:
            del cells[j]
        elif kind == "add":
            cells.insert(j, draw(st.sampled_from(("", "0", "7", "rr"))))
        elif kind == "blank":
            cells[j] = ""
        elif kind == "probe":
            cells[-1 if len(cells) < 2 else -2] = draw(
                st.sampled_from(("0", "1", "2", "", "-1", "True", " 1", "01"))
            )
        elif kind == "sign":
            cells[j] = "-" + cells[j]
        elif kind == "space":
            cells[j] = draw(st.text(" \t\v\f", max_size=2)) + cells[j] + draw(st.text(" \t", max_size=2))
        elif kind == "plus":
            cells[j] = "+" + cells[j]
        elif kind == "underscore":
            at = draw(st.integers(0, len(cells[j])))
            cells[j] = cells[j][:at] + "_" + cells[j][at:]
        elif kind == "zeros":
            cells[j] = "00" + cells[j]
        elif kind == "cr":
            cells[j] += "\r"
        elif kind == "crlf":
            cells[-1] += "\r"
        elif kind == "quote":
            cells[j] = '"' + cells[j] + '"'
        elif kind == "policy":
            cells[-1] = draw(st.sampled_from(("xx", "RR", "r", "rrr", "", " li", "rp ", *POLICIES)))
        elif kind == "digit":
            digits = [at for at, c in enumerate(cells[j]) if c.isdigit()]
            zero = draw(st.sampled_from(NON_ASCII_DIGITS))
            if digits:
                at = draw(st.sampled_from(digits))
                cells[j] = cells[j][:at] + chr(ord(zero) + int(cells[j][at])) + cells[j][at + 1 :]
            else:
                cells[j] += zero
    return ",".join(cells)


def only_the_csv_dialect_takes(line, rows):
    """The kinds of input the csv oracle reads and ``read_trace`` refuses:
    a quote, a carriage return, a non-ASCII character, a foreign policy."""
    return (
        '"' in line
        or "\r" in line
        or not line.isascii()
        or any(r.policy not in POLICIES for r in rows)
    )


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(trace_rows(), min_size=1, max_size=5), data=st.data())
def test_read_trace_agrees_with_the_csv_reader(tmp_path, rows, data):
    lines = csv_trace_bytes(rows).decode().split("\n")
    at = data.draw(st.integers(1, len(rows)))
    lines[at] = data.draw(mutated_line(lines[at]))
    path = tmp_path / "trace.csv"
    path.write_bytes("\n".join(lines).encode())
    try:
        expected = csv_read_trace(path)
    except ValueError:
        expected = None
    try:
        got = read_trace(path)
    except ValueError:
        got = None
    if got is not None:
        assert got == expected
        assert all(r.policy is PolicyKind(r.policy).value for r in got)
    elif expected is not None:
        assert only_the_csv_dialect_takes(lines[at], expected)


def test_summary_survives_the_disk_round_trip(tmp_path):
    result = run(load_scenario("ring-tree").with_overrides(duration_us=1_000_000))
    first = summarize(result.rows, result.snapshot)
    trace_path = tmp_path / "trace.csv"
    write_trace(trace_path, result.rows)
    parsed = json.loads(first.to_json())
    again = summarize(read_trace(trace_path), parsed["snapshot"])
    assert again.to_json() == first.to_json()


def test_snapshot_keys_read_back_as_str_writes_ids():
    # JSON writes every id key as str(id); a field map's keys stay text,
    # even one that looks like a number
    policy = {"kind": "rr", "10": 0, "deficits_us": {3: 5, 12: 0}}
    doc = snapshot_for({7: 1000, 0: 2000, 10: None}, policy)
    entry = summarize([], json.loads(json.dumps(doc))).snapshot["routers"][0]["lambdas"][0]
    assert list(entry["weights"]) == [7, 0, 10]
    assert list(entry["policy"]) == ["kind", "10", "deficits_us"]
    assert entry["policy"]["deficits_us"] == {3: 5, 12: 0}


@pytest.mark.parametrize("key", ["007", "\u0663", "+7", "1_0", " 7", "-0"])
def test_a_snapshot_key_that_str_would_not_write_is_refused(key):
    # int() takes each of these ('\u0663' is the Arabic-Indic digit three);
    # read as an id, each would merge with the key str() writes for it
    snapshot = snapshot_for({str(int(key)): 1000, key: 2000})
    with pytest.raises(ValueError, match=f"^snapshot key {re.escape(repr(key))} is not"):
        summarize([], snapshot)


@pytest.mark.parametrize(
    "snapshot, key, where",
    [
        (snapshot_for({"0": 1000, "x": 2000}), "x", "routers/0/lambdas/0/weights"),
        ({"routers": {"x": {"lambdas": {}}, "0": {"lambdas": {}}}}, "x", "routers"),
        ({"routers": {"-1": {"lambdas": {}}}}, "-1", "routers"),
        (snapshot_for({0: 1000}, {"backoff_us": {0: 1, "0x1": 2}}), "0x1",
         "routers/0/lambdas/0/policy/backoff_us"),
        (snapshot_for({0: 1000}, {"eligible_at_us": {-2: 0}}), -2,
         "routers/0/lambdas/0/policy/eligible_at_us"),
        (snapshot_for({0: 1000}, {"deficits_us": {True: 0}}), True,
         "routers/0/lambdas/0/policy/deficits_us"),
    ],
    ids=["text-weight", "text-router", "negative-router", "hex-backoff", "negative-int",
         "bool"],
)
def test_an_id_map_refuses_a_key_that_is_not_an_id(snapshot, key, where):
    # no id is negative or text; each used to fail later in a bare sort or
    # read as an id no document can name
    message = f"^snapshot key {re.escape(repr(key))} is not an id .*, at {where}$"
    with pytest.raises(ValueError, match=message):
        summarize([], snapshot)


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
