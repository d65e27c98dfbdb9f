import dataclasses

import pytest
import yaml

from edgedispatch.policy import PolicyKind
from edgedispatch.scenario import (
    InvalidScenario,
    Scenario,
    builtin_names,
    load_scenario,
    scenario_from_mapping,
    semantic_problems,
)
from edgedispatch.simnet import run

from helpers import tiny_doc, tiny_scenario


def test_builtin_names():
    assert builtin_names() == ["line", "ring-tree"]


def test_builtin_scenarios_load():
    line = load_scenario("line")
    assert line.name == "line"
    assert line.duration_us == 10_000_000
    assert len(line.computers) == 4
    assert line.policy.kind is PolicyKind.ROUND_ROBIN

    ring = load_scenario("ring-tree")
    assert ring.name == "ring-tree"
    assert len(ring.routers) == 3
    assert len(ring.congestion) == 1
    window = ring.congestion[0]
    assert (window.start_us, window.end_us) == (2_000_000, 4_000_000)


def test_load_from_path(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(tiny_doc()), encoding="utf-8")
    s = load_scenario(path)
    assert s.name == "tiny"
    assert s.duration_us == 150_000


def test_missing_file_lists_builtins():
    with pytest.raises(InvalidScenario) as info:
        load_scenario("no-such-scenario")
    message = info.value.problems[0]
    assert "line" in message and "ring-tree" in message


def test_bad_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("name: [unclosed", encoding="utf-8")
    with pytest.raises(InvalidScenario) as info:
        load_scenario(path)
    assert "YAML" in info.value.problems[0]


def test_non_mapping_document():
    with pytest.raises(InvalidScenario):
        scenario_from_mapping(["not", "a", "mapping"])


def test_missing_required_field():
    doc = tiny_doc()
    del doc["duration_ms"]
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert any("duration_ms" in p for p in info.value.problems)


def test_unknown_field_rejected():
    with pytest.raises(InvalidScenario) as info:
        tiny_scenario(runtime="forever")
    assert any("runtime" in p for p in info.value.problems)
    with pytest.raises(InvalidScenario) as info:
        tiny_scenario(policy={"kind": "rr", "literal_probe_condition": True})
    assert any("literal_probe_condition" in p for p in info.value.problems)


def test_schema_error_points_at_location():
    doc = tiny_doc()
    doc["computers"][0]["workers"] = "many"
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert any(p.startswith("computers/0/workers") for p in info.value.problems)


def test_bad_process_enum():
    doc = tiny_doc()
    doc["workload"][0]["process"] = "bursty"
    with pytest.raises(InvalidScenario):
        scenario_from_mapping(doc)


def test_empty_destination_set_names_router_and_lambda():
    doc = tiny_doc()
    doc["routers"][0]["lambdas"][0]["destinations"] = []
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert "router 0 lambda 0: empty destination set" in info.value.problems


def test_unknown_destination_reference():
    doc = tiny_doc()
    doc["routers"][0]["lambdas"][0]["destinations"] = [0, 9]
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert any("unknown destination 9" in p for p in info.value.problems)


def test_destination_without_link():
    doc = tiny_doc()
    doc["computers"].append(
        {"id": 1, "workers": 1, "beta": 0.0, "service_ms": {0: 5}}
    )
    doc["routers"][0]["lambdas"][0]["destinations"] = [0, 1]
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert any("no link to destination 1" in p for p in info.value.problems)


def test_computer_missing_service_time():
    doc = tiny_doc()
    doc["computers"][0]["service_ms"] = {1: 5}
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert any("no service time for lambda 0" in p for p in info.value.problems)


def test_workload_must_match_a_served_lambda():
    doc = tiny_doc()
    doc["workload"][0]["lambda"] = 3
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert any("does not serve lambda 3" in p for p in info.value.problems)


def test_nonpositive_rate():
    doc = tiny_doc()
    doc["workload"][0]["rate_per_s"] = 0
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert any("rate_per_s" in p for p in info.value.problems)
    # the semantic pass guards hand-built scenarios too
    s = tiny_scenario()
    broken = dataclasses.replace(
        s, workload=(dataclasses.replace(s.workload[0], rate_per_s=-1.0),)
    )
    assert any("rate must be positive" in p for p in semantic_problems(broken))


def test_retry_rounding_to_zero_us_rejected():
    # with the only destination blacked out, a 0 us retry would re-queue
    # at the same microsecond forever
    doc = tiny_doc(
        policy={"kind": "li", "retry_ms": 0.0001},
        congestion=[{"router": 0, "computer": 0, "start_ms": 0, "end_ms": 150}],
    )
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert any("retry_ms" in p and "1 us" in p for p in info.value.problems)


def test_backoff_rounding_to_zero_us_rejected():
    # doubling a 0 us backoff never moves it
    doc = tiny_doc(policy={"kind": "rr", "b_min_ms": 0.0004})
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert any("b_min_ms" in p and "1 us" in p for p in info.value.problems)


def test_service_time_rounding_to_zero_us_rejected():
    doc = tiny_doc()
    doc["computers"][0]["service_ms"] = {0: 0.0001}
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert any(
        "service_ms for lambda 0" in p and "1 us" in p for p in info.value.problems
    )


def test_congestion_window_needs_start_before_end():
    doc = tiny_doc(
        congestion=[{"router": 0, "computer": 0, "start_ms": 50, "end_ms": 50}]
    )
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert any("start < end" in p for p in info.value.problems)


def test_overlapping_congestion_windows_rejected():
    # the first clear would lift the blackout while the second window is open
    doc = tiny_doc(
        congestion=[
            {"router": 0, "computer": 0, "start_ms": 100, "end_ms": 300},
            {"router": 0, "computer": 0, "start_ms": 200, "end_ms": 600},
        ]
    )
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert info.value.problems == [
        "congestion router 0 computer 0: windows 100.0-300.0 ms and 200.0-600.0 ms overlap"
    ]
    # a window nested in a longer one, listed first
    doc["congestion"][0]["end_ms"] = 700
    doc["congestion"].reverse()
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert info.value.problems == [
        "congestion router 0 computer 0: windows 100.0-700.0 ms and 200.0-600.0 ms overlap"
    ]


def test_touching_congestion_windows_accepted():
    # the clear at 300 ms is applied before the mark at 300 ms, so the two
    # windows black out 100-600 ms without a gap
    s = tiny_scenario(
        duration_ms=700,
        congestion=[
            {"router": 0, "computer": 0, "start_ms": 100, "end_ms": 300},
            {"router": 0, "computer": 0, "start_ms": 300, "end_ms": 600},
        ],
    )
    dispatched = [row.dispatch_us for row in run(s).completed]
    assert dispatched and not any(100_000 <= t < 600_000 for t in dispatched)


def test_congestion_references_checked():
    doc = tiny_doc(
        congestion=[{"router": 7, "computer": 8, "start_ms": 1, "end_ms": 2}]
    )
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert any("unknown router 7" in p for p in info.value.problems)
    assert any("unknown computer 8" in p for p in info.value.problems)


def test_duplicate_ids_rejected():
    doc = tiny_doc()
    doc["computers"].append(dict(doc["computers"][0]))
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert "computers: duplicate id" in info.value.problems


def test_duplicate_destination_rejected():
    doc = tiny_doc()
    doc["routers"][0]["lambdas"][0]["destinations"] = [0, 0]
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert any("duplicate destination" in p for p in info.value.problems)


def test_integer_yaml_keys_accepted(tmp_path):
    # YAML parses {0: 5} with an int key; the loader must cope
    text = yaml.safe_dump(tiny_doc())
    assert "'0'" not in text  # keys really are integers in the file
    path = tmp_path / "int_keys.yaml"
    path.write_text(text, encoding="utf-8")
    s = load_scenario(path)
    assert s.computers[0].service_us == {0: 5000}
    assert s.routers[0].links_us == {0: 1000}


def test_units_converted_to_microseconds():
    s = tiny_scenario()
    assert s.duration_us == 150_000
    assert s.policy.b_min_us == 100_000
    assert s.policy.retry_us == 50_000
    assert s.workload[0].client_link_us == 0


def test_policy_defaults_and_parse():
    s = tiny_scenario(policy={"kind": "rp", "alpha": 0.5, "b_min_ms": 20, "retry_ms": 5})
    assert s.policy.kind is PolicyKind.RANDOM_PROPORTIONAL
    assert s.policy.alpha == 0.5
    assert s.policy.b_min_us == 20_000
    assert s.policy.retry_us == 5000
    # policy block is optional entirely
    doc = tiny_doc()
    del doc["policy"]
    assert scenario_from_mapping(doc).policy.kind is PolicyKind.ROUND_ROBIN


def test_with_overrides():
    s = tiny_scenario()
    out = s.with_overrides(policy_kind=PolicyKind.ROUND_ROBIN, seed=9, duration_us=1000)
    assert out.policy.kind is PolicyKind.ROUND_ROBIN
    assert out.seed == 9
    assert out.duration_us == 1000
    # original untouched, unset fields carried over
    assert s.policy.kind is PolicyKind.LEAST_IMPEDANCE
    assert out.policy.alpha == s.policy.alpha
    assert s.with_overrides() == s


def test_semantic_problems_collects_everything():
    s = tiny_scenario()
    broken = dataclasses.replace(s, duration_us=0)
    assert semantic_problems(broken) == ["duration_ms: must be positive"]
    assert isinstance(s, Scenario)
    assert semantic_problems(s) == []
