import copy
import dataclasses
import json
from importlib import resources

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

from edgedispatch.core import string_keys
from edgedispatch.metrics import read_trace, summarize, write_trace
from edgedispatch.policy import PolicyKind
from edgedispatch.scenario import (
    InvalidScenario,
    Scenario,
    builtin_names,
    compile_schema,
    load_scenario,
    scenario_from_mapping,
    semantic_problems,
)
from edgedispatch.simnet import run

from helpers import fanout_doc, scenario_docs, tiny_doc, tiny_scenario

PACKAGE = resources.files("edgedispatch")
SCHEMA = json.loads(PACKAGE.joinpath("schemas/scenario.schema.json").read_text(encoding="utf-8"))


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


def as_floats(doc):
    """A copy of a document with every integer field but the times written
    as an integral float, which draft 7 accepts as an integer."""
    doc = copy.deepcopy(doc)
    doc["seed"] = float(doc["seed"])
    for c in doc["computers"]:
        c["id"], c["workers"] = float(c["id"]), float(c["workers"])
    for r in doc["routers"]:
        r["id"] = float(r["id"])
        for l in r["lambdas"]:
            l["id"] = float(l["id"])
            l["destinations"] = [float(d) for d in l["destinations"]]
    for w in doc["workload"]:
        w["router"], w["lambda"] = float(w["router"]), float(w["lambda"])
    for c in doc["congestion"]:
        c["router"], c["computer"] = float(c["router"]), float(c["computer"])
    return doc


def test_integral_floats_load_as_integers(tmp_path):
    doc = tiny_doc(
        duration_ms=300,
        seed=7,
        congestion=[{"router": 0, "computer": 0, "start_ms": 150, "end_ms": 250}],
    )
    outputs = []
    for name, variant in (("ints", doc), ("floats", as_floats(doc))):
        result = run(scenario_from_mapping(variant))
        path = tmp_path / f"{name}.csv"
        write_trace(path, result.rows)
        rows = read_trace(path)
        assert rows == [dataclasses.replace(r, dispatch_us=None) for r in result.rows]
        outputs.append((path.read_bytes(), summarize(rows, result.snapshot).to_json()))
    assert outputs[0] == outputs[1]
    assert b"0.0" not in outputs[1][0]


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


def test_report_keeps_the_first_ten_problems_by_path():
    # 16 shape errors over 15 paths; the report keeps the first ten by path
    doc = tiny_doc(
        name="",
        duration_ms=0,
        seed=-0.5,
        runtime="forever",
        policy={"kind": "fifo", "alpha": 1.5, "retry_ms": True},
        workload=[],
    )
    doc["computers"].append({"id": -1, "workers": 0, "beta": -1, "service_ms": {}})
    doc["routers"][0]["links_ms"] = {"x": 1, 0: -2}
    doc["routers"][0]["lambdas"][0]["destinations"] = [0, "1"]
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert info.value.problems == [
        "(top level): Additional properties are not allowed ('runtime' was unexpected)",
        "computers/1/beta: -1 is less than the minimum of 0",
        "computers/1/id: -1 is less than the minimum of 0",
        "computers/1/service_ms: {} should be non-empty",
        "computers/1/workers: 0 is less than the minimum of 1",
        "duration_ms: 0 is less than or equal to the minimum of 0",
        "name: '' should be non-empty",
        "policy/alpha: 1.5 is greater than the maximum of 1",
        "policy/kind: 'fifo' is not one of ['li', 'rp', 'rr']",
        "policy/retry_ms: True is not of type 'number'",
    ]
    assert len(compile_schema(SCHEMA)(string_keys(doc))) == 16


def test_shape_check_follows_draft_7():
    errors = compile_schema(SCHEMA)
    doc = string_keys(tiny_doc())
    assert errors(doc) == []
    # an integral float is an integer
    doc["computers"][0]["workers"] = 2.0
    assert errors(doc) == []
    # a bool is neither an integer nor a number
    doc["computers"][0]["workers"] = True
    doc["computers"][0]["beta"] = False
    assert errors(doc) == [
        (("computers", 0, "workers"), "True is not of type 'integer'"),
        (("computers", 0, "beta"), "False is not of type 'number'"),
    ]
    # a failed type does not stop the bound
    doc = string_keys(tiny_doc(seed=-0.5))
    assert errors(doc) == [
        (("seed",), "-0.5 is not of type 'integer'"),
        (("seed",), "-0.5 is less than the minimum of 0"),
    ]
    # required and additionalProperties sit at the object's path; a
    # links_ms key must match the anchored pattern '^[0-9]+$'
    doc = string_keys(tiny_doc())
    del doc["routers"][0]["lambdas"][0]["id"]
    doc["routers"][0]["links_ms"].update({"1": 2, "a1": 2, "2b": 2})
    assert errors(doc) == [
        (("routers", 0, "links_ms"), "'2b', 'a1' do not match any of the regexes: '^[0-9]+$'"),
        (("routers", 0, "lambdas", 0), "'id' is a required property"),
    ]


VALID_SEEDS = st.one_of(
    scenario_docs(),
    st.sampled_from(
        [
            yaml.safe_load(PACKAGE.joinpath(f"scenarios/{name}").read_text(encoding="utf-8"))
            for name in ("line.yaml", "ring_tree.yaml")
        ]
        + [fanout_doc(3, computers=6), tiny_doc()]
    ),
)
# Bools, and values at and past every bound of the schema (0 and 1).
BOUND_VALUES = [True, False, -0.5, 0, 0.0, 0.5, 1, 1.0, 1.5]
# Wrong types and empties.
ODD_VALUES = ["x", "", [], [1], {}, {"7": 1}, None, True, 1.5, -1]
# "7\n" matches '^[0-9]+$' under re.search, as in draft 7.
EXTRA_KEYS = ["extra", "7", "x1", "7\n"]


def nodes(value, path=()):
    """Every (path, value) in a document tree, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from nodes(item, path + (index,))


@st.composite
def mutated_docs(draw):
    """A valid document with 1-5 mutations: a key dropped, a value replaced
    by a wrong type or an empty, a number replaced by a bool or a value at
    or past a bound, or an extra property added."""
    doc = copy.deepcopy(string_keys(draw(VALID_SEEDS)))
    for _ in range(draw(st.integers(1, 5))):
        tree = list(nodes(doc))
        op = draw(st.sampled_from(("drop", "retype", "bound", "add")))
        if op == "add":
            _, node = draw(st.sampled_from([(p, n) for p, n in tree if isinstance(n, dict)]))
            node[draw(st.sampled_from(EXTRA_KEYS))] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
            continue
        if op == "bound":
            targets = [p for p, n in tree if type(n) in (int, float)]
        else:
            targets = [p for p, _ in tree[1:]]
        path = draw(st.sampled_from(targets))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            values = BOUND_VALUES if op == "bound" else ODD_VALUES
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(values)))
    return doc


@settings(max_examples=300)
@given(doc=mutated_docs())
def test_shape_check_agrees_with_draft7_validator(doc):
    expected = [(tuple(e.absolute_path), e.message) for e in Draft7Validator(SCHEMA).iter_errors(doc)]
    assert compile_schema(SCHEMA)(doc) == expected
    if expected:
        with pytest.raises(InvalidScenario) as info:
            scenario_from_mapping(doc)
        assert info.value.problems == [
            f"{'/'.join(map(str, path)) or '(top level)'}: {message}"
            for path, message in sorted(expected, key=lambda e: e[0])[:10]
        ]


@settings(max_examples=60)
@given(doc=scenario_docs())
def test_drawn_documents_load_and_their_delays_sum_to_the_latency(doc):
    result = run(scenario_from_mapping(doc))
    for row in result.completed:
        assert row.transfer_us + row.queue_us + row.processing_us == row.latency_us
