import copy
import dataclasses
import json
import re
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

from edgedispatch.core import from_ms, string_keys
from edgedispatch.metrics import read_trace, summarize, write_trace
from edgedispatch.policy import PolicyKind
from edgedispatch.scenario import (
    MAX_WORKERS,
    CongestionWindow,
    InvalidScenario,
    Scenario,
    builtin_names,
    load_scenario,
    scenario_from_mapping,
    semantic_problems,
)
from edgedispatch.simnet import run

from helpers import fanout_doc, scenario_docs, tiny_doc, tiny_scenario

PACKAGE = resources.files("edgedispatch")
# The shape a document must have, as JSON Schema draft 7: the independent
# oracle that jsonschema's Draft7Validator holds the package's read to.
SCHEMA = json.loads((Path(__file__).parent / "scenario.schema.json").read_text(encoding="utf-8"))
BUILTIN_DOCS = [
    yaml.safe_load(PACKAGE.joinpath(f"scenarios/{name}").read_text(encoding="utf-8"))
    for name in ("line.yaml", "ring_tree.yaml")
]


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


def test_a_directory_is_not_a_scenario(tmp_path):
    with pytest.raises(InvalidScenario) as info:
        load_scenario(tmp_path)
    assert info.value.problems == [f"{str(tmp_path)!r} is not a file"]


def test_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes("name: caf\u00e9\n".encode("latin-1"))
    with pytest.raises(InvalidScenario) as info:
        load_scenario(path)
    assert info.value.problems[0].startswith("not valid UTF-8: 'utf-8' codec can't decode")


def test_bad_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("name: [unclosed", encoding="utf-8")
    with pytest.raises(InvalidScenario) as info:
        load_scenario(path)
    assert "YAML" in info.value.problems[0]


def tiny_yaml(old, new):
    """``tiny_doc`` as YAML in key order, with one line replaced."""
    text = yaml.safe_dump(tiny_doc(), sort_keys=False)
    assert text.count(old) == 1
    return text.replace(old, new)


@pytest.mark.parametrize(
    "old, new, words",
    [
        # YAML 1.1 reads 00 as the int 0, the key of the line before
        ("    0: 1\n", "    0: 1\n    00: 7\n", ["duplicate key 0 (first on line 15)", "line 16, column 5:"]),
        (
            "policy:\n  kind: li\n",
            "policy:\n  kind: li\npolicy:\n  kind: rr\n",
            ["duplicate key 'policy' (first on line 4)", "line 6, column 1:"],
        ),
    ],
    ids=["links-00", "doubled-policy"],
)
def test_a_key_given_twice_in_one_mapping_is_refused(tmp_path, old, new, words):
    # PyYAML would keep the last of two equal keys; the loader refuses the
    # second, by key and line
    path = tmp_path / "twice.yaml"
    path.write_text(tiny_yaml(old, new), encoding="utf-8")
    with pytest.raises(InvalidScenario) as info:
        load_scenario(path)
    (problem,) = info.value.problems
    assert problem.startswith("not valid YAML: while constructing a mapping")
    assert all(w in problem for w in words), problem


def test_an_explicit_key_may_override_a_merged_one(tmp_path):
    path = tmp_path / "merge.yaml"
    path.write_text(
        tiny_yaml("policy:\n  kind: li\n", "policy: {<<: {kind: li, alpha: 0.5}, alpha: 0.25}\n"),
        encoding="utf-8",
    )
    assert load_scenario(path).policy.alpha == 0.25


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


@pytest.mark.parametrize(
    "value", [float("inf"), float("nan"), 10**400], ids=["inf", "nan", "int-past-the-float-range"]
)
@pytest.mark.parametrize(
    "path",
    [
        ("workload", 0, "rate_per_s"),
        ("computers", 0, "beta"),
        ("policy", "alpha"),
        ("duration_ms",),
        ("computers", 0, "service_ms", 0),
        ("routers", 0, "links_ms", 0),
        ("workload", 0, "client_link_ms"),
        ("policy", "retry_ms"),
        ("policy", "b_min_ms"),
    ],
    ids=lambda path: "/".join(map(str, path)),
)
def test_non_finite_numbers_are_named_by_path(path, value):
    # An infinite rate never lets an issue reach the duration, a non-finite
    # beta or millisecond value cannot become an integer, and an int past
    # the float range cannot become a float.
    doc = tiny_doc()
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    where = "/".join(map(str, path))
    assert f"{where}: {value!r} is not a finite number" in info.value.problems


@pytest.mark.parametrize(
    "part, field, value, words",
    [
        ("workload", "rate_per_s", float("inf"), "rate must be positive and finite"),
        ("workload", "rate_per_s", float("nan"), "rate must be positive and finite"),
        ("computers", "beta", float("inf"), "beta must be finite and non-negative"),
        ("computers", "beta", float("nan"), "beta must be finite and non-negative"),
        ("computers", "beta", -0.5, "beta must be finite and non-negative"),
        ("policy", "alpha", float("nan"), "policy.alpha: must be in [0, 1]"),
    ],
)
def test_semantic_pass_rejects_non_finite_values_built_in_code(part, field, value, words):
    s = tiny_scenario()
    if part == "policy":
        scenario = dataclasses.replace(s, policy=dataclasses.replace(s.policy, **{field: value}))
    else:
        (item,) = getattr(s, part)
        scenario = dataclasses.replace(s, **{part: (dataclasses.replace(item, **{field: value}),)})
    assert any(words in p for p in semantic_problems(scenario))
    with pytest.raises(InvalidScenario):
        run(scenario)


def set_in(doc, path, value):
    """Set the item at ``path`` (keys and indices) of a document."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


def replaced(obj, path, value):
    """``obj`` with the item at ``path`` (field names and tuple indices)
    replaced by ``value``; nothing is changed in place."""
    if not path:
        return value
    key, *rest = path
    if isinstance(obj, tuple):
        return (*obj[:key], replaced(obj[key], rest, value), *obj[key + 1:])
    return dataclasses.replace(obj, **{key: replaced(getattr(obj, key), rest, value)})


# One case per value rule: the edits that break it in a document and in a
# code-built scenario, and the words the semantic pass gives for both. The
# cases in SHAPE_CASES break a type or the policy kind in the document, which
# the schema refuses at the first edit's path before any value rule runs.
# Several rows are values that used to run: a lost request, a crash in a
# TraceRow, an unknown process, rows with destination -1 that read_trace
# refuses, an AttributeError in the simulator, and rows with router "0.0"
# that read_trace refuses.
VALUE_RULES = {
    "workers-0": (
        [(("computers", 0, "workers"), 0)],
        [(("computers", 0, "workers"), 0)],
        "computer 0: workers must be an int of at least 1, got 0",
    ),
    # the computer's worker list is never built: validation comes first
    "workers-above-max": (
        [(("computers", 0, "workers"), 10_001)],
        [(("computers", 0, "workers"), 10_001)],
        "computer 0: workers must be at most 10000, got 10001",
    ),
    # an integral float is an integer: this one loads as an int of 307 digits
    "workers-1e306": (
        [(("computers", 0, "workers"), 1.0e306)],
        [(("computers", 0, "workers"), int(1.0e306))],
        f"computer 0: workers must be at most 10000, got {int(1.0e306)}",
    ),
    "negative-client-link": (
        [(("workload", 0, "client_link_ms"), -5)],
        [(("workload", 0, "client_link_us"), -5000)],
        "workload router 0 lambda 0: negative client link -5000 us",
    ),
    "unknown-process": (
        [(("workload", 0, "process"), "bursty")],
        [(("workload", 0, "process"), "bursty")],
        "workload router 0 lambda 0: process must be 'poisson' or 'deterministic', got 'bursty'",
    ),
    "negative-computer-id": (
        [(("computers", 0, "id"), -1), (("routers", 0, "lambdas", 0, "destinations"), [-1])],
        [(("computers", 0, "id"), -1), (("routers", 0, "lambdas", 0, "destinations"), (-1,))],
        "computer -1: id must be a non-negative int, got -1",
    ),
    "kind-not-a-policy-kind": (
        [(("policy", "kind"), "fifo")],
        [(("policy", "kind"), "rr")],
        "policy.kind: must be a PolicyKind, got 'rr'",
    ),
    "workers-not-an-int": (
        [(("computers", 0, "workers"), 1.5)],
        [(("computers", 0, "workers"), 1.5)],
        "computer 0: workers must be an int of at least 1, got 1.5",
    ),
    "negative-router-id": (
        [(("routers", 0, "id"), -1), (("workload", 0, "router"), -1)],
        [(("routers", 0, "id"), -1), (("workload", 0, "router"), -1)],
        "router -1: id must be a non-negative int, got -1",
    ),
    "negative-lambda-id": (
        [(("routers", 0, "lambdas", 0, "id"), -1), (("workload", 0, "lambda"), -1)],
        [(("routers", 0, "lambdas", 0, "id"), -1), (("workload", 0, "lam"), -1)],
        "router 0 lambda -1: id must be a non-negative int, got -1",
    ),
    "float-router-id": (
        [(("routers", 0, "id"), 0.5), (("workload", 0, "router"), 0.5)],
        [(("routers", 0, "id"), 0.0), (("workload", 0, "router"), 0.0)],
        "router 0.0: id must be a non-negative int, got 0.0",
    ),
    "bool-computer-id": (
        [(("computers", 0, "id"), True)],
        [
            (("computers", 0, "id"), False),
            (("routers", 0, "links_us"), {False: 1000}),
            (("routers", 0, "lambdas", 0, "destinations"), (False,)),
        ],
        "computer False: id must be a non-negative int, got False",
    ),
    "float-lambda-reference": (
        [(("workload", 0, "lambda"), 0.5)],
        [(("workload", 0, "lam"), 0.0)],
        "workload router 0 lambda 0.0: lambda must be a non-negative int, got 0.0",
    ),
    "window-before-0": (
        [(("congestion",), [{"router": 0, "computer": 0, "start_ms": -1, "end_ms": 10}])],
        [(("congestion",), (CongestionWindow(0, 0, -1000, 10_000),))],
        "congestion router 0 computer 0: window starts before 0 us, at -1000 us",
    ),
    "window-not-after-start": (
        [(("congestion",), [{"router": 0, "computer": 0, "start_ms": 50, "end_ms": 50}])],
        [(("congestion",), (CongestionWindow(0, 0, 50_000, 50_000),))],
        "congestion router 0 computer 0: window must have start < end",
    ),
    "empty-name": ([(("name",), "")], [(("name",), "")], "name: must be a non-empty string, got ''"),
    "no-computers": ([(("computers",), [])], [(("computers",), ())], "computers: must not be empty"),
    "no-routers": ([(("routers",), [])], [(("routers",), ())], "routers: must not be empty"),
    "no-workload": ([(("workload",), [])], [(("workload",), ())], "workload: must not be empty"),
    "no-lambdas": (
        [(("routers", 0, "lambdas"), [])],
        [(("routers", 0, "lambdas"), ())],
        "router 0: no lambdas",
    ),
    "no-service-times": (
        [(("computers", 0, "service_ms"), {})],
        [(("computers", 0, "service_us"), {})],
        "computer 0: no service times",
    ),
    "rate-0": (
        [(("workload", 0, "rate_per_s"), 0)],
        [(("workload", 0, "rate_per_s"), 0.0)],
        "workload router 0 lambda 0: rate must be positive and finite, got 0.0",
    ),
    "negative-rate": (
        [(("workload", 0, "rate_per_s"), -1)],
        [(("workload", 0, "rate_per_s"), -1.0)],
        "workload router 0 lambda 0: rate must be positive and finite, got -1.0",
    ),
    "rate-above-max": (
        [(("workload", 0, "rate_per_s"), 1e23)],
        [(("workload", 0, "rate_per_s"), 1e23)],
        "workload router 0 lambda 0: rate must be at most 1000000 per second "
        "(a mean gap of 1 us), got 1e+23",
    ),
    "duration-0": ([(("duration_ms",), 0)], [(("duration_us",), 0)], "duration_ms: must be positive"),
    "negative-duration": ([(("duration_ms",), -1)], [(("duration_us",), -1000)], "duration_ms: must be positive"),
    "duration-past-2**52-us": (
        [(("duration_ms",), 5e12)],
        [(("duration_us",), 5 * 10**15)],
        f"duration_ms: must be below {2**52} us (2**52), got {5 * 10**15} us",
    ),
    "negative-seed": ([(("seed",), -1)], [(("seed",), -1)], "seed: must be a non-negative int, got -1"),
    "alpha-above-1": (
        [(("policy", "alpha"), 1.5)],
        [(("policy", "alpha"), 1.5)],
        "policy.alpha: must be in [0, 1], got 1.5",
    ),
    "negative-alpha": (
        [(("policy", "alpha"), -0.5)],
        [(("policy", "alpha"), -0.5)],
        "policy.alpha: must be in [0, 1], got -0.5",
    ),
    "negative-beta": (
        [(("computers", 0, "beta"), -0.5)],
        [(("computers", 0, "beta"), -0.5)],
        "computer 0: beta must be finite and non-negative, got -0.5",
    ),
    "beta-past-the-float-range": (
        [(("computers", 0, "beta"), 1e306)],
        [(("computers", 0, "beta"), 1e306)],
        "computer 0: beta must leave service_us * (1 + beta) finite, got 1e+306",
    ),
    "retry-rounds-to-0-us": (
        [(("policy", "retry_ms"), 0.0001)],
        [(("policy", "retry_us"), 0)],
        "policy.retry_ms: must be at least 0.001 ms (1 us) after rounding",
    ),
    # doubling a 0 us backoff never moves it
    "backoff-rounds-to-0-us": (
        [(("policy", "b_min_ms"), 0.0004)],
        [(("policy", "b_min_us"), 0)],
        "policy.b_min_ms: must be at least 0.001 ms (1 us) after rounding",
    ),
    "service-time-rounds-to-0-us": (
        [(("computers", 0, "service_ms"), {0: 0.0001})],
        [(("computers", 0, "service_us"), {0: 0})],
        "computer 0 service_ms for lambda 0: must be at least 0.001 ms (1 us) after rounding",
    ),
    "negative-link": (
        [(("routers", 0, "links_ms"), {0: -1})],
        [(("routers", 0, "links_us"), {0: -1000})],
        "router 0: negative link latency to 0",
    ),
}
SHAPE_CASES = {
    "kind-not-a-policy-kind",
    "workers-not-an-int",
    "float-router-id",
    "bool-computer-id",
    "float-lambda-reference",
}


@pytest.mark.parametrize("case", VALUE_RULES)
def test_a_value_rule_holds_for_documents_and_code_built_scenarios(case):
    doc_edits, code_edits, words = VALUE_RULES[case]
    doc = tiny_doc()
    for path, value in doc_edits:
        set_in(doc, path, value)
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    if case in SHAPE_CASES:
        where = "/".join(map(str, doc_edits[0][0]))
        assert any(p.startswith(where) for p in info.value.problems), info.value.problems
    else:
        assert words in info.value.problems
    scenario = tiny_scenario()
    for path, value in code_edits:
        scenario = replaced(scenario, path, value)
    assert words in semantic_problems(scenario)
    with pytest.raises(InvalidScenario):
        run(scenario)


def test_the_largest_worker_count_passes_validation():
    scenario = replaced(tiny_scenario(), ("computers", 0, "workers"), MAX_WORKERS)
    assert semantic_problems(scenario) == []


KEY_RULE = "is not an id written as '0|[1-9][0-9]*'"


@pytest.mark.parametrize(
    "path, keys, problems",
    [
        (
            ("routers", 0, "links_ms"),
            {"0": 1, "0\n": 50, "00": 7},
            [f"routers/0/links_ms: key '0\\n' {KEY_RULE}", f"routers/0/links_ms: key '00' {KEY_RULE}"],
        ),
        (("routers", 0, "links_ms"), {0: 1, "0": 50}, ["routers/0/links_ms: keys 0 and '0' name one id"]),
        (("computers", 0, "service_ms"), {"0": 5, "01": 5}, [f"computers/0/service_ms: key '01' {KEY_RULE}"]),
    ],
    ids=["newline-and-leading-zero", "int-and-string", "service-leading-zero"],
)
def test_an_id_key_writes_its_id_one_way(path, keys, problems):
    # each key matches the schema's '^[0-9]+$' under re.search, and int()
    # reads each as an id: keys written apart could name one id, and the
    # last one would win
    doc = tiny_doc()
    set_in(doc, path, keys)
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert info.value.problems == problems


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


def test_a_duration_that_is_not_a_bounded_int_is_refused():
    # simnet.run on an infinite duration would never stop issuing
    line = load_scenario("line")
    assert semantic_problems(line.with_overrides(duration_us=float("inf"))) == [
        "duration_us: must be an int of microseconds, got inf"
    ]
    assert semantic_problems(line.with_overrides(duration_us=1000.0)) == [
        "duration_us: must be an int of microseconds, got 1000.0"
    ]
    assert semantic_problems(line.with_overrides(duration_us=2**52)) == [
        f"duration_ms: must be below {2**52} us (2**52), got {2**52} us"
    ]
    assert semantic_problems(line.with_overrides(duration_us=2**52 - 1)) == []


@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_a_seed_that_is_not_a_non_negative_int_is_refused(seed):
    # random.Random(-1) seeds as Random(1), so -1 would rerun seed 1 unnoticed
    line = load_scenario("line")
    assert semantic_problems(line.with_overrides(seed=seed)) == [
        f"seed: must be a non-negative int, got {seed!r}"
    ]
    assert semantic_problems(line.with_overrides(seed=0)) == []


def test_a_rate_above_one_issue_per_microsecond_is_refused():
    # At 1e23 per second each Poisson gap is far below half the float
    # accumulator's spacing, so the stream stops at one time and never ends.
    doc = tiny_doc()
    doc["workload"][0]["rate_per_s"] = 1e23
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert info.value.problems == [
        "workload router 0 lambda 0: rate must be at most 1000000 per second "
        "(a mean gap of 1 us), got 1e+23"
    ]
    doc["workload"][0]["rate_per_s"] = 1e6
    assert scenario_from_mapping(doc).workload[0].rate_per_s == 1e6


def test_semantic_problems_collects_everything():
    s = tiny_scenario()
    broken = dataclasses.replace(s, duration_us=0)
    assert semantic_problems(broken) == ["duration_ms: must be positive"]
    assert isinstance(s, Scenario)
    assert semantic_problems(s) == []


def test_report_keeps_the_first_ten_problems_by_path():
    # 11 shape errors over 11 paths; the report keeps the first ten by path.
    # The value errors (id -1, workers 0, alpha 1.5, no service times, a
    # negative link) are not reported: the shape is checked first.
    doc = tiny_doc(
        name=5,
        duration_ms="0",
        seed=-0.5,
        runtime="forever",
        policy={"kind": "fifo", "alpha": 1.5, "retry_ms": True},
        congestion=[{"router": 0, "computer": 0, "start_ms": "a", "end_ms": 10}],
    )
    doc["computers"].append({"id": -1, "workers": 0, "beta": "x", "service_ms": {}})
    doc["routers"][0]["links_ms"] = {"x": 1, 0: -2}
    doc["routers"][0]["lambdas"][0]["destinations"] = [0, "1"]
    doc["workload"][0]["process"] = 7
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    assert info.value.problems == [
        "(top level): Additional properties are not allowed ('runtime' was unexpected)",
        "computers/1/beta: 'x' is not of type 'number'",
        "congestion/0/start_ms: 'a' is not of type 'number'",
        "duration_ms: '0' is not of type 'number'",
        "name: 5 is not of type 'string'",
        "policy/kind: 'fifo' is not one of ['li', 'rp', 'rr']",
        "policy/retry_ms: True is not of type 'number'",
        "routers/0/lambdas/0/destinations/1: '1' is not of type 'integer'",
        f"routers/0/links_ms: key 'x' {KEY_RULE}",
        "seed: -0.5 is not of type 'integer'",
    ]
    assert len(list(Draft7Validator(SCHEMA).iter_errors(string_keys(doc)))) == 11


def refusal(doc):
    """The problems ``scenario_from_mapping`` refuses ``doc`` with."""
    with pytest.raises(InvalidScenario) as info:
        scenario_from_mapping(doc)
    return info.value.problems


def test_shape_check_follows_draft_7():
    doc = tiny_doc()
    # an integral float is an integer, and loads as an int
    doc["computers"][0]["workers"] = 2.0
    workers = scenario_from_mapping(doc).computers[0].workers
    assert workers == 2 and type(workers) is int
    # a bool is neither an integer nor a number
    doc["computers"][0]["workers"] = True
    doc["computers"][0]["beta"] = False
    assert refusal(doc) == [
        "computers/0/beta: False is not of type 'number'",
        "computers/0/workers: True is not of type 'integer'",
    ]
    # the shape states no value rule: these are the semantic pass's, in the
    # words it gives the same scenario built in code
    doc = tiny_doc(name="", seed=-1, computers=[])
    doc["workload"][0].update(process="bursty", rate_per_s=0)
    twin = tiny_scenario()
    for path, value in [
        (("name",), ""),
        (("seed",), -1),
        (("computers",), ()),
        (("workload", 0, "process"), "bursty"),
        (("workload", 0, "rate_per_s"), 0.0),
    ]:
        twin = replaced(twin, path, value)
    assert refusal(doc) == semantic_problems(twin) != []
    # required and unknown keys sit at the object's path; a links_ms key
    # must write an id, one fault per key
    doc = tiny_doc()
    del doc["routers"][0]["lambdas"][0]["id"]
    doc["routers"][0]["lambdas"][0]["weight"] = 1
    doc["routers"][0]["links_ms"].update({"1": 2, "a1": 2, "2b": 2})
    assert refusal(doc) == [
        "routers/0/lambdas/0: 'id' is a required property",
        "routers/0/lambdas/0: Additional properties are not allowed ('weight' was unexpected)",
        f"routers/0/links_ms: key 'a1' {KEY_RULE}",
        f"routers/0/links_ms: key '2b' {KEY_RULE}",
    ]


def as_tuples(value):
    """A copy of a document as code may build it: every list a tuple."""
    if isinstance(value, dict):
        return {key: as_tuples(item) for key, item in value.items()}
    if isinstance(value, list):
        return tuple(as_tuples(item) for item in value)
    return value


@pytest.mark.parametrize(
    "doc", [tiny_doc(), fanout_doc(7), *BUILTIN_DOCS], ids=["tiny", "fanout-7", "line", "ring-tree"]
)
def test_a_mapping_built_in_code_may_use_tuples_and_int_keys(doc):
    # the document as JSON gives it (string keys, lists) and its twin built
    # in code (int keys, every list a tuple) load to one scenario
    as_json = json.loads(json.dumps(doc))
    assert "0" in as_json["routers"][0]["links_ms"]
    assert scenario_from_mapping(as_tuples(doc)) == scenario_from_mapping(as_json)


def assert_every_id_key_names_an_entry(doc):
    """Each service_ms and links_ms key of a loaded document names its own
    entry of the scenario, in microseconds: none is lost or merged."""
    scenario = scenario_from_mapping(doc)
    pairs = [(c["service_ms"], s.service_us) for c, s in zip(doc["computers"], scenario.computers)]
    pairs += [(r["links_ms"], s.links_us) for r, s in zip(doc["routers"], scenario.routers)]
    assert len(pairs) == len(doc["computers"]) + len(doc["routers"])
    for given, loaded in pairs:
        assert len(loaded) == len(given)
        for key, ms in given.items():
            assert loaded[int(key)] == from_ms(ms)


@settings(max_examples=60)
@given(doc=scenario_docs())
def test_every_key_of_a_loaded_document_names_an_entry(doc):
    assert_every_id_key_names_an_entry(doc)
    assert_every_id_key_names_an_entry(string_keys(doc))


@pytest.mark.parametrize("doc", [*BUILTIN_DOCS, fanout_doc(7)], ids=["line", "ring-tree", "fanout-7"])
def test_every_key_of_a_shipped_document_names_an_entry(doc):
    assert_every_id_key_names_an_entry(doc)


VALID_SEEDS = st.one_of(
    scenario_docs(),
    st.sampled_from(BUILTIN_DOCS + [fanout_doc(3, computers=6), tiny_doc()]),
)
# Bools, and values at and past the value rules' bounds (0 and 1).
BOUND_VALUES = [True, False, -0.5, 0, 0.0, 0.5, 1, 1.0, 1.5]
# Numbers whose microsecond value, or a service time scaled by 1 + beta, is
# past the float range.
FAR_VALUES = [1.0e306, -1.0e306]
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


MUTATIONS = ("drop", "retype", "bound", "far", "add")


@st.composite
def mutated_docs(draw, ops=MUTATIONS):
    """A valid document with 1-5 mutations drawn from ``ops``: a key dropped,
    a value replaced by a wrong type or an empty, a number replaced by a
    bool, a value at or past a bound or one near the ends of the float
    range, or an extra property added."""
    doc = copy.deepcopy(string_keys(draw(VALID_SEEDS)))
    for _ in range(draw(st.integers(1, 5))):
        tree = list(nodes(doc))
        op = draw(st.sampled_from(ops))
        if op == "add":
            _, node = draw(st.sampled_from([(p, n) for p, n in tree if isinstance(n, dict)]))
            node[draw(st.sampled_from(EXTRA_KEYS))] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
            continue
        if op in ("bound", "far"):
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
            values = {"bound": BOUND_VALUES, "far": FAR_VALUES}.get(op, ODD_VALUES)
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(values)))
    return doc


# The id maps, by the array they sit in, and how their keys write an id.
ID_MAPS = {("computers", "service_ms"), ("routers", "links_ms")}
ID_KEY = re.compile("0|[1-9][0-9]*")


def under_a_bad_id_key(path):
    """Whether ``path`` is, or is under, a key of an id map that does not
    write an id."""
    return len(path) > 3 and (path[0], path[2]) in ID_MAPS and not ID_KEY.fullmatch(str(path[3]))


def bad_id_keys(doc):
    """How many keys of a document's id maps do not write an id."""
    return sum(
        not ID_KEY.fullmatch(str(key))
        for path, node in nodes(doc)
        if len(path) == 3 and (path[0], path[2]) in ID_MAPS and isinstance(node, dict)
        for key in node
    )


# Far values alone keep the shape, so half the documents reach conversion
# with a number near the ends of the float range.
@settings(max_examples=300)
@given(doc=mutated_docs() | mutated_docs(ops=("far",)))
def test_shape_check_agrees_with_draft7_validator(doc):
    # Bad id keys are the one stated difference. Draft 7 searches each key
    # for '^[0-9]+$', names those that fail in one fault per map and reads
    # the values of those that pass ("7\n" among them); the read fullmatches
    # each key, names each bad key apart and reads no value under one.
    expected = sorted(
        (
            (tuple(e.absolute_path), e.message)
            for e in Draft7Validator(SCHEMA).iter_errors(doc)
            if "does not match any of the regexes" not in e.message
            and not under_a_bad_id_key(tuple(e.absolute_path))
        ),
        key=lambda e: e[0],
    )
    bad_keys = bad_id_keys(doc)
    # A document loads or is refused by name; nothing else escapes.
    try:
        scenario_from_mapping(doc)
    except InvalidScenario as exc:
        problems = exc.problems
    else:
        assert not expected and not bad_keys
        return
    if expected or bad_keys:
        # the shape's findings by path, among those of bad keys and numbers
        # past the float range, the first ten of them all
        rendered = [
            f"{'/'.join(map(str, path)) or '(top level)'}: {message}" for path, message in expected
        ]
        shape = [p for p in problems if "finite number" not in p and KEY_RULE not in p]
        assert shape == rendered[: len(shape)]
        assert len(problems) == 10 or (
            shape == rendered and sum(KEY_RULE in p for p in problems) == bad_keys
        )


@settings(max_examples=60)
@given(doc=scenario_docs())
def test_drawn_documents_load_and_their_delays_sum_to_the_latency(doc):
    result = run(scenario_from_mapping(doc))
    for row in result.completed:
        assert row.transfer_us + row.queue_us + row.processing_us == row.latency_us
