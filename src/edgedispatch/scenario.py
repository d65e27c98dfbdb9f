"""Scenario files: topology, workload, policy config, congestion schedule.

Scenarios are YAML documents checked against a JSON schema first (shape) and
then against semantic rules the schema cannot express (cross-references,
non-empty destination sets). ``schemas/scenario.schema.json`` is the one
statement of the shape. It is checked by a small interpreter of the JSON
Schema draft 7 keywords that file uses, with draft 7's semantics and
jsonschema's messages; a keyword outside that subset is refused when the
schema is compiled, so none is silently ignored. Two ready-made scenarios
ship with the package and can be addressed by name wherever a path is
accepted.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import operator
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import yaml

from .core import US_PER_MS, from_ms, string_keys, to_ms
from .estimator import DEFAULT_ALPHA
from .policy import DEFAULT_B_MIN_US, PolicyKind

DEFAULT_RETRY_US = 50 * US_PER_MS

_BUILTINS = {"line": "line.yaml", "ring-tree": "ring_tree.yaml"}


class InvalidScenario(Exception):
    """Scenario rejected; ``problems`` lists field-level diagnostics."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class PolicyConfig:
    kind: PolicyKind = PolicyKind.ROUND_ROBIN
    alpha: float = DEFAULT_ALPHA
    b_min_us: int = DEFAULT_B_MIN_US
    retry_us: int = DEFAULT_RETRY_US


@dataclass(frozen=True)
class ComputerSpec:
    id: int
    workers: int
    beta: float
    service_us: dict[int, int]  # lambda -> base service time


@dataclass(frozen=True)
class LambdaSpec:
    id: int
    destinations: tuple[int, ...]


@dataclass(frozen=True)
class RouterSpec:
    id: int
    links_us: dict[int, int]  # computer -> one-way latency
    lambdas: tuple[LambdaSpec, ...]


@dataclass(frozen=True)
class WorkloadSpec:
    router: int
    lam: int
    process: str  # "poisson" or "deterministic"
    rate_per_s: float
    client_link_us: int


@dataclass(frozen=True)
class CongestionWindow:
    router: int
    computer: int
    start_us: int
    end_us: int


@dataclass(frozen=True)
class Scenario:
    name: str
    duration_us: int
    seed: int
    policy: PolicyConfig
    computers: tuple[ComputerSpec, ...]
    routers: tuple[RouterSpec, ...]
    workload: tuple[WorkloadSpec, ...]
    congestion: tuple[CongestionWindow, ...]

    def with_overrides(
        self,
        policy_kind: PolicyKind | None = None,
        seed: int | None = None,
        duration_us: int | None = None,
    ) -> "Scenario":
        out = self
        if policy_kind is not None:
            out = dataclasses.replace(
                out, policy=dataclasses.replace(out.policy, kind=policy_kind)
            )
        if seed is not None:
            out = dataclasses.replace(out, seed=seed)
        if duration_us is not None:
            out = dataclasses.replace(out, duration_us=duration_us)
        return out


# A shape check: called with a value, the path to it as a tuple of keys and
# indices, and a list to which it appends each (path, message) it finds.
_Check = Callable[[object, tuple, list], None]

_IS_TYPE: dict[str, Callable[[object], bool]] = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    # draft 7: an integral float such as 1.0 is an integer; a bool is not
    "integer": lambda v: (
        not isinstance(v, bool) and isinstance(v, int)
        or isinstance(v, float) and v.is_integer()
    ),
    "null": lambda v: v is None,
    "number": lambda v: not isinstance(v, bool) and isinstance(v, numbers.Number),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}
_is_number = _IS_TYPE["number"]


def _type(name: str, schema: dict) -> _Check:
    if not isinstance(name, str) or name not in _IS_TYPE:
        raise ValueError(f"schema type {name!r} is not implemented")
    is_type = _IS_TYPE[name]

    def check(value, path, found):
        if not is_type(value):
            found.append((path, f"{value!r} is not of type {name!r}"))

    return check


def _properties(subschemas: dict, schema: dict) -> _Check:
    checks = {key: _compile(sub) for key, sub in subschemas.items()}

    def check(value, path, found):
        if isinstance(value, dict):
            for key, sub in checks.items():
                if key in value:
                    sub(value[key], path + (key,), found)

    return check


def _pattern_properties(subschemas: dict, schema: dict) -> _Check:
    checks = [(re.compile(p).search, _compile(sub)) for p, sub in subschemas.items()]

    def check(value, path, found):
        if isinstance(value, dict):
            for search, sub in checks:
                for key, item in value.items():
                    if search(key):
                        sub(item, path + (key,), found)

    return check


def _additional_properties(allowed, schema: dict) -> _Check:
    if allowed is not False:
        raise ValueError("additionalProperties: only false is implemented")
    named = schema.get("properties", {})
    patterns = schema.get("patternProperties", {})
    search = re.compile("|".join(patterns)).search if patterns else lambda key: None

    def check(value, path, found):
        if not isinstance(value, dict):
            return
        extras = sorted((k for k in value if k not in named and not search(k)), key=str)
        if not extras:
            return
        keys = ", ".join(repr(k) for k in extras)
        if patterns:
            verb = "does" if len(extras) == 1 else "do"
            regexes = ", ".join(repr(p) for p in sorted(patterns))
            found.append((path, f"{keys} {verb} not match any of the regexes: {regexes}"))
        else:
            verb = "was" if len(extras) == 1 else "were"
            found.append((path, f"Additional properties are not allowed ({keys} {verb} unexpected)"))

    return check


def _required(names: list, schema: dict) -> _Check:
    def check(value, path, found):
        if isinstance(value, dict):
            for name in names:
                if name not in value:
                    found.append((path, f"{name!r} is a required property"))

    return check


def _items(subschema, schema: dict) -> _Check:
    if not isinstance(subschema, dict):
        raise ValueError("items: only a single schema is implemented")
    sub = _compile(subschema)

    def check(value, path, found):
        if isinstance(value, list):
            for index, item in enumerate(value):
                sub(item, path + (index,), found)

    return check


def _enum(members: list, schema: dict) -> _Check:
    # Draft 7's enum tells True from 1; ``in`` agrees with it for strings.
    if not all(isinstance(m, str) for m in members):
        raise ValueError("enum: only string members are implemented")

    def check(value, path, found):
        if value not in members:
            found.append((path, f"{value!r} is not one of {members!r}"))

    return check


def _bound(fails: Callable[[object, object], bool], words: str):
    def keyword(limit, schema: dict) -> _Check:
        def check(value, path, found):
            if _is_number(value) and fails(value, limit):
                found.append((path, f"{value!r} is {words} {limit!r}"))

        return check

    return keyword


def _min_size(is_type: Callable[[object], bool], too_small: str):
    def keyword(least: int, schema: dict) -> _Check:
        words = "should be non-empty" if least == 1 else too_small

        def check(value, path, found):
            if is_type(value) and len(value) < least:
                found.append((path, f"{value!r} {words}"))

        return check

    return keyword


# Each implemented keyword, building its check from its value and the
# schema it sits in. Each check passes over a value of another type, so one
# value can fail several keywords at one path, as in draft 7.
_KEYWORDS: dict[str, Callable[[object, dict], _Check]] = {
    "type": _type,
    "properties": _properties,
    "patternProperties": _pattern_properties,
    "additionalProperties": _additional_properties,
    "required": _required,
    "items": _items,
    "enum": _enum,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "minItems": _min_size(_IS_TYPE["array"], "is too short"),
    "minProperties": _min_size(_IS_TYPE["object"], "does not have enough properties"),
    "minLength": _min_size(_IS_TYPE["string"], "is too short"),
}
_ANNOTATIONS = frozenset({"$schema", "title"})


def _compile(schema: dict) -> _Check:
    checks = []
    for keyword, value in schema.items():
        if keyword in _ANNOTATIONS:
            continue
        if keyword not in _KEYWORDS:
            raise ValueError(f"schema keyword {keyword!r} is not implemented")
        checks.append(_KEYWORDS[keyword](value, schema))

    def check(value, path, found):
        for each in checks:
            each(value, path, found)

    return check


def compile_schema(schema: dict) -> Callable[[object], list[tuple[tuple, str]]]:
    """A function that lists every (path, message) a document fails against
    ``schema``, in the schema's order; a path is a tuple of keys and indices.

    Raises ValueError on a keyword, or a form of one, outside the subset.
    """
    check = _compile(schema)

    def errors(doc) -> list[tuple[tuple, str]]:
        found: list[tuple[tuple, str]] = []
        check(doc, (), found)
        return found

    return errors


@functools.cache
def _scenario_errors() -> Callable[[object], list[tuple[tuple, str]]]:
    """The scenario schema, read and compiled once per process."""
    text = resources.files("edgedispatch").joinpath("schemas/scenario.schema.json")
    return compile_schema(json.loads(text.read_text(encoding="utf-8")))


def scenario_from_mapping(doc) -> Scenario:
    """Build and fully validate a Scenario from a parsed YAML/JSON mapping."""
    if not isinstance(doc, dict):
        raise InvalidScenario(["scenario document must be a mapping"])
    # YAML happily parses {0: 5} with an integer key; JSON schema only talks
    # about string properties, so keys are normalized before validation.
    doc = string_keys(doc)
    schema_errors = sorted(_scenario_errors()(doc), key=lambda e: e[0])
    if schema_errors:
        problems = []
        for path, message in schema_errors[:10]:
            where = "/".join(str(p) for p in path) or "(top level)"
            problems.append(f"{where}: {message}")
        raise InvalidScenario(problems)

    policy_doc = doc.get("policy", {})
    policy = PolicyConfig(
        kind=PolicyKind(policy_doc.get("kind", "rr")),
        alpha=float(policy_doc.get("alpha", DEFAULT_ALPHA)),
        b_min_us=from_ms(policy_doc.get("b_min_ms", to_ms(DEFAULT_B_MIN_US))),
        retry_us=from_ms(policy_doc.get("retry_ms", to_ms(DEFAULT_RETRY_US))),
    )
    # Draft 7 takes an integral float such as 0.0 as an integer; int() keeps
    # it from reaching the trace as "0.0", which read_trace would refuse.
    computers = tuple(
        ComputerSpec(
            id=int(c["id"]),
            workers=int(c.get("workers", 1)),
            beta=float(c.get("beta", 0.0)),
            service_us={int(k): from_ms(v) for k, v in c["service_ms"].items()},
        )
        for c in doc["computers"]
    )
    routers = tuple(
        RouterSpec(
            id=int(r["id"]),
            links_us={int(k): from_ms(v) for k, v in r["links_ms"].items()},
            lambdas=tuple(
                LambdaSpec(id=int(l["id"]), destinations=tuple(map(int, l["destinations"])))
                for l in r["lambdas"]
            ),
        )
        for r in doc["routers"]
    )
    workload = tuple(
        WorkloadSpec(
            router=int(w["router"]),
            lam=int(w["lambda"]),
            process=w["process"],
            rate_per_s=float(w["rate_per_s"]),
            client_link_us=from_ms(w.get("client_link_ms", 0)),
        )
        for w in doc["workload"]
    )
    congestion = tuple(
        CongestionWindow(
            router=int(c["router"]),
            computer=int(c["computer"]),
            start_us=from_ms(c["start_ms"]),
            end_us=from_ms(c["end_ms"]),
        )
        for c in doc.get("congestion", [])
    )
    scenario = Scenario(
        name=doc["name"],
        duration_us=from_ms(doc["duration_ms"]),
        seed=int(doc.get("seed", 0)),
        policy=policy,
        computers=computers,
        routers=routers,
        workload=workload,
        congestion=congestion,
    )
    ensure_valid(scenario)
    return scenario


def semantic_problems(s: Scenario) -> list[str]:
    """Cross-reference and range checks beyond the schema's reach."""
    problems: list[str] = []
    if s.duration_us <= 0:
        problems.append("duration_ms: must be positive")
    # The schema checks milliseconds; a positive value can still round to
    # 0 us, and a zero retry, backoff or service time never advances time.
    durations = [
        ("policy.retry_ms", s.policy.retry_us),
        ("policy.b_min_ms", s.policy.b_min_us),
    ] + [
        (f"computer {c.id} service_ms for lambda {lam}", us)
        for c in s.computers
        for lam, us in c.service_us.items()
    ]
    for field, us in durations:
        if us < 1:
            problems.append(f"{field}: must be at least 0.001 ms (1 us) after rounding")
    computer_ids = [c.id for c in s.computers]
    if len(computer_ids) != len(set(computer_ids)):
        problems.append("computers: duplicate id")
    router_ids = [r.id for r in s.routers]
    if len(router_ids) != len(set(router_ids)):
        problems.append("routers: duplicate id")
    known_computers = set(computer_ids)
    by_computer = {c.id: c for c in s.computers}
    for r in s.routers:
        lam_ids = [l.id for l in r.lambdas]
        if len(lam_ids) != len(set(lam_ids)):
            problems.append(f"router {r.id}: duplicate lambda id")
        for link_dest, latency in r.links_us.items():
            if link_dest not in known_computers:
                problems.append(f"router {r.id}: link to unknown computer {link_dest}")
            if latency < 0:
                problems.append(f"router {r.id}: negative link latency to {link_dest}")
        for l in r.lambdas:
            if not l.destinations:
                problems.append(
                    f"router {r.id} lambda {l.id}: empty destination set"
                )
            if len(l.destinations) != len(set(l.destinations)):
                problems.append(f"router {r.id} lambda {l.id}: duplicate destination")
            for d in l.destinations:
                if d not in known_computers:
                    problems.append(
                        f"router {r.id} lambda {l.id}: unknown destination {d}"
                    )
                    continue
                if d not in r.links_us:
                    problems.append(
                        f"router {r.id} lambda {l.id}: no link to destination {d}"
                    )
                if l.id not in by_computer[d].service_us:
                    problems.append(
                        f"computer {d}: no service time for lambda {l.id}"
                    )
    served = {(r.id, l.id) for r in s.routers for l in r.lambdas}
    for w in s.workload:
        if (w.router, w.lam) not in served:
            problems.append(
                f"workload: router {w.router} does not serve lambda {w.lam}"
            )
        if w.rate_per_s <= 0:
            problems.append(
                f"workload router {w.router} lambda {w.lam}: rate must be positive"
            )
    for c in s.congestion:
        if c.router not in set(router_ids):
            problems.append(f"congestion: unknown router {c.router}")
        if c.computer not in known_computers:
            problems.append(f"congestion: unknown computer {c.computer}")
        if not c.start_us < c.end_us:
            problems.append(
                f"congestion router {c.router} computer {c.computer}: "
                "window must have start < end"
            )
    # Toggles are not reference-counted: the clear of one window would lift
    # the blackout while an overlapping window on the same pair is still
    # open. Touching windows (end == start) are fine, the clear fires first.
    windows = sorted(s.congestion, key=lambda w: (w.router, w.computer, w.start_us))
    for a, b in zip(windows, windows[1:]):
        if (a.router, a.computer) == (b.router, b.computer) and b.start_us < a.end_us:
            problems.append(
                f"congestion router {a.router} computer {a.computer}: windows "
                f"{to_ms(a.start_us)}-{to_ms(a.end_us)} ms and "
                f"{to_ms(b.start_us)}-{to_ms(b.end_us)} ms overlap"
            )
    return problems


def ensure_valid(s: Scenario) -> None:
    problems = semantic_problems(s)
    if problems:
        raise InvalidScenario(problems)


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario by built-in name ('line', 'ring-tree') or file path."""
    name = str(source)
    if name in _BUILTINS:
        text = (
            resources.files("edgedispatch")
            .joinpath(f"scenarios/{_BUILTINS[name]}")
            .read_text(encoding="utf-8")
        )
    else:
        path = Path(source)
        if not path.exists():
            raise InvalidScenario(
                [f"no scenario named {name!r} (built-ins: {', '.join(builtin_names())}) "
                 "and no such file"]
            )
        text = path.read_text(encoding="utf-8")
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise InvalidScenario([f"not valid YAML: {exc}"]) from exc
    return scenario_from_mapping(doc)
