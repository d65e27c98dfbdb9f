"""Scenario files: topology, workload, policy config, congestion schedule.

Scenarios are YAML documents. ``schemas/scenario.schema.json`` states their
shape and nothing more: types, required and unknown keys, the id-key
patterns and the policy kinds, which is what conversion to a ``Scenario``
needs. ``semantic_problems`` states every value rule once, in microseconds,
for documents and for scenarios built in code alike: bounds, rounding,
cross-references, duplicates and the process names. The schema is checked
by a small interpreter of the JSON Schema draft 7 keywords that file uses,
with draft 7's semantics and jsonschema's messages; a keyword outside that
subset, a numeric or size bound included, is refused when the schema is
compiled, so none is silently ignored. A number whose float, or whose
microsecond value under an ``_ms`` key, is not finite cannot be converted;
it is refused by path alongside the schema's findings. A document that
passes both has its id keys checked last, on its keys as given, before
``str`` merges an int ``0`` with a string ``"0"``: a ``service_ms`` or
``links_ms`` key must write its id the one canonical way,
``0|[1-9][0-9]*`` under ``fullmatch`` (the schema's ``^[0-9]+$`` is a
``search``, and ``$`` also matches before a final newline), and no two keys
of one map may name one id. Otherwise ``"0"``, ``"0\\n"`` and ``"00"`` would
all load as id 0, the last one winning. Two ready-made
scenarios ship with the package and can be addressed by name wherever a
path is accepted.

Every scenario that passes validation terminates. A run issues requests
until the duration, so validation bounds both ends of that loop: each
workload's rate is at most ``MAX_RATE_PER_S`` (10**6 per second, a mean
gap of at least 1 us between issues), and the duration is an ``int`` of
microseconds in ``[1, MAX_DURATION_US)``, below 2**52 us, where the float
accumulator of a Poisson stream still resolves a microsecond (its spacing
is at most 0.5 us there) and so keeps advancing by its gaps. A finite rate
far above the bound, such as 1e23 per second, gives gaps below half the
accumulator's spacing, which then stops and issues forever at one time.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
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
# The bounds that make every valid run terminate (module docstring).
MAX_RATE_PER_S = 1_000_000
MAX_DURATION_US = 2**52
# A computer keeps one int per worker, and a load count under beta scans
# them at every start.
MAX_WORKERS = 10_000
# How a service_ms or links_ms key writes its id.
_ID_KEY = re.compile("0|[1-9][0-9]*")

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
    # draft 7: an integral float such as 1.0 is an integer; a bool is not
    "integer": lambda v: (
        not isinstance(v, bool) and isinstance(v, int)
        or isinstance(v, float) and v.is_integer()
    ),
    "number": lambda v: not isinstance(v, bool) and isinstance(v, numbers.Number),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}


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


def _finite(value, scale=1) -> bool:
    """Whether ``value * scale`` is a finite float (an int past its range is not)."""
    try:
        return math.isfinite(value * scale)
    except OverflowError:
        return False


def finite_problem(value, scale: int = 1) -> str | None:
    """Why a number cannot be converted, or None: its float is not finite,
    or, at ``scale`` ``US_PER_MS``, its microsecond value is not."""
    if not _finite(value):
        return f"{value!r} is not a finite number"
    if not _finite(value, scale):
        return f"{value!r} ms is not a finite number of microseconds"
    return None


def _non_finite(value, path: tuple = (), scale: int = 1) -> list[tuple[tuple, str]]:
    """(path, message) for each number of a document that ``finite_problem``
    refuses, at scale ``US_PER_MS`` under a key that ends in ``_ms``. Draft 7
    has no word for these, so this pass names them."""
    if isinstance(value, (int, float)):
        problem = finite_problem(value, scale)
        return [(path, problem)] if problem else []
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [
        found
        for key, item in items
        for found in _non_finite(item, path + (key,), US_PER_MS if str(key).endswith("_ms") else scale)
    ]


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
    given, doc = doc, string_keys(doc)
    schema_errors = sorted(_scenario_errors()(doc) + _non_finite(doc), key=lambda e: e[0])
    if schema_errors:
        problems = []
        for path, message in schema_errors[:10]:
            where = "/".join(str(p) for p in path) or "(top level)"
            problems.append(f"{where}: {message}")
        raise InvalidScenario(problems)
    key_problems = _id_key_problems(given)
    if key_problems:
        raise InvalidScenario(key_problems)

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


def _id_key_problems(doc: dict) -> list[str]:
    """Each ``service_ms`` or ``links_ms`` key of a document that passed the
    shape check, taken as given, that does not write an id the canonical
    way, and each key that names the same id as an earlier one."""
    maps = [(f"computers/{i}/service_ms", c["service_ms"]) for i, c in enumerate(doc["computers"])]
    maps += [(f"routers/{i}/links_ms", r["links_ms"]) for i, r in enumerate(doc["routers"])]
    problems = []
    for where, keys in maps:
        named = {}
        for key in keys:
            text = str(key)
            if not _ID_KEY.fullmatch(text):
                problems.append(f"{where}: key {key!r} is not an id written as {_ID_KEY.pattern!r}")
            elif text in named:
                problems.append(f"{where}: keys {named[text]!r} and {key!r} name one id")
            else:
                named[text] = key
    return problems


def _ids(s: Scenario):
    """Every id a scenario holds or refers to, with where it sits as a
    ``%`` template and its arguments, formatted only for a bad id."""
    for c in s.computers:
        yield c.id, "computer %r: id", (c.id,)
        for lam in c.service_us:
            yield lam, "computer %r: service lambda", (c.id,)
    for r in s.routers:
        yield r.id, "router %r: id", (r.id,)
        for computer in r.links_us:
            yield computer, "router %r: link computer", (r.id,)
        for l in r.lambdas:
            yield l.id, "router %r lambda %r: id", (r.id, l.id)
            for d in l.destinations:
                yield d, "router %r lambda %r: destination", (r.id, l.id)
    for w in s.workload:
        yield w.router, "workload router %r lambda %r: router", (w.router, w.lam)
        yield w.lam, "workload router %r lambda %r: lambda", (w.router, w.lam)
    for c in s.congestion:
        yield c.router, "congestion router %r computer %r: router", (c.router, c.computer)
        yield c.computer, "congestion router %r computer %r: computer", (c.router, c.computer)


def semantic_problems(s: Scenario) -> list[str]:
    """Every value rule a run relies on, in microseconds, stated once for a
    document (after its shape check and conversion) and for a scenario built
    or replaced in code: ids, worker counts, service, link and window bounds,
    rounding, the process and policy kinds, the non-empty name and lists,
    and the cross-references between them.
    """
    problems: list[str] = []
    if type(s.name) is not str or not s.name:
        problems.append(f"name: must be a non-empty string, got {s.name!r}")
    for part in ("computers", "routers", "workload"):
        if not getattr(s, part):
            problems.append(f"{part}: must not be empty")
    if not isinstance(s.policy.kind, PolicyKind):
        problems.append(f"policy.kind: must be a PolicyKind, got {s.policy.kind!r}")
    if type(s.duration_us) is not int:
        problems.append(f"duration_us: must be an int of microseconds, got {s.duration_us!r}")
    elif s.duration_us <= 0:
        problems.append("duration_ms: must be positive")
    elif s.duration_us >= MAX_DURATION_US:
        problems.append(
            f"duration_ms: must be below {MAX_DURATION_US} us (2**52), got {s.duration_us} us"
        )
    # A seed set in code skips the schema: random.Random seeds a negative
    # one as its absolute value, and would take a bool or a float as it is.
    if type(s.seed) is not int or s.seed < 0:
        problems.append(f"seed: must be a non-negative int, got {s.seed!r}")
    # Written so that NaN fails too: every comparison with it is false.
    if not 0 <= s.policy.alpha <= 1:
        problems.append(f"policy.alpha: must be in [0, 1], got {s.policy.alpha!r}")
    # Loading takes int() of every id; an id set in code does not, and an
    # integral float or a bool would run and reach the trace as "0.0" or
    # "True", which read_trace refuses.
    for value, where, args in _ids(s):
        if type(value) is not int or value < 0:
            problems.append(f"{where % args} must be a non-negative int, got {value!r}")
    for c in s.computers:
        if type(c.workers) is not int or c.workers < 1:
            problems.append(f"computer {c.id}: workers must be an int of at least 1, got {c.workers!r}")
        elif c.workers > MAX_WORKERS:
            problems.append(f"computer {c.id}: workers must be at most {MAX_WORKERS}, got {c.workers!r}")
        if not 0 <= c.beta < math.inf:
            problems.append(f"computer {c.id}: beta must be finite and non-negative, got {c.beta!r}")
        # busy never exceeds workers, so 1 + beta is the largest multiplier
        elif not all(_finite(us, 1 + c.beta) for us in c.service_us.values()):
            problems.append(
                f"computer {c.id}: beta must leave service_us * (1 + beta) finite, got {c.beta!r}"
            )
        if not c.service_us:
            problems.append(f"computer {c.id}: no service times")
    # A zero retry, backoff or service time never advances time, and a
    # positive millisecond value can still round to 0 us.
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
        if not r.lambdas:
            problems.append(f"router {r.id}: no lambdas")
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
        if not 0 < w.rate_per_s < math.inf:
            problems.append(
                f"workload router {w.router} lambda {w.lam}: rate must be positive "
                f"and finite, got {w.rate_per_s!r}"
            )
        elif w.rate_per_s > MAX_RATE_PER_S:
            problems.append(
                f"workload router {w.router} lambda {w.lam}: rate must be at most "
                f"{MAX_RATE_PER_S} per second (a mean gap of 1 us), got {w.rate_per_s!r}"
            )
        if w.process not in ("poisson", "deterministic"):
            problems.append(
                f"workload router {w.router} lambda {w.lam}: process must be "
                f"'poisson' or 'deterministic', got {w.process!r}"
            )
        if w.client_link_us < 0:
            problems.append(
                f"workload router {w.router} lambda {w.lam}: negative client link "
                f"{w.client_link_us} us"
            )
    for c in s.congestion:
        if c.router not in set(router_ids):
            problems.append(f"congestion: unknown router {c.router}")
        if c.computer not in known_computers:
            problems.append(f"congestion: unknown computer {c.computer}")
        if c.start_us < 0:
            problems.append(
                f"congestion router {c.router} computer {c.computer}: "
                f"window starts before 0 us, at {c.start_us} us"
            )
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


class _UniqueKeyLoader(yaml.SafeLoader):
    """A ``SafeLoader`` that refuses a key already constructed in the same
    mapping node, where PyYAML would keep the last value: ``{0: 1, 00: 7}``
    (YAML 1.1 reads ``00`` as 0) or a doubled top-level ``policy:``. Only
    the keys written in the node count, so an explicit key may still
    override one that a ``<<`` merge brings in."""

    def construct_mapping(self, node, deep=False):
        if isinstance(node, yaml.MappingNode):
            seen = {}
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node, deep=deep)
                try:
                    first = seen.setdefault(key, key_node)
                except TypeError:  # unhashable: the base class refuses it
                    continue
                if first is not key_node:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping",
                        node.start_mark,
                        f"found duplicate key {key!r} (first on line "
                        f"{first.start_mark.line + 1})",
                        key_node.start_mark,
                    )
        return super().construct_mapping(node, deep=deep)


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
        doc = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise InvalidScenario([f"not valid YAML: {exc}"]) from exc
    return scenario_from_mapping(doc)
