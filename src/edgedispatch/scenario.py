"""Scenario files: topology, workload, policy config, congestion schedule.

Scenarios are YAML documents. ``scenario_from_mapping`` reads a document
once: each field is checked as it is read and converted in the same step.
The read checks the shape and nothing more, which is what conversion to a
``Scenario`` needs: each field's type in JSON Schema draft 7's terms (an
integral float such as 1.0 is an integer; a bool is neither an integer nor
a number; a list or a tuple is an array), the required and unknown keys,
the policy kinds, and that a number is finite, and under an ``_ms`` key
that its microseconds are, so that it can be converted. A ``service_ms`` or
``links_ms`` key is taken as given, before ``str`` merges an int ``0`` with
a string ``"0"``: it must write its id the one canonical way,
``0|[1-9][0-9]*`` under ``fullmatch``, and no two keys of one map may name
one id. Otherwise ``"0"``, ``"0\\n"`` and ``"00"`` would all load as id 0,
the last one winning. Each fault is reported by its path, in jsonschema's
words for a type or a key (``tests/scenario.schema.json`` states the same
shape, and a test holds the read to jsonschema's ``Draft7Validator``).
``semantic_problems`` then states every value rule once, in microseconds,
for documents and for scenarios built in code alike: bounds, rounding,
cross-references, duplicates and the process names. Two ready-made
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
import math
import numbers
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import yaml

from .core import US_PER_MS, from_ms, to_ms
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


# Each field's conversion, with the draft 7 type its value must have. An
# integral float such as 1.0 is an integer; a bool is neither an integer
# nor a number.
_NUMBER = ("number", lambda v: not isinstance(v, bool) and isinstance(v, numbers.Real))
_TYPES: dict[Callable, tuple[str, Callable[[object], bool]]] = {
    str: ("string", lambda v: isinstance(v, str)),
    int: (
        "integer",
        lambda v: not isinstance(v, bool) and isinstance(v, int)
        or isinstance(v, float) and v.is_integer(),
    ),
    float: _NUMBER,
    from_ms: _NUMBER,
}
_POLICY_KINDS = sorted(kind.value for kind in PolicyKind)


class _Reader:
    """One walk over a scenario document that reads each field once: it
    checks the field's type, that a number is finite (and under an ``_ms``
    key that its microseconds are), and converts it in the same step. Each
    fault is kept in ``found`` as (path, message), a path being a tuple of
    keys and indices; a faulty value reads as None."""

    def __init__(self) -> None:
        self.found: list[tuple[tuple, str]] = []

    def fault(self, path: tuple, message: str) -> None:
        self.found.append((path, message))

    def mapping(self, value, path: tuple, required: tuple, optional: tuple = ()) -> dict:
        """``value`` if it is an object, else an empty one, which reads as
        absent fields; a required key it lacks or a key it has outside both
        tuples is a fault."""
        if not isinstance(value, dict):
            self.fault(path, f"{value!r} is not of type 'object'")
            return {}
        for name in required:
            if name not in value:
                self.fault(path, f"{name!r} is a required property")
        extras = sorted({str(key) for key in value}.difference(required, optional))
        if extras:
            keys = ", ".join(map(repr, extras))
            verb = "was" if len(extras) == 1 else "were"
            self.fault(path, f"Additional properties are not allowed ({keys} {verb} unexpected)")
        return value

    def read(self, value, path: tuple, convert: Callable):
        """``convert(value)`` for ``convert`` ``str``, ``int``, ``float`` or
        ``from_ms``, once ``value`` has its type and is finite."""
        name, is_type = _TYPES[convert]
        ok = is_type(value)
        if not ok:
            self.fault(path, f"{value!r} is not of type {name!r}")
        if isinstance(value, numbers.Real):
            problem = finite_problem(value, US_PER_MS if convert is from_ms else 1)
            if problem:
                self.fault(path, problem)
                ok = False
        return convert(value) if ok else None

    def get(self, obj: dict, name: str, path: tuple, convert: Callable, default=None):
        """``obj[name]`` read by ``convert``, or ``default`` if it is absent."""
        return self.read(obj[name], path + (name,), convert) if name in obj else default

    def array(self, obj: dict, name: str, path: tuple, read: Callable) -> tuple:
        """The items of the array (a list or a tuple) ``obj[name]``, each
        read by ``read(item, path)``; an absent one has none."""
        value = obj.get(name, ())
        path += (name,)
        if not isinstance(value, (list, tuple)):
            self.fault(path, f"{value!r} is not of type 'array'")
            return ()
        return tuple(read(item, path + (index,)) for index, item in enumerate(value))

    def id_map(self, obj: dict, name: str, path: tuple) -> dict:
        """The ``service_ms`` or ``links_ms`` map ``obj[name]`` as microseconds
        by id. Each key must write its id the one way ``_ID_KEY`` states,
        taken as given, before ``str`` merges an int 0 with a string "0";
        and no two keys may name one id."""
        value = obj.get(name, {})
        path += (name,)
        if not isinstance(value, dict):
            self.fault(path, f"{value!r} is not of type 'object'")
            return {}
        named = {}
        out = {}
        for key, item in value.items():
            text = str(key)
            if not _ID_KEY.fullmatch(text):
                self.fault(path, f"key {key!r} is not an id written as {_ID_KEY.pattern!r}")
            elif text in named:
                self.fault(path, f"keys {named[text]!r} and {key!r} name one id")
            else:
                named[text] = key
                out[int(text)] = self.read(item, path + (text,), from_ms)
        return out

    def policy(self, value, path: tuple) -> PolicyConfig:
        p = self.mapping(value, path, (), ("kind", "alpha", "b_min_ms", "retry_ms"))
        kind = p.get("kind", "rr")
        if kind in _POLICY_KINDS:
            kind = PolicyKind(kind)
        else:
            self.fault(path + ("kind",), f"{kind!r} is not one of {_POLICY_KINDS!r}")
        return PolicyConfig(
            kind=kind,
            alpha=self.get(p, "alpha", path, float, DEFAULT_ALPHA),
            b_min_us=self.get(p, "b_min_ms", path, from_ms, DEFAULT_B_MIN_US),
            retry_us=self.get(p, "retry_ms", path, from_ms, DEFAULT_RETRY_US),
        )

    def computer(self, value, path: tuple) -> ComputerSpec:
        c = self.mapping(value, path, ("id", "service_ms"), ("workers", "beta"))
        return ComputerSpec(
            id=self.get(c, "id", path, int),
            workers=self.get(c, "workers", path, int, 1),
            beta=self.get(c, "beta", path, float, 0.0),
            service_us=self.id_map(c, "service_ms", path),
        )

    def router(self, value, path: tuple) -> RouterSpec:
        r = self.mapping(value, path, ("id", "links_ms", "lambdas"))
        return RouterSpec(
            id=self.get(r, "id", path, int),
            links_us=self.id_map(r, "links_ms", path),
            lambdas=self.array(r, "lambdas", path, self.lam),
        )

    def lam(self, value, path: tuple) -> LambdaSpec:
        l = self.mapping(value, path, ("id", "destinations"))
        return LambdaSpec(
            id=self.get(l, "id", path, int),
            destinations=self.array(l, "destinations", path, lambda v, at: self.read(v, at, int)),
        )

    def workload(self, value, path: tuple) -> WorkloadSpec:
        w = self.mapping(value, path, ("router", "lambda", "process", "rate_per_s"), ("client_link_ms",))
        return WorkloadSpec(
            router=self.get(w, "router", path, int),
            lam=self.get(w, "lambda", path, int),
            process=self.get(w, "process", path, str),
            rate_per_s=self.get(w, "rate_per_s", path, float),
            client_link_us=self.get(w, "client_link_ms", path, from_ms, 0),
        )

    def window(self, value, path: tuple) -> CongestionWindow:
        c = self.mapping(value, path, ("router", "computer", "start_ms", "end_ms"))
        return CongestionWindow(
            router=self.get(c, "router", path, int),
            computer=self.get(c, "computer", path, int),
            start_us=self.get(c, "start_ms", path, from_ms),
            end_us=self.get(c, "end_ms", path, from_ms),
        )


def scenario_from_mapping(doc) -> Scenario:
    """Build and fully validate a Scenario from a parsed YAML/JSON mapping."""
    if not isinstance(doc, dict):
        raise InvalidScenario(["scenario document must be a mapping"])
    reader = _Reader()
    reader.mapping(
        doc,
        (),
        ("name", "duration_ms", "computers", "routers", "workload"),
        ("description", "seed", "policy", "congestion"),
    )
    reader.get(doc, "description", (), str)  # read for its type only
    scenario = Scenario(
        name=reader.get(doc, "name", (), str),
        duration_us=reader.get(doc, "duration_ms", (), from_ms),
        seed=reader.get(doc, "seed", (), int, 0),
        policy=reader.policy(doc.get("policy", {}), ("policy",)),
        computers=reader.array(doc, "computers", (), reader.computer),
        routers=reader.array(doc, "routers", (), reader.router),
        workload=reader.array(doc, "workload", (), reader.workload),
        congestion=reader.array(doc, "congestion", (), reader.window),
    )
    if reader.found:
        raise InvalidScenario([
            f"{'/'.join(map(str, path)) or '(top level)'}: {message}"
            for path, message in sorted(reader.found, key=lambda found: found[0])[:10]
        ])
    ensure_valid(scenario)
    return scenario


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
    # A seed set in code skips the read: random.Random seeds a negative
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
        if not path.is_file():
            raise InvalidScenario([f"{name!r} is not a file"])
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidScenario([f"not valid UTF-8: {exc}"]) from exc
    try:
        doc = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise InvalidScenario([f"not valid YAML: {exc}"]) from exc
    return scenario_from_mapping(doc)
