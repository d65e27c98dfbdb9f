"""Scenario files: topology, workload, policy config, congestion schedule.

Scenarios are YAML documents checked against a JSON schema first (shape) and
then against semantic rules the schema cannot express (cross-references,
non-empty destination sets). Two ready-made scenarios ship with the package
and can be addressed by name wherever a path is accepted.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import jsonschema
import yaml

from .core import from_ms, string_keys, to_ms
from .policy import DEFAULT_B_MIN_US, PolicyKind

DEFAULT_ALPHA = 0.9
DEFAULT_RETRY_US = 50 * 1000

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


def _schema() -> dict:
    text = resources.files("edgedispatch").joinpath("schemas/scenario.schema.json")
    return json.loads(text.read_text(encoding="utf-8"))


def scenario_from_mapping(doc) -> Scenario:
    """Build and fully validate a Scenario from a parsed YAML/JSON mapping."""
    if not isinstance(doc, dict):
        raise InvalidScenario(["scenario document must be a mapping"])
    # YAML happily parses {0: 5} with an integer key; JSON schema only talks
    # about string properties, so keys are normalized before validation.
    doc = string_keys(doc)
    validator = jsonschema.Draft7Validator(_schema())
    schema_errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if schema_errors:
        problems = []
        for err in schema_errors[:10]:
            where = "/".join(str(p) for p in err.absolute_path) or "(top level)"
            problems.append(f"{where}: {err.message}")
        raise InvalidScenario(problems)

    policy_doc = doc.get("policy", {})
    policy = PolicyConfig(
        kind=PolicyKind(policy_doc.get("kind", "rr")),
        alpha=float(policy_doc.get("alpha", DEFAULT_ALPHA)),
        b_min_us=from_ms(policy_doc.get("b_min_ms", DEFAULT_B_MIN_US / 1000)),
        retry_us=from_ms(policy_doc.get("retry_ms", DEFAULT_RETRY_US / 1000)),
    )
    computers = tuple(
        ComputerSpec(
            id=c["id"],
            workers=c.get("workers", 1),
            beta=float(c.get("beta", 0.0)),
            service_us={int(k): from_ms(v) for k, v in c["service_ms"].items()},
        )
        for c in doc["computers"]
    )
    routers = tuple(
        RouterSpec(
            id=r["id"],
            links_us={int(k): from_ms(v) for k, v in r["links_ms"].items()},
            lambdas=tuple(
                LambdaSpec(id=l["id"], destinations=tuple(l["destinations"]))
                for l in r["lambdas"]
            ),
        )
        for r in doc["routers"]
    )
    workload = tuple(
        WorkloadSpec(
            router=w["router"],
            lam=w["lambda"],
            process=w["process"],
            rate_per_s=float(w["rate_per_s"]),
            client_link_us=from_ms(w.get("client_link_ms", 0)),
        )
        for w in doc["workload"]
    )
    congestion = tuple(
        CongestionWindow(
            router=c["router"],
            computer=c["computer"],
            start_us=from_ms(c["start_ms"]),
            end_us=from_ms(c["end_ms"]),
        )
        for c in doc.get("congestion", [])
    )
    scenario = Scenario(
        name=doc["name"],
        duration_us=from_ms(doc["duration_ms"]),
        seed=doc.get("seed", 0),
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
