"""The equivalence sweep: 198 runs, each pinned by its trace and summary digests.

The runs are the shipped ``line`` and ``ring-tree`` scenarios under ``rr``,
``li`` and ``rp`` at seed 1 and at the 30 seeds of
``Random(0).getrandbits(31)`` (186 runs), and perfbench's
``fanout_mapping`` at seeds 1, 7, 101 and 2511 under the three policies (12
runs). A run's label is ``scenario/policy/seed``. ``sweep.json`` maps each
label to the sha256 of the run's trace bytes (``metrics.trace_bytes``) and
of its summary JSON (``Summary.to_json``), so a change that must not alter
behaviour is checked against 198 runs with one command, and a change that
does is shown run by run.

Run from the root of a checkout:

    python tests/sweep.py --check   # exit 1 unless every run matches
    python tests/sweep.py --diff    # the runs that moved, by scenario and policy
    python tests/sweep.py --write   # re-pin sweep.json
    python tests/sweep.py --table   # p50, p99 and served ratio per run

All 198 runs take about 10-15 s on a 2-vCPU x86-64 host. The test suite
checks the manifest's shape and a fixed slice of it (``SLICE``).

``--table`` prints each run's median and p99 latency (``summarize``) and
its served ratio (completed over arrivals), then, per scenario and policy,
how many runs have a p99 above 100 ms. ``--seeds N`` runs ``line`` and
``ring-tree`` at the first N draws of the same ``Random(0)`` stream
instead of the sweep's 31 seeds, and ``--seed S`` adds a seed (repeatable):

    python tests/sweep.py --table --seeds 120 --seed 1999834075
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from itertools import groupby
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from edgedispatch.metrics import summarize, trace_bytes  # noqa: E402
from edgedispatch.policy import PolicyKind  # noqa: E402
from edgedispatch.scenario import load_scenario, scenario_from_mapping  # noqa: E402
from edgedispatch.simnet import run  # noqa: E402
from perfbench.fanout import fanout_mapping  # noqa: E402

MANIFEST = Path(__file__).with_name("sweep.json")
POLICIES = ("rr", "li", "rp")
# A p99 above this marks a run that fell into a backlog (ROADMAP item 4).
SLOW_P99_US = 100_000


def draws(n: int) -> list[int]:
    """The first ``n`` seeds of the sweep's stream."""
    rng = random.Random(0)
    return [rng.getrandbits(31) for _ in range(n)]


def runs(builtin_seeds: list[int]) -> list[tuple[str, str, int]]:
    """The shipped scenarios at ``builtin_seeds`` and the fan-out runs."""
    return [
        (name, policy, seed)
        for name in ("line", "ring-tree")
        for policy in POLICIES
        for seed in builtin_seeds
    ] + [("fanout", policy, seed) for policy in POLICIES for seed in FANOUT_SEEDS]


BUILTIN_SEEDS = [1] + draws(30)
FANOUT_SEEDS = [1, 7, 101, 2511]
RUNS = runs(BUILTIN_SEEDS)
# The runs the test suite repeats: about 1 s in all.
SLICE = [
    (name, policy, seed)
    for name, seed in (("line", 1), ("ring-tree", 1), ("fanout", 7))
    for policy in POLICIES
]


def label(name: str, policy: str, seed: int) -> str:
    return f"{name}/{policy}/{seed}"


def simulate(name: str, policy: str, seed: int):
    """One run's rows and its summary."""
    if name == "fanout":
        scenario = scenario_from_mapping(fanout_mapping(seed))
    else:
        scenario = load_scenario(name).with_overrides(seed=seed)
    result = run(scenario.with_overrides(policy_kind=PolicyKind(policy)))
    rows = result.rows
    return rows, summarize(rows, result.snapshot)


def digests(name: str, policy: str, seed: int) -> dict[str, str]:
    """The sha256 of one run's trace bytes and of its summary JSON."""
    rows, summary = simulate(name, policy, seed)
    return {
        "trace_sha256": hashlib.sha256(trace_bytes(rows)).hexdigest(),
        "summary_sha256": hashlib.sha256(summary.to_json().encode("utf-8")).hexdigest(),
    }


def load_manifest() -> dict[str, dict[str, str]]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def moved(pinned: dict, runs: list[tuple]) -> list[tuple[tuple, list[str]]]:
    """Each run whose digests differ from ``pinned``, with the parts that
    moved (a run missing from ``pinned`` moved in both)."""
    out = []
    for key in runs:
        got = digests(*key)
        want = pinned.get(label(*key), {})
        parts = [part for part in got if got[part] != want.get(part)]
        if parts:
            out.append((key, parts))
    return out


def table(runs: list[tuple]) -> list[str]:
    """Each run's p50, p99 and served ratio, then the count of runs per
    scenario and policy whose p99 is above ``SLOW_P99_US``."""
    lines = [f"{'run':<28} {'p50_us':>10} {'p99_us':>10} {'served':>7}"]
    slow: dict[tuple[str, str], list[bool]] = {}
    for key in runs:
        _, summary = simulate(*key)
        p99 = summary.p99_latency_us
        lines.append(
            f"{label(*key):<28} {summary.median_latency_us!s:>10} {p99!s:>10} "
            f"{summary.completed / summary.arrivals:>7.4f}"
        )
        slow.setdefault(key[:2], []).append(p99 is not None and p99 > SLOW_P99_US)
    for (name, policy), flags in slow.items():
        lines.append(
            f"{name} {policy}: p99 above {SLOW_P99_US // 1000} ms "
            f"in {sum(flags)} of {len(flags)} runs"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="exit 1 unless every run matches")
    mode.add_argument("--diff", action="store_true", help="list the runs that moved")
    mode.add_argument("--write", action="store_true", help="re-pin the manifest")
    mode.add_argument("--table", action="store_true", help="p50, p99 and served ratio per run")
    parser.add_argument("--seeds", type=int, metavar="N",
                        help="with --table: the first N seeds of the stream for line and ring-tree")
    parser.add_argument("--seed", type=int, action="append", default=[], metavar="S",
                        help="with --table: one more seed for line and ring-tree (repeatable)")
    args = parser.parse_args(argv)
    if (args.seeds is not None or args.seed) and not args.table:
        parser.error("--seeds and --seed go with --table")
    if args.seeds is not None and args.seeds < 0:
        parser.error("--seeds must be at least 0")
    if args.table:
        chosen = RUNS
        if args.seeds is not None or args.seed:
            seeds = BUILTIN_SEEDS if args.seeds is None else draws(args.seeds)
            chosen = runs(list(dict.fromkeys(seeds + args.seed)))
        print("\n".join(table(chosen)))
        return 0
    if args.write:
        pinned = {label(*key): digests(*key) for key in RUNS}
        MANIFEST.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
        print(f"pinned {len(pinned)} runs in {MANIFEST.name}")
        return 0
    pinned = load_manifest()
    changed = moved(pinned, RUNS)
    stale = sorted(set(pinned) - {label(*key) for key in RUNS})
    if args.diff:
        for (name, policy), group in groupby(changed, key=lambda item: item[0][:2]):
            group = list(group)
            print(f"{name} {policy}: {len(group)} moved")
            for (_, _, seed), parts in group:
                print(f"  seed {seed}: {' and '.join(p.removesuffix('_sha256') for p in parts)}")
    else:
        for key, parts in changed:
            print(f"moved: {label(*key)} ({', '.join(parts)})")
    for name in stale:
        print(f"not a run of the sweep: {name}")
    print(f"{len(RUNS) - len(changed)} of {len(RUNS)} runs match {MANIFEST.name}")
    return 1 if args.check and (changed or stale) else 0


if __name__ == "__main__":
    sys.exit(main())
