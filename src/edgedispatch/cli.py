"""Command-line front end.

Subcommands: ``run`` a scenario to trace + summary files, ``validate`` a
scenario document, ``lemmas`` to execute the fairness property suites, and
``replay-table`` to print the reference deficit schedule. Exit codes: 0 on
success, 1 when validation or a property suite fails, 2 on runtime errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import from_ms, string_keys, to_ms
from .fairness import DEFAULT_SEED, SCHEDULE_WEIGHTS_US, all_suites, schedule_table
from .metrics import fairness_ratios, group_weights, summarize, write_trace
from .policy import PolicyKind
from .scenario import InvalidScenario, builtin_names, load_scenario
from .simnet import run as run_simulation


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgedispatch",
        description="Latency-weighted dispatch simulator and fairness checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario, write trace and summary")
    p_run.add_argument(
        "--scenario",
        required=True,
        help=f"scenario file path or built-in name ({', '.join(builtin_names())})",
    )
    p_run.add_argument(
        "--policy",
        choices=[k.value for k in PolicyKind],
        help="override the scenario's dispatch policy",
    )
    p_run.add_argument("--seed", type=int, help="override the scenario's seed")
    p_run.add_argument(
        "--duration-ms", type=float, help="override the scenario's duration"
    )
    p_run.add_argument("--trace-out", default="trace.csv", help="trace CSV path")
    p_run.add_argument(
        "--summary-out", default="summary.json", help="summary JSON path"
    )
    p_run.add_argument(
        "--verbose",
        action="store_true",
        help="also print the fairness groups with their ratio matrices",
    )
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario document")
    p_val.add_argument("scenario", help="scenario file path or built-in name")
    p_val.set_defaults(func=_cmd_validate)

    p_lem = sub.add_parser(
        "lemmas", help="run the fairness property suites and print pass/fail"
    )
    p_lem.add_argument("--runs", type=int, default=1000, help="short-term suite runs")
    p_lem.add_argument(
        "--steps", type=int, default=10_000, help="steps per short-term run"
    )
    p_lem.add_argument(
        "--cases", type=int, default=100, help="exact-convergence weight sets"
    )
    p_lem.add_argument(
        "--draws", type=int, default=1_000_000, help="proportional-selection draws"
    )
    p_lem.add_argument("--seed", type=int, default=DEFAULT_SEED, help="suite RNG seed")
    p_lem.set_defaults(func=_cmd_lemmas)

    p_tab = sub.add_parser(
        "replay-table", help="print the reference 13-step deficit schedule"
    )
    p_tab.set_defaults(func=_cmd_replay_table)
    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    scenario = scenario.with_overrides(
        policy_kind=PolicyKind(args.policy) if args.policy else None,
        seed=args.seed,
        duration_us=from_ms(args.duration_ms) if args.duration_ms is not None else None,
    )
    result = run_simulation(scenario)
    rows = result.rows
    write_trace(args.trace_out, rows)
    summary = summarize(rows, result.snapshot)
    Path(args.summary_out).write_text(summary.to_json(), encoding="utf-8")
    mean = (
        f"{to_ms(summary.mean_latency_us):.3f} ms mean"
        if summary.mean_latency_us is not None
        else "no completions"
    )
    print(
        f"{scenario.name} policy={result.policy} seed={result.seed}: "
        f"{summary.completed} completed, {summary.unserved} unserved, {mean} "
        f"-> {args.trace_out}, {args.summary_out}"
    )
    if args.verbose:
        groups = {
            router: {
                lam: {
                    "max_deviation": deviation,
                    "ratios": fairness_ratios(
                        group_weights(summary.snapshot, router, lam),
                        summary.selections.get(router, {}).get(lam, {}),
                    ),
                }
                for lam, deviation in by_lam.items()
            }
            for router, by_lam in summary.fairness_groups.items()
        }
        detail = {"max_deviation": summary.fairness_max_deviation, "groups": groups}
        print(json.dumps(string_keys(detail), indent=2, sort_keys=True))
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(
        f"ok: {scenario.name} ({len(scenario.routers)} routers, "
        f"{len(scenario.computers)} computers, "
        f"{to_ms(scenario.duration_us):g} ms)"
    )
    return 0


def _cmd_lemmas(args) -> int:
    reports = all_suites(
        runs=args.runs,
        steps=args.steps,
        cases=args.cases,
        draws=args.draws,
        seed=args.seed,
    )
    for report in reports:
        print(report.describe())
    return 0 if all(r.passed for r in reports) else 1


def _cmd_replay_table(args) -> int:
    rows, counts = schedule_table()
    print("step  destination  deficits (ms)")
    for row in rows:
        deficits = ", ".join(
            f"{d}: {to_ms(v):g}" for d, v in sorted(row.deficits_us.items())
        )
        print(f"{row.step:>4}  {row.destination:>11}  {deficits}")
    picks = ", ".join(f"{d} x{counts[d]}" for d in sorted(counts))
    print(f"selections after {len(rows)} steps: {picks}")
    weights = ", ".join(f"{d}: {to_ms(w):g}" for d, w in SCHEDULE_WEIGHTS_US.items())
    print(f"weights (ms): {weights}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidScenario as exc:
        for problem in exc.problems:
            print(f"invalid scenario: {problem}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:  # noqa: BLE001  (CLI boundary)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
