"""Benchmark of edgedispatch: simulator throughput, simulated latency and
fairness-suite time, with an optional traced run that splits host time by layer.

Run from the root of a checkout; the program is imported from ``src/``:

    python3 perfbench/run.py --workload builtin --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass. The last line of standard output is one JSON
object; the lines before it give the run metadata and every metric with its
unit and sample count. Workloads and metrics are described in README.md
next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import checks
import fanout
from hostclock import PROBE_REF_S, HostClock
from tracing import COUNT, SPAN, NameTotals, Tracer, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("builtin", "fanout", "lemmas")
POLICIES = ("rr", "li", "rp")
SHIPPED = ("line", "ring-tree")
# Rounds of the shipped scenarios, one seed each, drawn from --seed. The
# simulated latency metrics are medians over the reference rounds: about one
# run of ``line`` under ``rr`` in twelve falls into a backlog that multiplies
# its p99 ten times, and a median of seven keeps such runs from moving it.
# ``builtin`` times the first BUILTIN_ROUNDS of them in every pass and the
# others once, before the passes; ``lemmas`` does the same with one round.
REFERENCE_ROUNDS = 7
BUILTIN_ROUNDS = 2
SETUP_REPEATS = 7
# Timed metrics are in reference seconds (see hostclock.py): the host this
# benchmark was defined on changes speed by a factor of two several times a
# second.
LAYERS = ("simnet", "core", "policy", "estimator", "ledger", "metrics", "fairness")


class ProgramMissing(Exception):
    """The checkout has no edgedispatch sources to benchmark."""


@dataclass(frozen=True)
class Suites:
    """Sizes of the three fairness suites in one pass, all at the suites'
    default seed. The proportional check's tolerance follows its draw count:
    at 100k draws the standard deviation of a count ratio is about 1%, at 1M
    about 0.3%.
    """

    runs: int
    steps: int
    cases: int
    draws: int
    tolerance: float


SMALL_SUITES = Suites(runs=10, steps=2_000, cases=10, draws=100_000, tolerance=0.05)
FULL_SUITES = Suites(runs=80, steps=10_000, cases=100, draws=1_000_000, tolerance=0.01)


@dataclass(frozen=True)
class SimJob:
    label: str
    round: int
    policy: str
    scenario: object


@dataclass
class Inputs:
    reference: list[SimJob]  # shipped scenarios; source of the latency metrics
    sims: list[SimJob]  # simulations timed in every pass
    suites: Suites
    once: list[SimJob] = field(default_factory=list)  # timed once, before the passes


@dataclass
class SimOutcome:
    job: SimJob
    arrivals: int
    completed: int
    unserved: int
    run_s: float  # host seconds in simnet.run
    run_ref_s: float  # the same in reference seconds
    pipeline_s: float  # host seconds for the whole run path
    pipeline_ref_s: float
    probes: dict
    delays_us: tuple[int, int, int]  # transfer, queue, processing sums


@dataclass
class SuiteOutcome:
    seconds: dict[str, float]  # host seconds per suite
    ref: dict[str, float]  # reference seconds per suite
    replay_steps: int  # select-then-charge steps of short_term and convergence
    cases: int
    failed: int


@dataclass
class PassOutcome:
    sims: list[SimOutcome]
    suites: SuiteOutcome
    seconds: float  # host seconds, probes and checks included

    @property
    def ref_s(self) -> float:
        """Reference seconds of the timed items."""
        return sum(s.pipeline_ref_s for s in self.sims) + sum(self.suites.ref.values())


@dataclass
class State:
    """What a run accumulates across passes: problems found, the digests of
    each job's first execution, the latencies of the reference jobs, and the
    clock that times every item."""

    trace_path: Path
    summary_path: Path
    problems: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    latencies: dict = field(default_factory=dict)
    clock: HostClock = field(default_factory=HostClock)


# -- program and inputs -----------------------------------------------------


def import_program():
    package = SRC / "edgedispatch" / "__init__.py"
    if not package.is_file():
        raise ProgramMissing(f"no edgedispatch sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import edgedispatch

    if Path(edgedispatch.__file__).resolve() != package.resolve():
        raise ProgramMissing(f"edgedispatch was imported from {edgedispatch.__file__}")
    return edgedispatch


def sub_seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(31) for _ in range(n)]


def shipped_jobs(prog, seeds: list[int]) -> list[SimJob]:
    base = [prog.scenario.load_scenario(name) for name in SHIPPED]
    jobs = []
    for k, s in enumerate(seeds):
        for policy in POLICIES:
            kind = prog.PolicyKind(policy)
            for sc in base:
                jobs.append(
                    SimJob(
                        f"{sc.name}/seed{s}/{policy}",
                        k,
                        policy,
                        sc.with_overrides(policy_kind=kind, seed=s),
                    )
                )
    return jobs


def build_inputs(prog, workload: str, seed: int) -> Inputs:
    reference = shipped_jobs(prog, sub_seeds(seed, REFERENCE_ROUNDS))

    def split(rounds):
        every = [j for j in reference if j.round < rounds]
        return every, [j for j in reference if j.round >= rounds]

    if workload == "builtin":
        every, once = split(BUILTIN_ROUNDS)
        return Inputs(reference, every, SMALL_SUITES, once)
    if workload == "fanout":
        sc = prog.scenario.scenario_from_mapping(fanout.fanout_mapping(seed))
        sims = [
            SimJob(
                f"{sc.name}/seed{seed}/{p}",
                0,
                p,
                sc.with_overrides(policy_kind=prog.PolicyKind(p)),
            )
            for p in POLICIES
        ]
        return Inputs(reference, sims, SMALL_SUITES)
    if workload == "lemmas":
        every, once = split(1)
        return Inputs(reference, every, FULL_SUITES, once)
    raise ValueError(f"unknown workload {workload!r}")


def layer_targets(prog) -> list:
    """The entry points of each layer the traced pass wraps.

    ``replay_frozen`` and ``RequestRecord`` are wrapped where their callers
    look them up (``fairness`` and ``simnet``). Estimator reads are only
    counted: there are hundreds per request at a fan-out of 256.
    """
    pol = prog.policy.PolicyState
    est = prog.estimator.WeightTable
    led = prog.ledger.DeficitLedger
    return [
        (prog.scenario, "load_scenario", "scenario.load_scenario", SPAN),
        (prog.scenario, "scenario_from_mapping", "scenario.scenario_from_mapping", SPAN),
        (prog.simnet, "run", "simnet.run", SPAN),
        (prog.simnet, "RequestRecord", "core.request_record", SPAN),
        (pol, "select", "policy.select", SPAN),
        (pol, "on_response", "policy.on_response", SPAN),
        (pol, "sync_congestion", "policy.sync_congestion", SPAN),
        (est, "observe", "estimator.observe", SPAN),
        (est, "get", "estimator.get", COUNT),
        (est, "is_congested", "estimator.congestion", COUNT),
        (est, "mark_congested", "estimator.congestion", COUNT),
        (est, "clear_congestion", "estimator.congestion", COUNT),
        (led, "charge", "ledger.charge", SPAN),
        (led, "admit", "ledger.admit", SPAN),
        (led, "evict", "ledger.evict", SPAN),
        (prog.fairness, "replay_frozen", "ledger.replay_frozen", SPAN),
        (prog.metrics, "write_trace", "metrics.write_trace", SPAN),
        (prog.metrics, "read_trace", "metrics.read_trace", SPAN),
        (prog.metrics, "summarize", "metrics.summarize", SPAN),
        (prog.metrics.Summary, "to_json", "metrics.to_json", SPAN),
        (prog.fairness, "short_term_suite", "fairness.short_term", SPAN),
        (prog.fairness, "exact_convergence_suite", "fairness.convergence", SPAN),
        (prog.fairness, "proportional_selection_check", "fairness.proportional", SPAN),
    ]


# -- one pass ---------------------------------------------------------------


def run_sim(prog, job: SimJob, state: State) -> SimOutcome:
    """Simulate one job through the ``edgedispatch run`` path, plus a read-back.

    Timed: run, write the trace, read it back, summarize, serialize and
    write the summary. Checked after the clock stops.
    """

    def report():
        prog.metrics.write_trace(state.trace_path, result.rows)
        rows = prog.metrics.read_trace(state.trace_path)
        summary = prog.metrics.summarize(rows, result.snapshot)
        text = summary.to_json()
        state.summary_path.write_text(text, encoding="utf-8")
        return summary, text

    result, run_s, run_ref = state.clock.time(prog.simnet.run, job.scenario)
    (summary, text), rest_s, rest_ref = state.clock.time(report)

    state.problems += checks.check_accounting(job.label, result)
    if job.label not in state.digests:
        in_memory = prog.metrics.summarize(result.rows, result.snapshot).to_json()
        state.problems += checks.check_round_trip(job.label, in_memory, text)
        state.latencies[job.label] = [r.completed_us - r.issued_us for r in result.completed]
    digests = (
        checks.sha256(state.trace_path.read_bytes()),
        checks.sha256(text.encode("utf-8")),
    )
    state.problems += checks.check_digests(job.label, state.digests, digests)
    delays = (
        sum(r.transfer_us for r in result.completed),
        sum(r.queue_us for r in result.completed),
        sum(r.processing_us for r in result.completed),
    )
    return SimOutcome(
        job=job,
        arrivals=result.arrivals,
        completed=len(result.completed),
        unserved=len(result.unserved),
        run_s=run_s,
        run_ref_s=run_ref,
        pipeline_s=run_s + rest_s,
        pipeline_ref_s=run_ref + rest_ref,
        probes=summary.probes,
        delays_us=delays,
    )


def run_reference(prog, job: SimJob, state: State) -> None:
    """Simulate a reference job once, untimed, for its latencies."""
    result = prog.simnet.run(job.scenario)
    state.problems += checks.check_accounting(job.label, result)
    state.latencies[job.label] = [r.completed_us - r.issued_us for r in result.completed]


def run_suites(prog, sizes: Suites, state: State) -> SuiteOutcome:
    fair = prog.fairness
    calls = [
        ("short_term", partial(fair.short_term_suite, runs=sizes.runs, steps=sizes.steps)),
        ("convergence", partial(fair.exact_convergence_suite, cases=sizes.cases)),
        ("proportional", partial(fair.proportional_selection_check, draws=sizes.draws, tolerance=sizes.tolerance)),
    ]
    seconds, ref, reports = {}, {}, []
    for name, call in calls:
        report, seconds[name], ref[name] = state.clock.time(call)
        reports.append(report)
    for report in reports:
        state.problems += checks.check_suite(report)
    # The proportional check is one case however many draws it makes.
    cases = [r.cases for r in reports[:-1]] + [1]
    conv = reports[-2]
    return SuiteOutcome(
        seconds=seconds,
        ref=ref,
        replay_steps=sizes.runs * sizes.steps + conv.details["total_steps"],
        cases=sum(cases),
        failed=sum(min(len(r.failures), n) for r, n in zip(reports, cases)),
    )


def run_pass(prog, inputs: Inputs, state: State) -> PassOutcome:
    """Every timed item of the workload once."""
    t0 = time.perf_counter()
    sims = [run_sim(prog, job, state) for job in inputs.sims]
    suites = run_suites(prog, inputs.suites, state)
    return PassOutcome(sims, suites, time.perf_counter() - t0)


# -- metrics ----------------------------------------------------------------


def metric(value, unit: str, note: str = "") -> dict:
    return {"value": value, "unit": unit, "note": note}


def rounds_of(passes: list[PassOutcome], once: list[SimOutcome]) -> list[list[SimOutcome]]:
    """The timed sims grouped by round: a round in one pass, or a round
    timed once before the passes."""
    groups: dict = {}
    for s in once:
        groups.setdefault(("once", s.job.round), []).append(s)
    for i, p in enumerate(passes):
        for s in p.sims:
            groups.setdefault((i, s.job.round), []).append(s)
    return list(groups.values())


def latency_metrics(prog, inputs: Inputs, state: State) -> dict:
    """Nearest-rank p50 and p99 of simulated latency per policy: each round
    pools its shipped scenarios, and the metric is the median over rounds."""
    out = {}
    for policy in POLICIES:
        per_round: dict[int, list[int]] = {}
        for job in inputs.reference:
            if job.policy == policy:
                per_round.setdefault(job.round, []).extend(state.latencies[job.label])
        pooled = [sorted(v) for _, v in sorted(per_round.items())]
        counts = ",".join(str(len(v)) for v in pooled)
        for pct in (50, 99):
            values = [prog.metrics.nearest_rank(v, pct) for v in pooled]
            out[f"sim_p{pct}_us_{policy}"] = metric(
                statistics.median(values),
                "sim_us",
                f"median of rounds {values}; completed requests per round {counts}",
            )
    return out


def end_to_end(
    prog, inputs: Inputs, state: State, passes: list[PassOutcome], once: list[SimOutcome], setup: list[dict]
) -> dict:
    out = {}
    groups = rounds_of(passes, once)
    for policy in POLICIES:
        rates, raw = [], []
        for sims in groups:
            mine = [s for s in sims if s.job.policy == policy]
            arrivals = sum(s.arrivals for s in mine)
            rates.append(arrivals / sum(s.run_ref_s for s in mine))
            raw.append(arrivals / sum(s.run_s for s in mine))
        per_round = sum(s.arrivals for s in groups[0] if s.job.policy == policy)
        out[f"sim_rps_{policy}"] = metric(
            statistics.median(rates),
            "1/ref_s",
            f"median of {len(rates)} rounds; {per_round} simulated arrivals in the first; "
            f"{statistics.median(raw):.1f} per host second",
        )
    out.update(latency_metrics(prog, inputs, state))
    attempted, failed = operations(passes, once)
    out["served_ratio"] = metric(
        (attempted - failed) / attempted, "ratio", f"{attempted - failed} of {attempted} operations"
    )
    pipeline = [sum(s.pipeline_ref_s for s in sims) for sims in groups]
    raw = [sum(s.pipeline_s for s in sims) for sims in groups]
    out["pipeline_s"] = metric(
        statistics.median(pipeline),
        "ref_s",
        f"median of {len(pipeline)} rounds of {len(groups[0])} runs each; "
        f"{statistics.median(raw):.4f} host seconds",
    )
    suites = [p.suites for p in passes]
    lemmas = [sum(s.ref.values()) for s in suites]
    raw = [sum(s.seconds.values()) for s in suites]
    out["lemmas_s"] = metric(
        statistics.median(lemmas),
        "ref_s",
        f"median of {len(lemmas)} passes; {statistics.median(raw):.4f} host seconds",
    )
    steps = [s.replay_steps / (s.ref["short_term"] + s.ref["convergence"]) for s in suites]
    out["replay_steps_per_s"] = metric(
        statistics.median(steps),
        "1/ref_s",
        f"median of {len(steps)} passes; {suites[0].replay_steps} steps per pass",
    )
    ref = [s["ref_s"] for s in setup]
    out["setup_s"] = metric(
        statistics.median(ref),
        "s",
        f"reference seconds, median of {len(ref)} interpreters; "
        f"{statistics.median(s['host_s'] for s in setup):.4f} host seconds",
    )
    out["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss"
    )
    return out


def per_layer(traced_pass: PassOutcome, tracer: Tracer, setup_tracer: Tracer, untraced_s: list[float]) -> dict:
    totals = tracer.totals()

    def total(name):
        return totals.get(name, NameTotals())

    def ns_per_call(name):
        t = total(name)
        return t.self_s / t.calls * 1e9 if t.calls else 0.0

    sims = traced_pass.sims
    arrivals = sum(s.arrivals for s in sims)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, t in totals.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t.self_s
    out = {
        "scenario.load_s": metric(setup_tracer.top_level_s(), "s", "one set-up"),
        "simnet.run_s": metric(total("simnet.run").inclusive_s, "s"),
        "simnet.self_ns_per_request": metric(layer_self["simnet"] / arrivals * 1e9, "ns", f"{arrivals} arrivals"),
        "core.request_record.calls": metric(total("core.request_record").calls, "count"),
        "core.request_record_ns": metric(ns_per_call("core.request_record"), "ns"),
        "policy.select.calls": metric(total("policy.select").calls, "count"),
        "policy.select_ns": metric(ns_per_call("policy.select"), "ns"),
        "policy.on_response.calls": metric(total("policy.on_response").calls, "count"),
        "policy.on_response_ns": metric(ns_per_call("policy.on_response"), "ns"),
        "policy.sync_congestion.calls": metric(total("policy.sync_congestion").calls, "count"),
        "policy.sync_congestion_ns": metric(ns_per_call("policy.sync_congestion"), "ns"),
        "policy.no_eligible.count": metric(total("policy.select").errors, "count", "retries and unserved"),
        "estimator.observe.calls": metric(total("estimator.observe").calls, "count"),
        "estimator.observe_ns": metric(ns_per_call("estimator.observe"), "ns"),
        "estimator.get.calls": metric(tracer.count("estimator.get"), "count"),
        "estimator.congestion.calls": metric(tracer.count("estimator.congestion"), "count"),
    }
    for op in ("charge", "admit", "evict"):
        out[f"ledger.{op}.calls"] = metric(total(f"ledger.{op}").calls, "count")
        out[f"ledger.{op}_ns"] = metric(ns_per_call(f"ledger.{op}"), "ns")
    out["ledger.replay_frozen_s"] = metric(total("ledger.replay_frozen").inclusive_s, "s")

    rr = [s for s in sims if s.job.policy == "rr"]
    launched = sum(s.probes["launched"] for s in rr)
    admitted = sum(s.probes["admitted"] for s in rr)
    stale = sum(s.probes["stale_responses"] for s in rr)
    responses = sum(s.completed for s in rr)
    out["policy.probes_launched.count"] = metric(launched, "count", "rr runs")
    out["policy.probe_admit_ratio"] = metric(
        admitted / launched if launched else 0.0, "ratio", f"{admitted} admitted of {launched} launched"
    )
    out["policy.stale_responses.count"] = metric(stale, "count", "rr runs")
    out["policy.stale_ratio"] = metric(
        stale / responses if responses else 0.0, "ratio", f"{stale} stale of {responses} rr responses"
    )

    rows = arrivals  # every arrival is one trace row, completed or not
    for name, key in (
        ("metrics.trace_write_ns_per_row", "metrics.write_trace"),
        ("metrics.trace_read_ns_per_row", "metrics.read_trace"),
        ("metrics.summarize_ns_per_row", "metrics.summarize"),
    ):
        out[name] = metric(total(key).self_s / rows * 1e9, "ns", f"{rows} rows")
    out["fairness.short_term_s"] = metric(total("fairness.short_term").inclusive_s, "s")
    out["fairness.convergence_s"] = metric(total("fairness.convergence").inclusive_s, "s")
    out["fairness.proportional_s"] = metric(total("fairness.proportional").inclusive_s, "s")

    for policy in POLICIES:
        mine = [s for s in sims if s.job.policy == policy]
        n = sum(s.completed for s in mine)
        for i, part in enumerate(("transfer", "queue", "processing")):
            out[f"sim.{part}_us_mean.{policy}"] = metric(
                sum(s.delays_us[i] for s in mine) / n, "sim_us", f"{n} completed requests"
            )
    for layer in LAYERS:  # scenario work happens in set-up: scenario.load_s
        out[f"{layer}.self_s"] = metric(layer_self[layer], "s", "traced pass")
    out["trace.spans.count"] = metric(len(tracer.start), "count")
    untraced = statistics.median(untraced_s)
    out["trace.overhead_ratio"] = metric(
        traced_pass.ref_s / untraced,
        "ratio",
        f"traced pass {traced_pass.ref_s:.3f} ref_s over untraced median {untraced:.3f} of {len(untraced_s)}",
    )
    return out


def operations(passes: list[PassOutcome], once: list[SimOutcome] = ()) -> tuple[int, int]:
    """Operations attempted and failed: simulated arrivals and suite cases."""
    sims = [*once, *(s for p in passes for s in p.sims)]
    attempted = sum(s.arrivals for s in sims) + sum(p.suites.cases for p in passes)
    failed = sum(s.unserved for s in sims) + sum(p.suites.failed for p in passes)
    return attempted, failed


# -- metadata ---------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, if the checkout itself is a git tree."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha() -> str:
    """Digest of the program's sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((SRC / "edgedispatch").rglob("*")):
        if path.is_file() and path.suffix in {".py", ".pyx", ".yaml", ".json"}:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(prog, args, state: State, inputs: Inputs) -> dict:
    """Run metadata. Digests per policy chain the per-run digests in label
    order; the per-run digests go to the result file."""
    per_policy = {}
    for policy in POLICIES:
        labels = sorted(j.label for j in inputs.sims if j.policy == policy)
        per_policy[policy] = {
            "runs": len(labels),
            "trace_sha256": checks.sha256(" ".join(state.digests[l][0] for l in labels).encode()),
            "summary_sha256": checks.sha256(" ".join(state.digests[l][1] for l in labels).encode()),
        }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha(),
        "python": platform.python_version(),
        "replay_backend": prog.REPLAY_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "host_clock": {
            "probe_ref_s": PROBE_REF_S,
            "probes": len(state.clock.speeds),
            "mean_speed": state.clock.mean_speed(),
            "probe_s": state.clock.probe_s,
        },
        "digests": per_policy,
    }


# -- entry point ------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> dict:
    """Host and reference seconds from importing the program to having every
    input built."""

    def setup():
        build_inputs(import_program(), workload, seed)

    with HostClock() as clock:
        _, host, ref = clock.time(setup)
    return {"host_s": host, "ref_s": ref}


def setup_samples(workload: str, seed: int) -> list[dict]:
    """Set-up times in fresh interpreters, since an import happens once per process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-only"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def add_passes(prog, inputs: Inputs, state: State, passes: list[PassOutcome], deadline: float) -> None:
    """Untraced passes while the next, if it lasts as long as the mean pass
    of ``passes``, ends by ``deadline`` (``time.perf_counter``); at least one."""
    while not passes or time.perf_counter() + statistics.fmean(p.seconds for p in passes) <= deadline:
        passes.append(run_pass(prog, inputs, state))


def untraced_run(prog, args, state: State):
    """Set-up samples; then, for --seconds, the reference rounds and the
    timed passes."""
    setup = setup_samples(args.workload, args.seed)
    inputs = build_inputs(prog, args.workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    skip = {job.label for job in inputs.sims + inputs.once}  # they record their own latencies
    with state.clock:
        once = [run_sim(prog, job, state) for job in inputs.once]
        for job in inputs.reference:
            if job.label not in skip:
                run_reference(prog, job, state)
        passes: list[PassOutcome] = []
        add_passes(prog, inputs, state, passes, deadline)
    return inputs, passes, once, end_to_end(prog, inputs, state, passes, once, setup)


def traced_run(prog, args, state: State):
    """An untraced pass, a pass with spans and a pass with counters; more
    untraced passes while --seconds last. Spans and counters go in separate
    passes: a counter inside a timed call would add its cost to that call's
    self time."""
    targets = layer_targets(prog)
    spans = [t for t in targets if t[3] == SPAN]
    setup_tracer = Tracer()
    with traced(setup_tracer, spans):
        inputs = build_inputs(prog, args.workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    tracer = Tracer()
    with state.clock:
        untraced = [run_pass(prog, inputs, state)]
        with traced(tracer, spans):
            traced_pass = run_pass(prog, inputs, state)
        with traced(tracer, [t for t in targets if t[3] == COUNT]):
            counted_pass = run_pass(prog, inputs, state)
        add_passes(prog, inputs, state, untraced, deadline)
    metrics = per_layer(traced_pass, tracer, setup_tracer, [p.ref_s for p in untraced])
    return inputs, untraced + [traced_pass, counted_pass], metrics, tracer


def report(meta: dict, metrics: dict, state: State, attempted: int, failed: int) -> dict:
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}" + (f"  ({m['note']})" if m["note"] else ""))
    for problem in state.problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not state.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_only:
            print(json.dumps(measure_setup(args.workload, args.seed)))
            return 0
        prog = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    state = State(OUT / f"trace-{os.getpid()}.csv", OUT / f"summary-{os.getpid()}.json")
    try:
        once: list[SimOutcome] = []
        if args.trace:
            inputs, passes, metrics, tracer = traced_run(prog, args, state)
        else:
            inputs, passes, once, metrics = untraced_run(prog, args, state)
        attempted, failed = operations(passes, once)
        meta = metadata(prog, args, state, inputs)
        meta["passes"] = len(passes)
        meta["timed_once"] = len(once)
        if args.trace:
            tracer.write(OUT / f"spans-{tag}.bin", meta)
        result = report(meta, metrics, state, attempted, failed)
        runs = {l: {"trace_sha256": t, "summary_sha256": m} for l, (t, m) in sorted(state.digests.items())}
        (OUT / f"result-{tag}.json").write_text(
            json.dumps(
                {"meta": meta, "metrics": metrics, "problems": state.problems, "runs": runs},
                indent=1,
                sort_keys=True,
            )
        )
    finally:
        for path in (state.trace_path, state.summary_path):
            path.unlink(missing_ok=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
