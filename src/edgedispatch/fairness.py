"""Executable fairness guarantees of the deficit scheduler.

Three suites back the scheduler's claims with brute force:

* short-term: over randomized frozen-weight runs, the spread between deficit
  counters, and the spread between weight-scaled selection counts, never
  exceed the largest weight at any step;
* exact convergence: once every destination has been charged a common
  multiple of the weights, selection counts are exactly inverse-proportional
  to the weights and all deficits are exactly equal;
* proportional draws: the randomized reciprocal-weight policy hits the same
  inverse-proportional frequencies in the long run, within tolerance.

The first two run on ``ledger.replay_frozen``. In its frozen replay each
deficit is exactly ``count * weight``, so the weighted-count spread is the
deficit spread: the weighted-count bound holds on a run whose deficit bound
holds and whose final deficits are its ``count * weight`` products, which
the short-term suite checks at the end of each run. The draw check reads
the bound ``PolicyState.select`` once and calls it once per draw; it returns
interned outcomes and allocates nothing per draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .core import US_PER_MS
from .ledger import DeficitLedger, replay_frozen
from .policy import PolicyKind, PolicyState

DEFAULT_SEED = 20260822

# The reference schedule's weights (``schedule_table``, ``replay-table``).
SCHEDULE_WEIGHTS_US = {1: 2 * US_PER_MS, 2: 3 * US_PER_MS, 3: 4 * US_PER_MS}


@dataclass(frozen=True)
class SuiteReport:
    name: str
    passed: bool
    cases: int
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name}: {self.cases} cases"
        if self.failures:
            line += f", {len(self.failures)} failing (first: {self.failures[0]})"
        return line


def short_term_suite(
    runs: int = 1000,
    steps: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> SuiteReport:
    """Bounded deficit spread, checked at every step of every randomized run
    (2-10 destinations, weights 1-50 ms), and bounded weighted-count spread:
    the deficit bound plus ``deficit == count * weight`` at the run's end."""
    rng = random.Random(seed)
    failures: list[str] = []
    spread_violations = 0
    weighted_violations = 0
    for case in range(runs):
        k = rng.randint(2, 10)
        weights = [rng.randint(1 * US_PER_MS, 50 * US_PER_MS) for _ in range(k)]
        result = replay_frozen(weights, steps)
        if result.spread_violation >= 0:
            spread_violations += 1
            failures.append(
                f"case {case} weights {weights}: deficit spread exceeded the "
                f"largest weight at step {result.spread_violation}"
            )
        products = [n * w for n, w in zip(result.counts, weights)]
        if products != result.deficits:
            failures.append(
                f"case {case} weights {weights}: deficits {result.deficits} "
                f"!= count x weight {products}"
            )
        if products != result.deficits or result.spread_violation >= 0:
            weighted_violations += 1
    return SuiteReport(
        name="short-term fairness bounds",
        passed=not failures,
        cases=runs,
        failures=failures,
        details={
            "steps_per_run": steps,
            "deficit_spread_violations": spread_violations,
            "weighted_spread_violations": weighted_violations,
        },
    )


def _convergence_case(rng: random.Random, cap: int = 400_000):
    """Weight set with a tractable full period: a common unit times small
    integer multipliers keeps the least common multiple small."""
    while True:
        unit = rng.choice([125, 250, 500, 1000])
        k = rng.randint(2, 6)
        multipliers = [rng.randint(1, 16) for _ in range(k)]
        weights = [unit * m for m in multipliers]
        period = math.lcm(*weights)
        horizon = sum(period // w for w in weights)
        if horizon <= cap:
            return weights, period, horizon


def exact_convergence_suite(
    cases: int = 100,
    seed: int = DEFAULT_SEED,
) -> SuiteReport:
    """At the full period's horizon, counts equal period/weight exactly and
    every deficit equals the period exactly."""
    rng = random.Random(seed)
    failures: list[str] = []
    total_steps = 0
    for case in range(cases):
        weights, period, horizon = _convergence_case(rng)
        total_steps += horizon
        result = replay_frozen(weights, horizon)
        expected_counts = [period // w for w in weights]
        if result.counts != expected_counts:
            failures.append(
                f"case {case} weights {weights}: counts {result.counts} "
                f"!= {expected_counts} after {horizon} steps"
            )
        if any(d != period for d in result.deficits):
            failures.append(
                f"case {case} weights {weights}: deficits {result.deficits} "
                f"not all equal to the period {period}"
            )
    return SuiteReport(
        name="exact inverse-proportional convergence",
        passed=not failures,
        cases=cases,
        failures=failures,
        details={"total_steps": total_steps},
    )


def proportional_selection_check(
    draws: int = 1_000_000,
    seed: int = DEFAULT_SEED,
    tolerance: float = 0.01,
) -> SuiteReport:
    """Empirical selection ratios of the reciprocal-weight random policy
    against their targets: N_i/N_j must come out as w_j/w_i."""
    weights = {0: 1 * US_PER_MS, 1: 2 * US_PER_MS, 2: 4 * US_PER_MS}
    policy = PolicyState.preloaded(PolicyKind.RANDOM_PROPORTIONAL, weights, seed=seed)
    counts = {d: 0 for d in weights}
    select = policy.select
    for _ in range(draws):
        counts[select(0).destination] += 1
    failures: list[str] = []
    worst = 0.0
    for i in sorted(weights):
        for j in sorted(weights):
            if i == j:
                continue
            expected = weights[j] / weights[i]
            actual = counts[i] / counts[j] if counts[j] else float("inf")
            deviation = abs(actual / expected - 1.0)
            worst = max(worst, deviation)
            if deviation > tolerance:
                failures.append(
                    f"ratio {i}/{j}: {actual:.4f} vs expected {expected:.4f} "
                    f"(off by {deviation:.2%})"
                )
    return SuiteReport(
        name="long-term proportional selection",
        passed=not failures,
        cases=draws,
        failures=failures,
        details={"counts": counts, "worst_deviation": worst},
    )


def all_suites(
    runs: int = 1000,
    steps: int = 10_000,
    cases: int = 100,
    draws: int = 1_000_000,
    seed: int = DEFAULT_SEED,
) -> list[SuiteReport]:
    return [
        short_term_suite(runs=runs, steps=steps, seed=seed),
        exact_convergence_suite(cases=cases, seed=seed),
        proportional_selection_check(draws=draws, seed=seed),
    ]


@dataclass(frozen=True)
class ScheduleStep:
    step: int
    destination: int
    deficits_us: dict[int, int]


def schedule_table(
    weights_us: dict[int, int] = SCHEDULE_WEIGHTS_US, steps: int | None = None
):
    """The reference schedule: weights 2/3/4 ms, 13 steps, lowest id wins
    ties. Returns the per-step table plus final selection counts."""
    if steps is None:
        period = math.lcm(*weights_us.values())
        steps = sum(period // w for w in weights_us.values())
    ledger = DeficitLedger()
    for dest in sorted(weights_us):
        ledger.admit(dest, 0)
    rows: list[ScheduleStep] = []
    counts = {d: 0 for d in weights_us}
    for step in range(1, steps + 1):
        dest = ledger.pop_min()
        ledger.charge(dest, weights_us[dest])
        counts[dest] += 1
        rows.append(ScheduleStep(step, dest, ledger.decode()))
    return rows, counts
