"""Acceptance gate: the nine headline guarantees, one test each.

Every test prints a `criterion N: PASS/FAIL` line (past the capture, so it
shows in normal pytest output) and then asserts. Runtime-bounded criteria
time themselves; the bounds hold on the pure-Python backend, with no build
step.
"""

import random
import time

from edgedispatch.fairness import (
    exact_convergence_suite,
    proportional_selection_check,
    short_term_suite,
)
from edgedispatch.ledger import DeficitLedger
from edgedispatch.metrics import nearest_rank, summarize, trace_bytes
from edgedispatch.policy import PolicyKind, PolicyState
from edgedispatch.scenario import load_scenario
from edgedispatch.simnet import run

import pytest

from helpers import NaiveLedger, check_same_state


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def spread_runs():
    # criteria 2 and 3 share one pass over the same randomized runs
    start = time.perf_counter()
    suite = short_term_suite(runs=1000, steps=10_000)
    return suite, time.perf_counter() - start


def test_criterion_1_reference_schedule(capsys):
    state = PolicyState.preloaded(PolicyKind.ROUND_ROBIN, {1: 2000, 2: 3000, 3: 4000})
    start = time.perf_counter()
    picks = [state.select(0) for _ in range(13)]
    elapsed = time.perf_counter() - start
    counts = tuple(picks.count(d) for d in (1, 2, 3))
    deficits = state.ledger.decode()
    ok = (
        picks == [1, 2, 3, 1, 2, 1, 3, 1, 2, 1, 3, 2, 1]
        and counts == (6, 4, 3)
        and deficits == {1: 12_000, 2: 12_000, 3: 12_000}
        and elapsed < 1.0
    )
    report(
        capsys,
        1,
        ok,
        f"13-step schedule, counts {counts}, all deficits 12 ms, {elapsed:.4f}s",
    )


def test_criterion_2_deficit_spread_bound(capsys, spread_runs):
    suite, elapsed = spread_runs
    violations = suite.details["deficit_spread_violations"]
    ok = violations == 0 and elapsed < 30.0
    report(
        capsys,
        2,
        ok,
        f"{violations} deficit-spread violations in 1000 runs x 10000 steps "
        f"({elapsed:.1f}s)",
    )


def test_criterion_3_weighted_count_spread_bound(capsys, spread_runs):
    suite, elapsed = spread_runs
    violations = suite.details["weighted_spread_violations"]
    ok = violations == 0 and elapsed < 30.0
    report(
        capsys,
        3,
        ok,
        f"{violations} weighted-count-spread violations in the same runs "
        f"({elapsed:.1f}s)",
    )


def test_criterion_4_exact_convergence(capsys):
    suite = exact_convergence_suite(cases=100)
    ok = suite.passed
    report(
        capsys,
        4,
        ok,
        f"100 weight sets exact at the full period "
        f"({suite.details['total_steps']} steps total)"
        + ("" if ok else f"; first failure: {suite.failures[0]}"),
    )


def test_criterion_5_proportional_draws(capsys):
    suite = proportional_selection_check(draws=1_000_000)
    worst = suite.details["worst_deviation"]
    counts = suite.details["counts"]
    # The exact draw sequence the lemmas benchmark times: a pick that moves
    # shows here even when every ratio stays within the tolerance.
    ok = suite.passed and worst <= 0.01 and counts == {0: 571790, 1: 285117, 2: 143093}
    report(
        capsys,
        5,
        ok,
        f"1e6 draws over weights 1/2/4 ms, worst ratio deviation {worst:.2%}, counts {counts}",
    )


# -- criterion 6 machinery --------------------------------------------------

def apply_both(ledger, oracle, op, *args):
    """Apply one op to both implementations; identical outcome required:
    both return the same value, or both raise an exception of the same type."""
    try:
        got = getattr(ledger, op)(*args)
    except Exception as exc:
        try:
            getattr(oracle, op)(*args)
        except Exception as oracle_exc:
            assert type(oracle_exc) is type(exc), (op, args, exc, oracle_exc)
        else:
            raise AssertionError(f"{op}{args}: ledger raised {exc!r}, oracle did not")
    else:
        assert getattr(oracle, op)(*args) == got, (op, args)
    check_same_state(ledger, oracle)


def replay(path):
    """A fresh ledger and oracle after the ops of ``path``. Only the front
    can be charged, so a state is reached by the ops that first reached it."""
    ledger, oracle = DeficitLedger(), NaiveLedger()
    for op, *args in path:
        getattr(ledger, op)(*args)
        getattr(oracle, op)(*args)
    return ledger, oracle


def exhaustive_walk(max_depth=8, dests=4, amounts=(0, 3, 5)):
    """Every reachable op sequence up to max_depth, deduplicated by decoded
    state (the encoding is canonical, so equal decodes behave equally). At
    depth ``n`` an admit enters at ``amounts[n % 3]``; only the front can be
    charged, once for each of the amounts."""
    seen = {((), 0)}
    stack = [((), 0, ())]
    transitions = 0
    while stack:
        items, depth, path = stack.pop()
        state = dict(items)
        if depth == max_depth:
            continue
        amount = amounts[depth % len(amounts)]
        ops = [("admit", d, amount) for d in range(dests) if d not in state]
        ops += [("evict", d) for d in state]
        if state:
            ops += [("charge", [weight] * dests) for weight in amounts]
        for op in ops:
            ledger, oracle = replay(path)
            apply_both(ledger, oracle, *op)
            transitions += 1
            key = (tuple(sorted(oracle.decode().items())), depth + 1)
            if key not in seen:
                seen.add(key)
                stack.append((*key, (*path, op)))
    return len(seen), transitions


def randomized_sequences(sequences=100_000, length=10, seed=1):
    rng = random.Random(seed)
    # the charges' weight vectors; the last one is refused at every front
    pool = [[rng.choice([0, 1, 3, 5, 7]) for _ in range(4)] for _ in range(32)]
    pool.append([-1] * 4)
    for _ in range(sequences):
        ledger, oracle = DeficitLedger(), NaiveLedger()
        for _ in range(length):
            d = rng.randrange(4)
            roll = rng.random()
            if roll < 0.45:
                apply_both(ledger, oracle, "charge", rng.choice(pool))
            elif roll < 0.8:
                apply_both(ledger, oracle, "admit", d, rng.choice([0, 0, 2, 7]))
            else:
                apply_both(ledger, oracle, "evict", d)
    return sequences


def test_criterion_6_ledger_oracle_equivalence(capsys):
    ok, detail = True, ""
    try:
        ledger = DeficitLedger()
        for d in range(4):
            ledger.admit(d, 0)
        for d in range(4):
            # the front is the smallest id still at zero
            assert ledger.charge([4, 6, 7, 7]) == d
        assert ledger.deltas() == [(0, 4), (1, 2), (2, 1), (3, 0)]
        states, transitions = exhaustive_walk()
        sequences = randomized_sequences()
        detail = (
            f"encoding 4,6,7,7 -> deltas 4,2,1,0; exhaustive walk "
            f"{transitions} transitions over {states} states; "
            f"{sequences} randomized sequences"
        )
    except AssertionError as exc:
        ok, detail = False, f"oracle divergence: {exc}"
    report(capsys, 6, ok, detail)


def test_criterion_7_blackout_and_restore(capsys):
    result = run(load_scenario("ring-tree"))
    mark, clear = result.congestion_log
    leaked = [
        row
        for row in result.completed
        if row.router == 0
        and row.destination == 1
        and 2_000_000 <= row.dispatch_us < 4_000_000
    ]
    restored = (
        mark.congested
        and not clear.congested
        and mark.weights_us == clear.weights_us
        and all(w is not None for _, w in mark.weights_us)
    )
    ok = not leaked and restored
    report(
        capsys,
        7,
        ok,
        f"{len(leaked)} dispatches into the 2s-4s window; weights "
        f"{dict(mark.weights_us)} restored bit-exactly at clear",
    )


def test_criterion_8_rr_beats_li_on_the_line(capsys):
    start = time.perf_counter()
    losses = []
    for seed in range(1, 6):
        stats = {}
        for kind in (PolicyKind.ROUND_ROBIN, PolicyKind.LEAST_IMPEDANCE):
            scenario = load_scenario("line").with_overrides(
                policy_kind=kind, seed=seed
            )
            result = run(scenario)
            latencies = sorted(r.latency_us for r in result.completed)
            stats[kind] = (
                sum(latencies) / len(latencies),
                nearest_rank(latencies, 95),
            )
        rr, li = stats[PolicyKind.ROUND_ROBIN], stats[PolicyKind.LEAST_IMPEDANCE]
        if not (rr[0] <= li[0] and rr[1] <= li[1]):
            losses.append(f"seed {seed}: rr {rr} vs li {li}")
    elapsed = time.perf_counter() - start
    ok = not losses and elapsed < 120.0
    report(
        capsys,
        8,
        ok,
        f"rr mean and p95 never above li across seeds 1-5 ({elapsed:.1f}s)"
        if ok
        else f"{'; '.join(losses)} ({elapsed:.1f}s)",
    )


def test_criterion_9_byte_identical_reruns(capsys):
    checked = []
    ok = True
    for name, kind in (("line", None), ("line", PolicyKind.LEAST_IMPEDANCE), ("ring-tree", None)):
        scenario = load_scenario(name).with_overrides(policy_kind=kind)
        first = run(scenario)
        second = run(scenario)
        same_trace = trace_bytes(first.rows) == trace_bytes(second.rows)
        same_summary = (
            summarize(first.rows, first.snapshot).to_json()
            == summarize(second.rows, second.snapshot).to_json()
        )
        ok = ok and same_trace and same_summary
        checked.append(f"{name}/{first.policy}")
    report(
        capsys,
        9,
        ok,
        f"trace and summary bytes identical on rerun for {', '.join(checked)}",
    )
