from dataclasses import replace

import pytest

from edgedispatch import fairness, ledger
from edgedispatch.fairness import (
    SuiteReport,
    all_suites,
    exact_convergence_suite,
    proportional_selection_check,
    schedule_table,
    short_term_suite,
)


# Each step of the reference schedule: the step, the destination charged,
# and every deficit after the charge in ms, in ledger order, so the head of
# one row is the next row's pick.
REFERENCE_SCHEDULE = [
    (1, 1, [(2, 0), (3, 0), (1, 2)]),
    (2, 2, [(3, 0), (1, 2), (2, 3)]),
    (3, 3, [(1, 2), (2, 3), (3, 4)]),
    (4, 1, [(2, 3), (1, 4), (3, 4)]),
    (5, 2, [(1, 4), (3, 4), (2, 6)]),
    (6, 1, [(3, 4), (1, 6), (2, 6)]),
    (7, 3, [(1, 6), (2, 6), (3, 8)]),
    (8, 1, [(2, 6), (1, 8), (3, 8)]),
    (9, 2, [(1, 8), (3, 8), (2, 9)]),
    (10, 1, [(3, 8), (2, 9), (1, 10)]),
    (11, 3, [(2, 9), (1, 10), (3, 12)]),
    (12, 2, [(1, 10), (2, 12), (3, 12)]),
    (13, 1, [(1, 12), (2, 12), (3, 12)]),
]


def test_schedule_table_reference():
    rows, counts = schedule_table()
    assert [(r.step, r.destination, list(r.deficits_us.items())) for r in rows] == [
        (step, dest, [(d, ms * 1000) for d, ms in deficits])
        for step, dest, deficits in REFERENCE_SCHEDULE
    ]
    assert counts == {1: 6, 2: 4, 3: 3}


def test_short_term_suite_small():
    report = short_term_suite(runs=10, steps=300, seed=5)
    assert report.passed
    assert report.cases == 10
    assert report.details["deficit_spread_violations"] == 0
    assert report.details["weighted_spread_violations"] == 0
    assert report.describe() == "PASS short-term fairness bounds: 10 cases"


def test_short_term_suite_checks_count_times_weight(monkeypatch):
    # A replay whose final deficits are not count x weight breaks the
    # identity the weighted-count bound rests on, with every deficit spread
    # still in bounds: only the weighted-count count may catch it.
    real = fairness.replay_frozen

    def off_by_one(weights, steps):
        result = real(weights, steps)
        return replace(result, deficits=[result.deficits[0] + 1] + result.deficits[1:])

    monkeypatch.setattr(fairness, "replay_frozen", off_by_one)
    report = short_term_suite(runs=4, steps=300, seed=5)
    assert not report.passed
    assert report.details["deficit_spread_violations"] == 0
    assert report.details["weighted_spread_violations"] == 4
    assert len(report.failures) == 4
    assert all("!= count x weight" in f for f in report.failures)


def test_short_term_suite_sees_a_charge_that_no_selection_counts(monkeypatch):
    # A replay that charges each selection twice keeps every deficit a
    # multiple of its weight. Counts tallied per step then disagree with the
    # deficits; counts derived from them would make the suite's
    # count x weight check hold by construction.
    real = ledger.heapreplace

    def charge_twice(heap, key):
        return real(heap, 2 * key - heap[0])

    monkeypatch.setattr(ledger, "heapreplace", charge_twice)
    report = short_term_suite(runs=4, steps=300, seed=5)
    assert not report.passed
    assert report.details["weighted_spread_violations"] == 4
    assert sum("!= count x weight" in f for f in report.failures) == 4


def test_exact_convergence_suite_small():
    report = exact_convergence_suite(cases=5, seed=7)
    assert report.passed
    assert report.cases == 5
    assert report.details["total_steps"] > 0


def test_proportional_check_details():
    report = proportional_selection_check(draws=400_000)
    assert report.passed
    assert sum(report.details["counts"].values()) == 400_000
    assert report.details["worst_deviation"] < 0.01


def test_proportional_draw_sequence_is_pinned():
    # Exact counts at the default seed: a pick that moves shows here even
    # when every ratio stays within the tolerance.
    report = proportional_selection_check(draws=100_000, tolerance=0.05)
    assert report.details["counts"] == {0: 57707, 1: 28107, 2: 14186}


def test_all_suites_order():
    reports = all_suites(runs=5, steps=100, cases=2, draws=2000)
    assert [r.name for r in reports] == [
        "short-term fairness bounds",
        "exact inverse-proportional convergence",
        "long-term proportional selection",
    ]
    assert reports[0].passed and reports[1].passed


SUITE_SIZES = [
    (short_term_suite, "runs"),
    (short_term_suite, "steps"),
    (exact_convergence_suite, "cases"),
    (proportional_selection_check, "draws"),
] + [(all_suites, name) for name in ("runs", "steps", "cases", "draws")]


@pytest.mark.parametrize("size", [0, -2])
@pytest.mark.parametrize(
    "suite, name", SUITE_SIZES, ids=[f"{suite.__name__}-{name}" for suite, name in SUITE_SIZES]
)
def test_suites_refuse_a_size_below_one(suite, name, size):
    # a suite of no cases would report a vacuous pass
    with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {size}$"):
        suite(**{name: size})


def test_suite_report_describe_failure():
    report = SuiteReport(name="thing", passed=False, cases=3, failures=["a", "b"])
    assert report.describe() == "FAIL thing: 3 cases, 2 failing (first: a)"
