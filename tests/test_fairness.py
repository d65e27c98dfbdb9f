from edgedispatch.fairness import (
    SuiteReport,
    all_suites,
    exact_convergence_suite,
    proportional_selection_check,
    schedule_table,
    short_term_suite,
)


def test_schedule_table_reference():
    rows, counts = schedule_table()
    assert len(rows) == 13
    assert [r.destination for r in rows] == [1, 2, 3, 1, 2, 1, 3, 1, 2, 1, 3, 2, 1]
    assert counts == {1: 6, 2: 4, 3: 3}
    assert [r.step for r in rows] == list(range(1, 14))
    assert rows[0].deficits_us == {1: 2000, 2: 0, 3: 0}
    assert rows[-1].deficits_us == {1: 12_000, 2: 12_000, 3: 12_000}


def test_schedule_table_custom_weights():
    rows, counts = schedule_table({0: 1000, 1: 1000}, steps=4)
    assert [r.destination for r in rows] == [0, 1, 0, 1]
    assert counts == {0: 2, 1: 2}


def test_schedule_table_derives_step_count():
    # lcm(1, 2) = 2 -> 2/1 + 2/2 = 3 steps
    rows, counts = schedule_table({0: 1000, 1: 2000})
    assert len(rows) == 3
    assert counts == {0: 2, 1: 1}
    assert rows[-1].deficits_us == {0: 2000, 1: 2000}


def test_short_term_suite_small():
    report = short_term_suite(runs=10, steps=300, seed=5)
    assert report.passed
    assert report.cases == 10
    assert report.details["deficit_spread_violations"] == 0
    assert report.details["weighted_spread_violations"] == 0
    assert report.describe() == "PASS short-term fairness bounds: 10 cases"


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


def test_all_suites_order():
    reports = all_suites(runs=5, steps=100, cases=2, draws=2000)
    assert [r.name for r in reports] == [
        "short-term fairness bounds",
        "exact inverse-proportional convergence",
        "long-term proportional selection",
    ]
    assert reports[0].passed and reports[1].passed


def test_suite_report_describe_failure():
    report = SuiteReport(name="thing", passed=False, cases=3, failures=["a", "b"])
    assert report.describe() == "FAIL thing: 3 cases, 2 failing (first: a)"
