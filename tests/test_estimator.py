import random
from fractions import Fraction

import pytest

from edgedispatch.core import INFINITE, from_ms
from edgedispatch.estimator import (
    NotCongested,
    ObservationWhileCongested,
    WeightTable,
)


def test_first_sample_is_adopted_whole():
    table = WeightTable(alpha=0.9)
    assert table.observe(0, from_ms(20)) == from_ms(20)
    assert table.get(0) == 20000


def test_blend_midpoint():
    # previous 10 ms, sample 20 ms, alpha 0.5 -> 15 ms
    table = WeightTable(alpha=0.5)
    table.observe(0, from_ms(10))
    assert table.observe(0, from_ms(20)) == from_ms(15)


def test_alpha_one_ignores_samples():
    table = WeightTable(alpha=1)
    table.observe(0, from_ms(10))
    assert table.observe(0, from_ms(20)) == from_ms(10)


def test_alpha_zero_adopts_samples():
    table = WeightTable(alpha=0)
    table.observe(0, 4000)
    assert table.observe(0, 9999) == 9999


def test_default_alpha_blend():
    # 0.9 * 10ms + 0.1 * 20ms = 11ms
    table = WeightTable()
    assert table.alpha == Fraction(9, 10)
    table.observe(7, 10000)
    assert table.observe(7, 20000) == 11000


def test_blend_rounds_half_up():
    table = WeightTable(alpha=0.9)
    table.observe(0, 1)
    # exact blend is 0.9*1 + 0.1*6 = 1.5
    assert table.observe(0, 6) == 2


def test_float_alpha_means_its_decimal_literal():
    assert WeightTable(alpha=0.9).alpha == Fraction(9, 10)
    assert WeightTable(alpha="0.85").alpha == Fraction(17, 20)


def test_alpha_range_enforced():
    with pytest.raises(ValueError):
        WeightTable(alpha=1.5)
    with pytest.raises(ValueError):
        WeightTable(alpha=-0.1)


def test_sample_validation():
    table = WeightTable()
    with pytest.raises(ValueError):
        table.observe(0, -1)
    # zero samples floor to one microsecond so weights stay positive
    assert table.observe(0, 0) == 1


def test_monotone_blend():
    rng = random.Random(11)
    for _ in range(300):
        table = WeightTable(alpha=rng.choice([0.1, 0.5, 0.9, 0.99]))
        prev = rng.randint(1, 1_000_000)
        sample = rng.randint(1, 1_000_000)
        table.observe(0, prev)
        new = table.observe(0, sample)
        assert min(prev, sample) <= new <= max(prev, sample)


def test_contraction_window():
    # samples bounded in [lo, hi] keep the estimate in [lo, hi]
    rng = random.Random(12)
    table = WeightTable(alpha=0.9)
    lo, hi = 2000, 9000
    for _ in range(500):
        table.observe(0, rng.randint(lo, hi))
        assert lo <= table.get(0) <= hi


def test_destinations_in_one_table_are_independent():
    table = WeightTable()
    table.observe(0, 1000)
    table.observe(1, 2000)
    table.mark_congested(1)
    assert table.get(0) == 1000
    assert not table.is_congested(0)
    assert table.get(2) is None


def test_congestion_pins_weight_to_infinite():
    table = WeightTable()
    table.observe(0, from_ms(12))
    table.mark_congested(0)
    assert table.get(0) is INFINITE
    assert table.is_congested(0)
    with pytest.raises(ObservationWhileCongested):
        table.observe(0, 5000)
    with pytest.raises(ObservationWhileCongested):
        table.assign(0, 5000)


def test_congestion_restore_is_bit_exact():
    rng = random.Random(13)
    for _ in range(200):
        table = WeightTable(alpha=0.9)
        for _ in range(rng.randint(1, 20)):
            table.observe(0, rng.randint(1, 10_000_000))
        before = table.get(0)
        table.mark_congested(0)
        assert table.clear_congestion(0) == before
        assert table.get(0) == before


def test_mark_is_idempotent():
    table = WeightTable()
    table.observe(0, 7000)
    table.mark_congested(0)
    table.mark_congested(0)  # second mark must not clobber the shadow
    assert table.clear_congestion(0) == 7000


def test_mark_unmeasured_then_clear_reverts_to_unmeasured():
    table = WeightTable()
    table.mark_congested(5)
    assert table.get(5) is INFINITE
    assert table.clear_congestion(5) is None
    assert table.get(5) is None
    assert not table.is_congested(5)


def test_clear_without_mark_raises():
    table = WeightTable()
    with pytest.raises(NotCongested):
        table.clear_congestion(0)
    table.observe(0, 100)
    with pytest.raises(NotCongested):
        table.clear_congestion(0)


def test_assign_overwrites():
    table = WeightTable()
    table.observe(0, 9000)
    assert table.assign(0, 400) == 400
    assert table.get(0) == 400
    assert table.assign(1, 0) == 1  # floored like observe


def test_snapshot_shape():
    table = WeightTable()
    table.observe(1, 500)
    table.observe(0, 300)
    table.mark_congested(1)
    snap = table.snapshot()
    assert snap == {
        0: {"weight": 300, "congested": False, "shadow": None},
        1: {"weight": None, "congested": True, "shadow": 500},
    }
