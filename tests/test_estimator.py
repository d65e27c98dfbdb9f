import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgedispatch.core import from_ms
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
    assert table.get(0) is None
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
    table.mark_congested(0)  # second mark must not clobber the held estimate
    assert table.get(0) is None and table.is_congested(0)
    assert table.clear_congestion(0) == 7000


def test_mark_unmeasured_then_clear_reverts_to_unmeasured():
    table = WeightTable()
    table.mark_congested(5)
    assert table.get(5) is None
    assert table.is_congested(5)
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


class ModelTable:
    """A ``WeightTable`` as a plain dict of ``{value, shadow, congested}``
    per destination: a mark moves the value aside into the shadow, a clear
    moves it back. The blend is computed with ``Fraction`` and rounded
    half up by ``floor(x + 1/2)``."""

    def __init__(self, alpha):
        self.alpha = Fraction(str(alpha))
        self.entries = {}

    def observe(self, dest, sample):
        if sample < 0:
            raise ValueError("negative sample")
        entry = self.entries.setdefault(dest, {"value": None, "shadow": None, "congested": False})
        if entry["congested"]:
            raise ObservationWhileCongested(str(dest))
        sample = max(sample, 1)
        if entry["value"] is not None:
            blend = self.alpha * entry["value"] + (1 - self.alpha) * sample
            sample = math.floor(blend + Fraction(1, 2))
        entry["value"] = sample
        return sample

    def assign(self, dest, value):
        entry = self.entries.setdefault(dest, {"value": None, "shadow": None, "congested": False})
        if entry["congested"]:
            raise ObservationWhileCongested(str(dest))
        entry["value"] = max(value, 1)
        return entry["value"]

    def mark_congested(self, dest):
        entry = self.entries.setdefault(dest, {"value": None, "shadow": None, "congested": False})
        if not entry["congested"]:
            entry.update(value=None, shadow=entry["value"], congested=True)

    def clear_congestion(self, dest):
        entry = self.entries.get(dest)
        if entry is None or not entry["congested"]:
            raise NotCongested(str(dest))
        entry.update(value=entry["shadow"], shadow=None, congested=False)
        return entry["value"]

    def get(self, dest):
        entry = self.entries.get(dest)
        return None if entry is None else entry["value"]

    def is_congested(self, dest):
        return dest in self.entries and self.entries[dest]["congested"]

    def snapshot(self):
        return {
            dest: {"weight": e["value"], "congested": e["congested"], "shadow": e["shadow"]}
            for dest, e in sorted(self.entries.items())
        }


DESTS = (0, 1, 2)
OPERATIONS = st.one_of(
    st.tuples(st.just("observe"), st.sampled_from(DESTS), st.integers(-2, 50_000)),
    st.tuples(st.just("assign"), st.sampled_from(DESTS), st.integers(-2, 50_000)),
    st.tuples(st.just("mark_congested"), st.sampled_from(DESTS)),
    st.tuples(st.just("clear_congestion"), st.sampled_from(DESTS)),
)


def outcome(method, args):
    try:
        return "returned", method(*args)
    except (ValueError, ObservationWhileCongested, NotCongested) as e:
        return "raised", type(e)


@settings(max_examples=300)
@given(
    alpha=st.sampled_from((0, 0.5, 0.9, 1, "0.85", Fraction(1, 3))),
    ops=st.lists(OPERATIONS, max_size=40),
)
def test_the_table_matches_a_model_that_keeps_a_shadow(alpha, ops):
    """Every call, refused ones included (a sample on a congested
    destination, a clear with no mark, a negative sample), repeated marks
    and marks on destinations never measured: the table returns or raises
    what the model does and then reads the same through every accessor."""
    table, model = WeightTable(alpha=alpha), ModelTable(alpha)
    for name, *args in ops:
        assert outcome(getattr(table, name), args) == outcome(getattr(model, name), args), (name, args)
        for dest in DESTS:
            assert table.get(dest) == model.get(dest)
            assert table.is_congested(dest) == model.is_congested(dest)
        assert table.snapshot() == model.snapshot()
