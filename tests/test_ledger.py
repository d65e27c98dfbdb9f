import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from edgedispatch.ledger import (
    REPLAY_BACKEND,
    AlreadyAdmitted,
    DeficitLedger,
    EmptyLedger,
    ReplayResult,
    SortedKeys,
    UnknownDestination,
    replay_frozen,
)

from helpers import NaiveLedger, check_same_state


def ledger_with(deficits):
    """A ledger at ``deficits``: every id admitted at 0, then one front
    charge per id. Each charge takes the smallest id still at 0 to its
    target, so the targets must all be positive, or the zero ones must
    follow every positive one in id order."""
    led = DeficitLedger()
    for dest in sorted(deficits):
        led.admit(dest, 0)
    # charging after all admits avoids admit-time renormalization
    for _ in deficits:
        led.charge(deficits)
    assert led.decode() == deficits
    return led


def test_difference_encoding_verbatim():
    # absolute deficits {4, 6, 7, 7} are stored as deltas {4, 2, 1, 0}
    led = ledger_with({0: 4, 1: 6, 2: 7, 3: 7})
    assert led.deltas() == [(0, 4), (1, 2), (2, 1), (3, 0)]
    assert led.decode() == {0: 4, 1: 6, 2: 7, 3: 7}


def test_charge_takes_the_least_deficit_and_the_smaller_id_on_ties():
    weights = {1: 10, 2: 10, 3: 10}
    assert ledger_with({1: 4, 2: 6}).charge(weights) == 1
    assert ledger_with({1: 6, 2: 4}).charge(weights) == 2
    assert ledger_with({1: 5, 2: 5}).charge(weights) == 1  # tie -> smaller id
    assert ledger_with({3: 0}).charge(weights) == 3


def test_empty_ledger_errors():
    led = DeficitLedger()
    with pytest.raises(EmptyLedger):
        led.charge({})


def test_charge_repositions():
    led = ledger_with({0: 0, 1: 0, 2: 0})
    assert led.charge([2, 9, 9]) == 0
    # order is now 1, 2, 0
    assert led.deltas() == [(1, 0), (2, 0), (0, 2)]
    assert led.decode() == {1: 0, 2: 0, 0: 2}
    assert led.charge([2, 3, 9]) == 1
    assert led.decode() == {2: 0, 0: 2, 1: 3}
    assert len(led) == 3


def test_charge_zero_changes_nothing_decoded():
    led = ledger_with({0: 3, 1: 5})
    assert led.charge({0: 0}) == 0
    assert led.charge({0: 0}) == 0
    assert led.decode() == {0: 3, 1: 5}


def test_charge_validation():
    led = ledger_with({0: 1, 1: 2})
    with pytest.raises(ValueError):
        led.charge({0: -1, 1: 5})
    # a refused charge changes nothing, and only the front's weight is read
    assert led.decode() == {0: 1, 1: 2}
    assert led.charge({0: 4}) == 0
    assert led.decode() == {1: 2, 0: 5}


def test_admit_renormalizes_by_previous_min():
    led = ledger_with({0: 4, 1: 6})
    led.admit(2, 0)
    assert led.decode() == {0: 0, 1: 2, 2: 0}


def test_admit_into_empty():
    led = DeficitLedger()
    led.admit(5, 0)
    assert led.decode() == {5: 0}


def test_admit_with_initial_deficit():
    led = ledger_with({0: 0})
    led.admit(1, 7)
    assert led.decode() == {0: 0, 1: 7}


def test_admit_validation():
    led = ledger_with({0: 0})
    with pytest.raises(AlreadyAdmitted):
        led.admit(0, 0)
    with pytest.raises(ValueError):
        led.admit(1, -2)


def test_evict_leaves_others_decoded_unchanged():
    led = ledger_with({0: 4, 1: 6, 2: 7})
    led.evict(1)
    assert led.decode() == {0: 4, 2: 7}
    led = ledger_with({0: 4, 1: 6, 2: 7})
    led.evict(0)  # former second element becomes the min
    assert led.decode() == {1: 6, 2: 7}
    assert led.charge({1: 0}) == 1


def test_evict_to_empty():
    led = ledger_with({0: 3})
    led.evict(0)
    assert len(led) == 0
    with pytest.raises(UnknownDestination):
        led.evict(0)


def test_contains_and_len():
    led = ledger_with({2: 1, 4: 9})
    assert 2 in led and 4 in led and 3 not in led
    assert len(led) == 2


def test_random_sequences_match_oracle():
    rng = random.Random(99)
    for _ in range(400):
        led, oracle = DeficitLedger(), NaiveLedger()
        for _ in range(rng.randint(1, 40)):
            op = rng.choice(("admit", "charge", "evict"))
            if op == "admit":
                free = [d for d in range(6) if d not in oracle]
                if free:
                    dest = rng.choice(free)
                    amount = rng.randint(0, 50)
                    led.admit(dest, amount)
                    oracle.admit(dest, amount)
            elif op == "charge" and len(oracle):
                weights = [rng.randint(0, 50) for _ in range(6)]
                assert led.charge(weights) == oracle.charge(weights)
            elif op == "evict" and len(oracle):
                dest = rng.choice(sorted(oracle.decode()))
                led.evict(dest)
                oracle.evict(dest)
            check_same_state(led, oracle)


def test_large_ledger_matches_oracle():
    """k = 300 against the oracle: select-then-charge runs mixed with admits
    and evicts at the front, the back and anywhere between; admits after
    long charge runs, so renormalization moves a large base; and a full
    drain and refill, so the base outlives an empty ledger."""
    rng = random.Random(300)
    k = 300
    weights = [rng.randint(1, 60_000) for _ in range(k)]
    led, oracle = DeficitLedger(), NaiveLedger()

    def both(op, *args):
        assert getattr(led, op)(*args) == getattr(oracle, op)(*args)

    def select_and_charge(steps):
        for _ in range(steps):
            both("charge", weights)

    def admit_some(count):
        absent = [d for d in range(k) if d not in oracle]
        for dest in rng.sample(absent, min(count, len(absent))):
            # mostly zero, so admitted destinations tie with the minimum
            both("admit", dest, rng.choice((0, 0, rng.randint(0, 70_000))))
            check_same_state(led, oracle)

    admit_some(k)
    for _ in range(40):
        select_and_charge(rng.randint(1, 400))
        check_same_state(led, oracle)
        order = list(led.decode())
        for dest in {order[0], order[-1], rng.choice(order)}:
            both("evict", dest)
            check_same_state(led, oracle)
        both("charge", dict.fromkeys(oracle.decode(), rng.randint(0, 70_000)))
        admit_some(rng.randint(1, 4))
    for dest in rng.sample(sorted(oracle.decode()), len(oracle)):
        both("evict", dest)
    check_same_state(led, oracle)
    admit_some(k)
    select_and_charge(3000)
    check_same_state(led, oracle)


# Keys of many widths, so a later key often forces the shift up; values of
# either sign, mostly tiny, so ties broken by key are common.
SORTED_KEYS = st.sampled_from([0, 1, 2, 3, 7, 8, 255, 256, 2**40, 2**40 + 1]) | st.integers(0, 2**70)
SORTED_VALUES = st.integers(-3, 3) | st.integers(-(2**64), 2**64)
SORTED_KEY_OPS = st.lists(
    st.tuples(st.just("set"), SORTED_KEYS, SORTED_VALUES)
    | st.tuples(st.just("discard"), SORTED_KEYS, st.none()),
    max_size=60,
)


@settings(max_examples=300)
@given(ops=SORTED_KEY_OPS)
@example(ops=[("set", 0, 5), ("set", 2**40, 5), ("set", 0, 6), ("set", 3, 6)])
@example(ops=[("set", 1, -2), ("set", 0, 9), ("set", 8, -2), ("discard", 1, None)])
def test_sorted_keys_match_a_sorted_pair_oracle(ops):
    keys, oracle, width = SortedKeys(), {}, 0
    for op, key, value in ops:
        if op == "set":
            keys.set(key, value)
            oracle[key] = value
            width = max(width, key.bit_length())
        else:
            keys.discard(key)
            oracle.pop(key, None)
        # the shift is the widest key so far, and the ints decode to the
        # oracle's pairs in the oracle's order
        assert (keys.shift, keys.mask) == (width, (1 << width) - 1)
        assert [(e >> keys.shift, e & keys.mask) for e in keys.order] == sorted(
            (v, k) for k, v in oracle.items()
        )
        assert keys.values == oracle


def test_sorted_keys_refuse_a_negative_key():
    keys = SortedKeys()
    keys.set(3, 1)
    with pytest.raises(ValueError, match="^a key must be a non-negative int, got -1$"):
        keys.set(-1, 0)
    assert (keys.order, keys.values) == ([1 << 2 | 3], {3: 1})


DESTS = st.integers(0, 5)
# mostly tiny amounts, so equal deficits (ties broken by id) are common
AMOUNTS = st.integers(0, 3) | st.integers(0, 10**6)
WEIGHTS = st.lists(AMOUNTS, min_size=6, max_size=6)


class LedgerMachine(RuleBasedStateMachine):
    """Random admit, charge and evict sequences, every error path included,
    checked against the naive oracle after each step; a charge returns the
    oracle's front."""

    def __init__(self):
        super().__init__()
        self.ledger = DeficitLedger()
        self.oracle = NaiveLedger()

    @rule(dest=DESTS, amount=AMOUNTS)
    def admit(self, dest, amount):
        if dest in self.oracle:
            with pytest.raises(AlreadyAdmitted):
                self.ledger.admit(dest, amount)
        else:
            self.ledger.admit(dest, amount)
            self.oracle.admit(dest, amount)

    @precondition(lambda self: len(self.oracle))
    @rule(weights=WEIGHTS)
    def charge(self, weights):
        assert self.ledger.charge(weights) == self.oracle.charge(weights)

    @rule(dest=DESTS)
    def evict(self, dest):
        if dest not in self.oracle:
            with pytest.raises(UnknownDestination):
                self.ledger.evict(dest)
        else:
            self.ledger.evict(dest)
            self.oracle.evict(dest)

    @rule(dest=DESTS, amount=st.integers(max_value=-1))
    def negative_amount(self, dest, amount):
        if len(self.oracle):
            with pytest.raises(ValueError):
                self.ledger.charge([amount] * 6)
        if dest not in self.oracle:
            with pytest.raises(ValueError):
                self.ledger.admit(dest, amount)

    @precondition(lambda self: not len(self.oracle))
    @rule()
    def charge_of_empty(self):
        with pytest.raises(EmptyLedger):
            self.ledger.charge([0] * 6)

    @invariant()
    def matches_oracle(self):
        check_same_state(self.ledger, self.oracle)
        assert all((d in self.ledger) == (d in self.oracle) for d in range(6))


TestLedgerMachine = LedgerMachine.TestCase


def manual_replay(led, weights, steps):
    """Select-then-charge by hand over the empty ledger ``led``; item ``s``
    of the returned list is the ``ReplayResult`` after step ``s``, item 0
    the start.

    It computes ``count * weight`` on its own and asserts at every step that
    the weighted selection-count spread equals the deficit spread, the
    identity the replay reports one spread for.
    """
    k = len(weights)
    max_w = max(weights)
    for dest in range(k):
        led.admit(dest, 0)
    counts = [0] * k
    spread_violation = -1
    max_spread = 0
    results = [ReplayResult([0] * k, [0] * k, -1, 0)]
    for step in range(1, steps + 1):
        counts[led.charge(weights)] += 1
        decoded = led.decode()
        deficits = decoded.values()
        spread = max(deficits) - min(deficits)
        max_spread = max(max_spread, spread)
        if spread > max_w and spread_violation < 0:
            spread_violation = step
        products = [c * w for c, w in zip(counts, weights)]
        assert max(products) - min(products) == spread, (weights, step)
        by_id = [*map(decoded.__getitem__, range(k))]
        results.append(ReplayResult(counts[:], by_id, spread_violation, max_spread))
    return results


# Each compared prefix is a fresh replay, so a pin costs the square of this.
PINNED_PREFIXES = 128


def assert_replay_pinned(led, weights, steps):
    """The replay of every prefix up to ``PINNED_PREFIXES`` steps, and of all
    ``steps``, equals the manual loop's state after that step.

    The replay records no selection order, but two consecutive prefixes
    differ in one count, the one selected at that step: equal results at
    every prefix pin the order as well as the state.
    """
    expected = manual_replay(led, weights, steps)
    for s in [*range(min(steps, PINNED_PREFIXES) + 1), steps]:
        assert replay_frozen(weights, s) == expected[s], (weights, s)


def test_replay_matches_manual_ledger_loop():
    rng = random.Random(5)
    weight_sets = [[700], [3, 3], [1, 1, 1, 1], [2, 1, 2, 1, 2]]
    for _ in range(30):
        k = rng.randint(1, 6)
        weight_sets.append([rng.randint(1, 5000) for _ in range(k)])
        # few distinct small weights: equal-weight ties on most steps
        weight_sets.append([rng.choice([1, 2, 3]) for _ in range(k)])
    at_bound = 0
    for weights in weight_sets:
        steps = rng.randint(1, 400)
        assert_replay_pinned(DeficitLedger(), weights, steps)
        if replay_frozen(weights, steps).max_spread == max(weights):
            at_bound += 1
    # the spreads reach the bound exactly, so a violation test of >= in
    # place of > would show up as a violation step the manual loop lacks
    assert at_bound >= len(weight_sets) // 2


def test_replay_matches_naive_oracle_loop():
    rng = random.Random(6)
    for _ in range(25):
        k = rng.randint(1, 8)
        weights = [rng.randint(1, 60_000) for _ in range(k)]
        steps = rng.randint(1, 3000)
        assert_replay_pinned(NaiveLedger(), weights, steps)


# few distinct small weights (ties on most steps) or spread-out ones
REPLAY_WEIGHTS = st.lists(st.integers(1, 3), min_size=1, max_size=10) | st.lists(
    st.integers(1, 60_000), min_size=1, max_size=10
)


@settings(max_examples=200)
@given(weights=REPLAY_WEIGHTS, steps=st.integers(0, 2000))
def test_replay_matches_manual_ledger_loop_property(weights, steps):
    expected = manual_replay(DeficitLedger(), weights, steps)[steps]
    assert replay_frozen(weights, steps) == expected


# Each k where the key's id width, (k - 1).bit_length(), is about to grow
# or just grew; weights of small ties, or up to 2**56 so that keys pass the
# 2**30 and 2**60 int digit boundaries within a few hundred steps.
KEY_WIDTH_WEIGHTS = st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33]).flatmap(
    lambda k: st.lists(st.integers(1, 3), min_size=k, max_size=k)
    | st.lists(st.integers(1, 3) | st.integers(1, 2**56), min_size=k, max_size=k)
)


@settings(max_examples=300, deadline=None)
@given(weights=KEY_WIDTH_WEIGHTS, steps=st.integers(0, 500))
@example(weights=[2**56 - 1] * 33, steps=500)
@example(weights=[1] * 17 + [2**40], steps=500)
def test_replay_keys_hold_at_every_id_width(weights, steps):
    expected = manual_replay(DeficitLedger(), weights, steps)[steps]
    assert replay_frozen(weights, steps) == expected


def test_replay_single_destination():
    # the spread of one destination is zero
    assert replay_frozen([700], 5) == ReplayResult([5], [3500], -1, 0)


def test_replay_validation():
    with pytest.raises(ValueError):
        replay_frozen([], 10)
    with pytest.raises(ValueError):
        replay_frozen([0], 10)
    with pytest.raises(ValueError, match="^steps must be non-negative, got -1$"):
        replay_frozen([1000, 2000], -1)


def test_replay_of_no_steps_is_the_start():
    assert replay_frozen([1000, 2000], 0) == ReplayResult([0, 0], [0, 0], -1, 0)


def test_backend_label():
    assert REPLAY_BACKEND == "pure"
