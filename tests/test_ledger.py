import random

import pytest

from edgedispatch.ledger import (
    REPLAY_BACKEND,
    AlreadyAdmitted,
    DeficitLedger,
    EmptyLedger,
    ReplayResult,
    UnknownDestination,
    replay_frozen,
)

from helpers import NaiveLedger, check_same_state


def ledger_with(deficits):
    led = DeficitLedger()
    for dest in sorted(deficits):
        led.admit(dest, 0)
    # charging after all admits avoids admit-time renormalization
    for dest, value in deficits.items():
        if value:
            led.charge(dest, value)
    return led


def test_difference_encoding_verbatim():
    # absolute deficits {4, 6, 7, 7} are stored as deltas {4, 2, 1, 0}
    led = ledger_with({0: 4, 1: 6, 2: 7, 3: 7})
    assert led.deltas() == [(0, 4), (1, 2), (2, 1), (3, 0)]
    assert led.decode() == {0: 4, 1: 6, 2: 7, 3: 7}


def test_pop_min_and_ties():
    assert ledger_with({1: 4, 2: 6}).pop_min() == 1
    assert ledger_with({1: 5, 2: 5}).pop_min() == 1  # tie -> smaller id
    assert ledger_with({3: 0}).pop_min() == 3


def test_pop_min_does_not_remove():
    led = ledger_with({0: 1, 1: 2})
    assert led.pop_min() == 0
    assert led.pop_min() == 0
    assert len(led) == 2


def test_empty_ledger_errors():
    led = DeficitLedger()
    with pytest.raises(EmptyLedger):
        led.pop_min()
    with pytest.raises(EmptyLedger):
        led.min_deficit()
    with pytest.raises(EmptyLedger):
        led.max_deficit()


def test_charge_repositions():
    led = ledger_with({0: 0, 1: 0, 2: 0})
    led.charge(0, 2)
    # order is now 1, 2, 0
    assert led.deltas() == [(1, 0), (2, 0), (0, 2)]
    assert led.pop_min() == 1
    assert led.decode() == {0: 2, 1: 0, 2: 0}


def test_charge_zero_changes_nothing_decoded():
    led = ledger_with({0: 3, 1: 5})
    led.charge(1, 0)
    assert led.decode() == {0: 3, 1: 5}


def test_charge_validation():
    led = ledger_with({0: 0})
    with pytest.raises(UnknownDestination):
        led.charge(9, 5)
    with pytest.raises(ValueError):
        led.charge(0, -1)


def test_admit_renormalizes_by_previous_min():
    led = ledger_with({0: 4, 1: 6})
    led.admit(2, 0)
    assert led.decode() == {0: 0, 1: 2, 2: 0}
    assert led.min_deficit() == 0


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
    assert led.pop_min() == 1
    assert led.decode() == {1: 6, 2: 7}


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
            op = rng.choice(("admit", "charge", "evict", "select"))
            if op == "admit":
                free = [d for d in range(6) if d not in oracle]
                if free:
                    dest = rng.choice(free)
                    amount = rng.randint(0, 50)
                    led.admit(dest, amount)
                    oracle.admit(dest, amount)
            elif op == "charge" and len(oracle):
                dest = rng.choice(sorted(oracle.decode()))
                amount = rng.randint(0, 50)
                led.charge(dest, amount)
                oracle.charge(dest, amount)
            elif op == "evict" and len(oracle):
                dest = rng.choice(sorted(oracle.decode()))
                led.evict(dest)
                oracle.evict(dest)
            elif op == "select" and len(oracle):
                assert led.pop_min() == oracle.pop_min()
            check_same_state(led, oracle)


def manual_replay(led, weights, steps):
    """Select-then-charge by hand over the empty ledger ``led``."""
    k = len(weights)
    max_w = max(weights)
    for dest in range(k):
        led.admit(dest, 0)
    counts = [0] * k
    sequence = []
    spread_violation = weighted_violation = -1
    max_spread = max_weighted = 0
    for step in range(1, steps + 1):
        dest = led.pop_min()
        led.charge(dest, weights[dest])
        counts[dest] += 1
        sequence.append(dest)
        spread = led.max_deficit() - led.min_deficit()
        max_spread = max(max_spread, spread)
        if spread > max_w and spread_violation < 0:
            spread_violation = step
        products = [c * w for c, w in zip(counts, weights)]
        weighted = max(products) - min(products)
        max_weighted = max(max_weighted, weighted)
        if weighted > max_w and weighted_violation < 0:
            weighted_violation = step
    decoded = led.decode()
    return ReplayResult(
        counts,
        [decoded[d] for d in range(k)],
        spread_violation,
        weighted_violation,
        max_spread,
        max_weighted,
        sequence,
    )


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
        result = replay_frozen(weights, steps, record_sequence=True)
        assert result == manual_replay(DeficitLedger(), weights, steps), weights
        bound = max(weights)
        if result.max_spread == bound and result.max_weighted_spread == bound:
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
        result = replay_frozen(weights, steps, record_sequence=True)
        assert result == manual_replay(NaiveLedger(), weights, steps), weights


def test_replay_single_destination():
    result = replay_frozen([700], 5, record_sequence=True)
    assert result.counts == [5]
    assert result.deficits == [3500]
    assert result.sequence == [0, 0, 0, 0, 0]
    assert result.fair  # spread of one destination is zero


def test_replay_validation():
    with pytest.raises(ValueError):
        replay_frozen([], 10)
    with pytest.raises(ValueError):
        replay_frozen([0], 10)


def test_backend_label():
    assert REPLAY_BACKEND == "pure"
