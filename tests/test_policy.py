import random

import pytest

from edgedispatch.core import from_ms
from edgedispatch.estimator import WeightTable
from edgedispatch.ledger import UnknownDestination
from edgedispatch.policy import (
    NoEligibleDestination,
    PolicyKind,
    PolicyState,
    SelectionOutcome,
)

MS = 1000


def preloaded(kind, weights, **kwargs):
    table = WeightTable()
    state = PolicyState.preloaded(kind, table, weights, **kwargs)
    return state, table


def test_li_picks_smallest_weight():
    state, table = preloaded(PolicyKind.LEAST_IMPEDANCE, {0: 10 * MS, 1: 5 * MS, 2: 30 * MS})
    assert state.select(table, 0) == SelectionOutcome(1, is_probe=False)


def test_li_skips_congested():
    # weights {a:10, b:5, c:inf} -> b
    state, table = preloaded(PolicyKind.LEAST_IMPEDANCE, {0: 10 * MS, 1: 5 * MS, 2: 30 * MS})
    table.mark_congested(2)
    assert state.select(table, 0).destination == 1
    table.mark_congested(1)
    assert state.select(table, 0).destination == 0


def test_li_tie_breaks_to_smallest_id():
    state, table = preloaded(PolicyKind.LEAST_IMPEDANCE, {3: 5 * MS, 1: 5 * MS, 2: 5 * MS})
    assert state.select(table, 0).destination == 1


def test_all_policies_agree_on_single_finite_destination():
    for kind in PolicyKind:
        state, table = preloaded(kind, {0: 9 * MS, 1: 4 * MS, 2: 6 * MS})
        table.mark_congested(0)
        table.mark_congested(2)
        if kind is PolicyKind.ROUND_ROBIN:
            state.sync_congestion(table, 0, True, 0)
            state.sync_congestion(table, 2, True, 0)
        assert state.select(table, 0).destination == 1


def test_bootstrap_cycles_unmeasured_destinations():
    table = WeightTable()
    state = PolicyState(PolicyKind.LEAST_IMPEDANCE, [2, 0, 1], seed=4)
    picks = [state.select(table, 0).destination for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]
    # once one destination is measured, the cycle covers the remaining two
    table.observe(1, 5 * MS)
    assert {state.select(table, 0).destination for _ in range(2)} == {0, 2}


def test_bootstrap_then_greedy():
    table = WeightTable()
    state = PolicyState(PolicyKind.LEAST_IMPEDANCE, [0, 1], seed=4)
    state.select(table, 0)
    state.on_response(table, 0, 8 * MS, 0)
    state.select(table, 0)
    state.on_response(table, 1, 3 * MS, 0)
    for _ in range(5):
        assert state.select(table, 0).destination == 1


def test_rp_frequencies_follow_reciprocal_weights():
    # weights 1 ms and 3 ms -> probabilities 0.75 / 0.25
    state, table = preloaded(PolicyKind.RANDOM_PROPORTIONAL, {0: 1 * MS, 1: 3 * MS}, seed=8)
    n = 1_000_000
    hits = sum(state.select(table, 0).destination == 0 for _ in range(n))
    assert abs(hits / n - 0.75) < 0.005


def test_rp_never_picks_congested():
    state, table = preloaded(
        PolicyKind.RANDOM_PROPORTIONAL, {0: 1 * MS, 1: 1 * MS, 2: 1 * MS}, seed=9
    )
    table.mark_congested(0)
    assert all(state.select(table, 0).destination != 0 for _ in range(500))


def test_rp_is_seed_reproducible():
    a, table_a = preloaded(PolicyKind.RANDOM_PROPORTIONAL, {0: MS, 1: 2 * MS}, seed=3)
    b, table_b = preloaded(PolicyKind.RANDOM_PROPORTIONAL, {0: MS, 1: 2 * MS}, seed=3)
    picks_a = [a.select(table_a, 0).destination for _ in range(200)]
    picks_b = [b.select(table_b, 0).destination for _ in range(200)]
    assert picks_a == picks_b


def test_rr_reference_schedule():
    # frozen weights 2/3/4 ms, 13 selections, lowest id wins ties
    state, table = preloaded(
        PolicyKind.ROUND_ROBIN, {1: 2 * MS, 2: 3 * MS, 3: 4 * MS}
    )
    picks = [state.select(table, 0).destination for _ in range(13)]
    assert picks == [1, 2, 3, 1, 2, 1, 3, 1, 2, 1, 3, 2, 1]
    assert [picks.count(d) for d in (1, 2, 3)] == [6, 4, 3]
    assert state.ledger.decode() == {1: 12 * MS, 2: 12 * MS, 3: 12 * MS}


def test_rr_charges_by_current_weight():
    state, table = preloaded(PolicyKind.ROUND_ROBIN, {0: 2 * MS, 1: 100 * MS})
    assert state.select(table, 0).destination == 0
    assert state.ledger.decode()[0] == 2 * MS
    # the weight moves, later charges follow it
    table.assign(0, 10 * MS)
    assert state.select(table, 0).destination == 1
    assert state.select(table, 0).destination == 0
    assert state.ledger.decode()[0] == 12 * MS


def test_rr_fresh_state_probes_first():
    table = WeightTable()
    state = PolicyState(PolicyKind.ROUND_ROBIN, [0, 1], seed=5)
    out = state.select(table, 0)
    assert out.is_probe
    assert out.destination in state.probing
    assert state.probes_launched == 1
    # the probed destination is not re-probed while outstanding
    second = state.select(table, 0)
    assert second.is_probe and second.destination != out.destination


def test_rr_probe_admission_on_empty_active_set():
    table = WeightTable()
    state = PolicyState(PolicyKind.ROUND_ROBIN, [0], seed=5)
    dest = state.select(table, 0).destination
    state.on_response(table, dest, 7 * MS, 1000)
    assert state.active == {0}
    assert state.ledger.decode() == {0: 7 * MS}
    assert table.get(0) == 7 * MS
    assert state.probes_admitted == 1
    # follow-up selections come from the ledger, not probing
    assert state.select(table, 2000) == SelectionOutcome(0, is_probe=False)


def test_rr_probe_admission_boundary_is_inclusive():
    # active min 10 ms, probe measured exactly 20 ms -> admitted with w = deficit = 20 ms
    state, table = preloaded(PolicyKind.ROUND_ROBIN, {0: 10 * MS})
    state.destinations = [0, 1]
    state.backoff[1] = state.b_min_us
    state.eligible_at[1] = 0
    out = state.select(table, 0)
    assert out == SelectionOutcome(1, is_probe=True)
    state.on_response(table, 1, 20 * MS, 0)
    assert 1 in state.active
    assert table.get(1) == 20 * MS
    assert state.ledger.decode()[1] == 20 * MS


def test_rr_probe_rejection_doubles_backoff():
    # active min 10 ms, probe measured 21 ms -> rejected, backoff 100 -> 200 ms
    state, table = preloaded(PolicyKind.ROUND_ROBIN, {0: 10 * MS})
    state.destinations = [0, 1]
    state.backoff[1] = state.b_min_us
    state.eligible_at[1] = 0
    now = 500 * MS
    assert state.select(table, now).is_probe
    state.on_response(table, 1, 21 * MS, now)
    assert 1 not in state.active
    assert state.backoff[1] == 200 * MS
    assert state.eligible_at[1] == now + 200 * MS
    assert state.probes_rejected == 1
    assert table.get(1) is None  # rejected probes leave no estimate
    # not eligible again until the backoff expires
    assert not state.select(table, now + 199 * MS).is_probe
    assert state.select(table, now + 200 * MS).is_probe


def test_rr_eviction_when_weight_exceeds_twice_min():
    # w_d 10 ms, min 4 ms, sample 100 ms -> blended 19 ms > 8 ms -> evicted
    state, table = preloaded(PolicyKind.ROUND_ROBIN, {0: 4 * MS, 1: 10 * MS})
    state.on_response(table, 1, 100 * MS, 7000)
    assert table.get(1) == 19 * MS
    assert state.active == {0}
    assert 1 not in state.ledger
    assert state.eligible_at[1] == 7000 + state.backoff[1]


def test_rr_min_includes_the_updated_destination_itself():
    state, table = preloaded(PolicyKind.ROUND_ROBIN, {0: 10 * MS, 1: 30 * MS})
    state.on_response(table, 0, 100 * MS, 0)
    # new w_0 = 19 ms is itself the active minimum, 19 <= 2*19 -> stays
    assert state.active == {0, 1}


def test_rr_stale_response_is_counted_not_applied():
    state, table = preloaded(PolicyKind.ROUND_ROBIN, {0: 4 * MS, 1: 10 * MS})
    state.ledger.evict(1)
    state.active.discard(1)
    before = table.get(1)
    state.on_response(table, 1, 50 * MS, 0)
    assert state.stale_responses == 1
    assert table.get(1) == before


def test_rr_congestion_evicts_and_restores():
    state, table = preloaded(PolicyKind.ROUND_ROBIN, {0: 5 * MS, 1: 6 * MS})
    state.sync_congestion(table, 1, True, 1000)
    assert state.active == {0}
    assert 1 not in state.ledger
    state.sync_congestion(table, 1, True, 1000)  # idempotent
    state.sync_congestion(table, 1, False, 9000)
    assert table.get(1) == 6 * MS
    assert state.eligible_at[1] == 9000  # probe-eligible immediately
    # clear when never congested is a no-op
    state.sync_congestion(table, 0, False, 9000)
    assert table.get(0) == 5 * MS


def test_rr_congestion_cancels_outstanding_probe():
    table = WeightTable()
    state = PolicyState(PolicyKind.ROUND_ROBIN, [0, 1], seed=2)
    probed = state.select(table, 0).destination
    state.sync_congestion(table, probed, True, 10)
    assert probed not in state.probing
    state.sync_congestion(table, probed, False, 20)
    # the late probe response is stale now
    state.on_response(table, probed, 3 * MS, 30)
    assert state.stale_responses == 1


def test_no_eligible_destination():
    state, table = preloaded(PolicyKind.LEAST_IMPEDANCE, {0: MS})
    table.mark_congested(0)
    with pytest.raises(NoEligibleDestination):
        state.select(table, 0)

    state, table = preloaded(PolicyKind.ROUND_ROBIN, {0: MS})
    state.sync_congestion(table, 0, True, 0)
    with pytest.raises(NoEligibleDestination):
        state.select(table, 0)


def test_all_probing_means_no_eligible():
    table = WeightTable()
    state = PolicyState(PolicyKind.ROUND_ROBIN, [0, 1], seed=1)
    state.select(table, 0)
    state.select(table, 0)
    with pytest.raises(NoEligibleDestination):
        state.select(table, 0)


def test_response_for_unknown_destination():
    state, table = preloaded(PolicyKind.ROUND_ROBIN, {0: MS})
    with pytest.raises(UnknownDestination):
        state.on_response(table, 42, MS, 0)


def test_active_and_probing_stay_disjoint():
    rng = random.Random(21)
    table = WeightTable()
    state = PolicyState(PolicyKind.ROUND_ROBIN, list(range(4)), seed=17)
    now = 0
    outstanding = []
    for _ in range(3000):
        now += rng.randint(1, 30_000)
        roll = rng.random()
        if roll < 0.5:
            try:
                out = state.select(table, now)
            except NoEligibleDestination:
                continue
            outstanding.append(out.destination)
        elif roll < 0.8 and outstanding:
            dest = outstanding.pop(rng.randrange(len(outstanding)))
            if not table.is_congested(dest):
                state.on_response(table, dest, rng.randint(500, 40_000), now)
        elif roll < 0.9:
            state.sync_congestion(table, rng.randrange(4), True, now)
        else:
            state.sync_congestion(table, rng.randrange(4), False, now)
        assert not (state.active & state.probing)
        assert set(state.ledger.decode()) == state.active
        assert all(state.backoff[d] >= state.b_min_us for d in range(4))


def test_policy_needs_destinations():
    with pytest.raises(ValueError):
        PolicyState(PolicyKind.ROUND_ROBIN, [])


def test_snapshot_round_trip_fields():
    state, table = preloaded(PolicyKind.ROUND_ROBIN, {0: MS, 1: 2 * MS})
    state.select(table, 0)
    snap = state.snapshot()
    assert snap["kind"] == "rr"
    assert snap["active"] == [0, 1]
    assert snap["deficits_us"] == state.ledger.decode()
    assert snap["probes_launched"] == 0
