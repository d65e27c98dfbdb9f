import random
from itertools import accumulate

import pytest

from edgedispatch.core import INFINITE, from_ms
from edgedispatch.ledger import UnknownDestination
from edgedispatch.policy import (
    NoEligibleDestination,
    PolicyKind,
    PolicyState,
    SelectionOutcome,
)

from helpers import NaivePolicy

MS = 1000


def test_li_picks_smallest_weight():
    state = PolicyState.preloaded(PolicyKind.LEAST_IMPEDANCE, {0: 10 * MS, 1: 5 * MS, 2: 30 * MS})
    assert state.select(0) == SelectionOutcome(1, is_probe=False)


def test_li_skips_congested():
    # weights {a:10, b:5, c:inf} -> b
    state = PolicyState.preloaded(PolicyKind.LEAST_IMPEDANCE, {0: 10 * MS, 1: 5 * MS, 2: 30 * MS})
    state.sync_congestion(2, True, 0)
    assert state.select(0).destination == 1
    state.sync_congestion(1, True, 0)
    assert state.select(0).destination == 0


def test_li_tie_breaks_to_smallest_id():
    state = PolicyState.preloaded(PolicyKind.LEAST_IMPEDANCE, {3: 5 * MS, 1: 5 * MS, 2: 5 * MS})
    assert state.select(0).destination == 1


def test_all_policies_agree_on_single_finite_destination():
    for kind in PolicyKind:
        state = PolicyState.preloaded(kind, {0: 9 * MS, 1: 4 * MS, 2: 6 * MS})
        state.sync_congestion(0, True, 0)
        state.sync_congestion(2, True, 0)
        assert state.select(0).destination == 1


def test_bootstrap_cycles_unmeasured_destinations():
    state = PolicyState(PolicyKind.LEAST_IMPEDANCE, [2, 0, 1], seed=4)
    picks = [state.select(0).destination for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]
    # once one destination is measured, the cycle covers the remaining two
    state.on_response(1, 5 * MS, 0)
    assert {state.select(0).destination for _ in range(2)} == {0, 2}


def test_bootstrap_then_greedy():
    state = PolicyState(PolicyKind.LEAST_IMPEDANCE, [0, 1], seed=4)
    state.select(0)
    state.on_response(0, 8 * MS, 0)
    state.select(0)
    state.on_response(1, 3 * MS, 0)
    for _ in range(5):
        assert state.select(0).destination == 1


def test_rp_frequencies_follow_reciprocal_weights():
    # weights 1 ms and 3 ms -> probabilities 0.75 / 0.25
    state = PolicyState.preloaded(PolicyKind.RANDOM_PROPORTIONAL, {0: 1 * MS, 1: 3 * MS}, seed=8)
    n = 1_000_000
    hits = sum(state.select(0).destination == 0 for _ in range(n))
    assert abs(hits / n - 0.75) < 0.005


def test_rp_never_picks_congested():
    state = PolicyState.preloaded(
        PolicyKind.RANDOM_PROPORTIONAL, {0: 1 * MS, 1: 1 * MS, 2: 1 * MS}, seed=9
    )
    state.sync_congestion(0, True, 0)
    assert all(state.select(0).destination != 0 for _ in range(500))


def test_rp_is_seed_reproducible():
    a = PolicyState.preloaded(PolicyKind.RANDOM_PROPORTIONAL, {0: MS, 1: 2 * MS}, seed=3)
    b = PolicyState.preloaded(PolicyKind.RANDOM_PROPORTIONAL, {0: MS, 1: 2 * MS}, seed=3)
    picks_a = [a.select(0).destination for _ in range(200)]
    picks_b = [b.select(0).destination for _ in range(200)]
    assert picks_a == picks_b


def test_rr_reference_schedule():
    # frozen weights 2/3/4 ms, 13 selections, lowest id wins ties
    state = PolicyState.preloaded(PolicyKind.ROUND_ROBIN, {1: 2 * MS, 2: 3 * MS, 3: 4 * MS})
    picks = [state.select(0).destination for _ in range(13)]
    assert picks == [1, 2, 3, 1, 2, 1, 3, 1, 2, 1, 3, 2, 1]
    assert [picks.count(d) for d in (1, 2, 3)] == [6, 4, 3]
    assert state.ledger.decode() == {1: 12 * MS, 2: 12 * MS, 3: 12 * MS}


def test_rr_charges_by_current_weight():
    state = PolicyState.preloaded(PolicyKind.ROUND_ROBIN, {0: 2 * MS, 1: 100 * MS}, alpha=0)
    assert state.select(0).destination == 0
    assert state.ledger.decode()[0] == 2 * MS
    # the weight moves (alpha 0 adopts the sample), later charges follow it
    state.on_response(0, 10 * MS, 0)
    assert state.table.get(0) == 10 * MS
    assert state.select(0).destination == 1
    assert state.select(0).destination == 0
    assert state.ledger.decode()[0] == 12 * MS


def test_rr_fresh_state_probes_first():
    state = PolicyState(PolicyKind.ROUND_ROBIN, [0, 1], seed=5)
    out = state.select(0)
    assert out.is_probe
    assert out.destination in state.probing
    assert state.probes_launched == 1
    # the probed destination is not re-probed while outstanding
    second = state.select(0)
    assert second.is_probe and second.destination != out.destination


def test_rr_probe_admission_on_empty_active_set():
    state = PolicyState(PolicyKind.ROUND_ROBIN, [0], seed=5)
    dest = state.select(0).destination
    state.on_response(dest, 7 * MS, 1000)
    assert state.active == {0}
    assert state.ledger.decode() == {0: 7 * MS}
    assert state.table.get(0) == 7 * MS
    assert state.probes_admitted == 1
    # follow-up selections come from the ledger, not probing
    assert state.select(2000) == SelectionOutcome(0, is_probe=False)


def active_0_probing_1(now, weight_0):
    """Fresh rr state over [0, 1]: both probed at ``now``, 0 admitted at
    ``weight_0`` into the empty active set, 1's probe still outstanding."""
    state = PolicyState(PolicyKind.ROUND_ROBIN, [0, 1], seed=5)
    probes = [state.select(now), state.select(now)]
    assert sorted(p.destination for p in probes) == [0, 1]
    assert all(p.is_probe for p in probes)
    state.on_response(0, weight_0, now)
    assert state.active == {0} and state.probing == {1}
    return state


def test_rr_probe_admission_boundary_is_inclusive():
    # active min 10 ms, probe measured exactly 20 ms -> admitted with w = deficit = 20 ms
    state = active_0_probing_1(0, 10 * MS)
    state.on_response(1, 20 * MS, 0)
    assert 1 in state.active
    assert state.table.get(1) == 20 * MS
    assert state.ledger.decode()[1] == 20 * MS


def test_rr_probe_rejection_doubles_backoff():
    # active min 10 ms, probe measured 21 ms -> rejected, backoff 100 -> 200 ms
    now = 500 * MS
    state = active_0_probing_1(now, 10 * MS)
    state.on_response(1, 21 * MS, now)
    assert 1 not in state.active
    assert state.backoff[1] == 200 * MS
    assert state.eligible_at[1] == now + 200 * MS
    assert state.probes_rejected == 1
    assert state.table.get(1) is None  # rejected probes leave no estimate
    # not eligible again until the backoff expires
    assert not state.select(now + 199 * MS).is_probe
    assert state.select(now + 200 * MS).is_probe


def test_rr_eviction_when_weight_exceeds_twice_min():
    # w_d 10 ms, min 4 ms, sample 100 ms -> blended 19 ms > 8 ms -> evicted
    state = PolicyState.preloaded(PolicyKind.ROUND_ROBIN, {0: 4 * MS, 1: 10 * MS})
    state.on_response(1, 100 * MS, 7000)
    assert state.table.get(1) == 19 * MS
    assert state.active == {0}
    assert 1 not in state.ledger
    assert state.eligible_at[1] == 7000 + state.backoff[1]


def test_rr_min_includes_the_updated_destination_itself():
    state = PolicyState.preloaded(PolicyKind.ROUND_ROBIN, {0: 10 * MS, 1: 30 * MS})
    state.on_response(0, 100 * MS, 0)
    # new w_0 = 19 ms is itself the active minimum, 19 <= 2*19 -> stays
    assert state.active == {0, 1}


def test_rr_stale_response_is_counted_not_applied():
    state = PolicyState.preloaded(PolicyKind.ROUND_ROBIN, {0: 4 * MS, 1: 10 * MS})
    state.on_response(1, 100 * MS, 0)  # blended 19 ms > 2 * 4 ms: evicted
    assert 1 not in state.active
    before = state.table.get(1)
    state.on_response(1, 50 * MS, 0)
    assert state.stale_responses == 1
    assert state.table.get(1) == before


def test_rr_congestion_evicts_and_restores():
    state = PolicyState.preloaded(PolicyKind.ROUND_ROBIN, {0: 5 * MS, 1: 6 * MS})
    assert state.sync_congestion(1, True, 1000) == 6 * MS  # the weight before the mark
    assert state.active == {0}
    assert 1 not in state.ledger
    assert state.sync_congestion(1, True, 1000) is None  # idempotent, already INFINITE
    assert state.sync_congestion(1, False, 9000) == 6 * MS  # the weight restored
    assert state.table.get(1) == 6 * MS
    assert state.eligible_at[1] == 9000  # probe-eligible immediately
    # clear when never congested is a no-op
    assert state.sync_congestion(0, False, 9000) == 5 * MS
    assert state.table.get(0) == 5 * MS


def test_sync_congestion_reports_none_without_a_finite_weight():
    state = PolicyState(PolicyKind.LEAST_IMPEDANCE, [0], seed=1)
    assert state.sync_congestion(0, True, 0) is None  # never measured
    assert state.table.get(0) is INFINITE
    assert state.sync_congestion(0, False, 10) is None  # comes back unmeasured
    assert state.table.get(0) is None


def test_rr_congestion_cancels_outstanding_probe():
    state = PolicyState(PolicyKind.ROUND_ROBIN, [0, 1], seed=2)
    probed = state.select(0).destination
    state.sync_congestion(probed, True, 10)
    assert probed not in state.probing
    state.sync_congestion(probed, False, 20)
    # the late probe response is stale now
    state.on_response(probed, 3 * MS, 30)
    assert state.stale_responses == 1


@pytest.mark.parametrize("kind", list(PolicyKind))
def test_response_marked_congested_in_flight_is_unmeasured(kind):
    state = PolicyState.preloaded(kind, {0: 4 * MS, 1: 10 * MS})
    state.sync_congestion(1, True, 0)
    weights = state.table.snapshot()
    active = set(state.active)
    state.on_response(1, 50 * MS, 10)
    assert state.responses_unmeasured == 1
    assert state.table.snapshot() == weights
    assert state.active == active
    assert state.stale_responses == 0


def test_no_eligible_destination():
    state = PolicyState.preloaded(PolicyKind.LEAST_IMPEDANCE, {0: MS})
    state.sync_congestion(0, True, 0)
    with pytest.raises(NoEligibleDestination):
        state.select(0)

    state = PolicyState.preloaded(PolicyKind.ROUND_ROBIN, {0: MS})
    state.sync_congestion(0, True, 0)
    with pytest.raises(NoEligibleDestination):
        state.select(0)


def test_all_probing_means_no_eligible():
    state = PolicyState(PolicyKind.ROUND_ROBIN, [0, 1], seed=1)
    state.select(0)
    state.select(0)
    with pytest.raises(NoEligibleDestination):
        state.select(0)


def test_response_for_unknown_destination():
    state = PolicyState.preloaded(PolicyKind.ROUND_ROBIN, {0: MS})
    with pytest.raises(UnknownDestination):
        state.on_response(42, MS, 0)


def test_active_and_probing_stay_disjoint():
    rng = random.Random(21)
    state = PolicyState(PolicyKind.ROUND_ROBIN, list(range(4)), seed=17)
    now = 0
    outstanding = []
    for _ in range(3000):
        now += rng.randint(1, 30_000)
        roll = rng.random()
        if roll < 0.5:
            try:
                out = state.select(now)
            except NoEligibleDestination:
                continue
            outstanding.append(out.destination)
        elif roll < 0.8 and outstanding:
            dest = outstanding.pop(rng.randrange(len(outstanding)))
            state.on_response(dest, rng.randint(500, 40_000), now)
        elif roll < 0.9:
            state.sync_congestion(rng.randrange(4), True, now)
        else:
            state.sync_congestion(rng.randrange(4), False, now)
        assert not (state.active & state.probing)
        assert set(state.ledger.decode()) == state.active
        assert all(state.backoff[d] >= state.b_min_us for d in range(4))
        assert all(isinstance(state.table.get(d), int) for d in state.active)


def test_policy_needs_destinations():
    with pytest.raises(ValueError):
        PolicyState(PolicyKind.ROUND_ROBIN, [])


def test_snapshot_round_trip_fields():
    state = PolicyState.preloaded(PolicyKind.ROUND_ROBIN, {0: MS, 1: 2 * MS})
    state.select(0)
    snap = state.snapshot()
    assert snap["kind"] == "rr"
    assert snap["active"] == [0, 1]
    assert snap["deficits_us"] == state.ledger.decode()
    assert snap["probes_launched"] == 0


def apply(state, op, args):
    """Run one operation; a selection that finds nothing returns None."""
    try:
        return getattr(state, op)(*args)
    except NoEligibleDestination:
        return None


def as_hex(floats):
    return [x.hex() for x in floats]


def scan_sums(state):
    """The reciprocal running sums as the full scan adds them, repeated where
    it skips a congested or never-measured destination, after a leading 0.0."""
    total, sums = 0.0, [0.0]
    for d in state.destinations:
        weight = state.table.get(d)
        if weight is not None and weight is not INFINITE:
            total += 1.0 / weight
        sums.append(total)
    return sums


def check_indexes(state):
    """The weight and pending indexes hold exactly what the table and the
    backoffs say, with no stale or missing entry."""
    get = state.table.get
    if state.kind is PolicyKind.ROUND_ROBIN:
        held = state.active
    elif state.kind is PolicyKind.LEAST_IMPEDANCE:
        held = [d for d in state.destinations if get(d) not in (None, INFINITE)]
    else:
        held = []
    assert state._weights.pairs == sorted((get(d), d) for d in held)
    assert state._weights.values == {d: get(d) for d in held}
    pending = state._pending.values
    assert state._pending.pairs == sorted((t, d) for d, t in pending.items())
    assert all(t == state.eligible_at[d] for d, t in pending.items())
    if state.kind is not PolicyKind.ROUND_ROBIN:
        assert not pending
        return
    for d in state.destinations:
        filed = (d in state._ready) + (d in pending)
        waiting = d in state.active or d in state.probing or state.table.is_congested(d)
        assert filed == (0 if waiting else 1), d


def drive_against_naive(kind, k, seed, steps=1500):
    """Drive the indexed policy and the rescanning one through one random
    sequence of operations, asserting identical state after every step.
    Returns how often each interesting transition happened."""
    rng = random.Random(seed)
    dests = sorted(rng.sample(range(3 * k), k))
    # the router also signals the destinations of its other lambdas
    pool = dests + [d for d in range(3 * k + 3) if d not in dests][:3]
    real = PolicyState(kind, dests, seed=seed, b_min_us=5 * MS)
    naive = NaivePolicy(kind, dests, seed=seed, b_min_us=5 * MS)
    seen = dict(
        admit=0, reject=0, evict=0, stale=0, fresh_clear=0, jump=0,
        first_weight=0, first_congested=0, last_congested=0,
    )
    outstanding = []
    now = 0
    for _ in range(steps):
        now += rng.randint(0, 2 * MS)
        roll = rng.random()
        if roll < 0.4:
            op, args = "select", (now,)
        elif roll < 0.75:
            if outstanding and rng.random() < 0.9:
                dest = outstanding.pop(rng.randrange(len(outstanding)))
            else:
                dest = rng.choice(dests)
            latency = rng.choice((rng.randint(1, 4 * MS), rng.randint(4 * MS, 40 * MS)))
            op, args = "on_response", (dest, latency, now)
        elif roll < 0.95:
            dest = rng.choice(pool)
            congested = rng.random() < 0.5
            entry = real.table.snapshot().get(dest)
            if not congested and entry and entry["congested"] and entry["shadow"] is None:
                seen["fresh_clear"] += 1
            op, args = "sync_congestion", (dest, congested, now)
        else:
            now = max(real.eligible_at.values()) + rng.randint(0, MS)
            seen["jump"] += 1
            continue
        before = (real.probes_admitted, real.probes_rejected, real.stale_responses, len(real.active))
        first_weight = real.table.get(dests[0])
        got = apply(real, op, args)
        assert got == apply(naive, op, args), (op, args)
        assert real.rng.getstate() == naive.rng.getstate()
        assert real.snapshot() == naive.snapshot()
        assert real.table.snapshot() == naive.table.snapshot()
        if kind is PolicyKind.RANDOM_PROPORTIONAL:
            # The sums up to the first stale position are exact: a selection
            # trusts them and re-accumulates only the rest.
            clean = real._stale + 1
            assert as_hex(real._sums[:clean]) == as_hex(scan_sums(real)[:clean]), (op, args)
        check_indexes(real)
        seen["first_weight"] += real.table.get(dests[0]) != first_weight
        if op == "select":
            seen["first_congested"] += real.table.is_congested(dests[0])
            seen["last_congested"] += real.table.is_congested(dests[-1])
        if op == "select" and got is not None:
            outstanding.append(got.destination)
        if op == "on_response":
            seen["admit"] += real.probes_admitted - before[0]
            seen["reject"] += real.probes_rejected - before[1]
            seen["stale"] += real.stale_responses - before[2]
            seen["evict"] += len(real.active) < before[3]
    return seen


@pytest.mark.parametrize("k", [1, 2, 7, 64])
@pytest.mark.parametrize("kind", list(PolicyKind))
def test_indexed_selection_matches_full_scans(kind, k):
    seen = {}
    for seed in range(3):
        for name, count in drive_against_naive(kind, k, seed).items():
            seen[name] = seen.get(name, 0) + count
    assert seen["jump"] and seen["fresh_clear"]
    assert seen["first_weight"] and seen["first_congested"] and seen["last_congested"]
    if kind is PolicyKind.ROUND_ROBIN:
        assert seen["admit"] and seen["stale"]
        # a lone destination is always its own active minimum
        if k > 1:
            assert seen["reject"] and seen["evict"]


def test_randrange_draws_what_choice_drew():
    # The probe pick indexes the ready list with randrange where the full
    # scan called choice. Both must make the same single draw, or every
    # seeded trace moves; an interpreter that changes either fails here.
    for seed in range(50):
        for n in (1, 2, 3, 7, 64, 255, 256, 1000, 2**31 + 1):
            a, b = random.Random(seed), random.Random(seed)
            assert a.choice(range(n)) == b.randrange(n)
            assert a.getstate() == b.getstate()


def test_accumulate_adds_what_the_scan_loop_added():
    # The rp sums are re-accumulated with accumulate, seeded with the sum
    # before the stale tail, where the scan added in a Python loop. Both must
    # make the same float additions, or every seeded rp trace moves; an
    # interpreter that changes either fails here.
    rng = random.Random(8)
    for n in (1, 2, 3, 7, 64, 256):
        xs = [rng.choice((0.0, 1.0 / rng.randint(1, 10**7))) for _ in range(n)]
        for start in (0.0, 1.0 / 3, rng.random() * n):
            total, loop = start, [start]
            for x in xs:
                total += x
                loop.append(total)
            assert as_hex(accumulate(xs, initial=start)) == as_hex(loop)
        total, loop = 0.0, []
        for x in xs:
            total += x
            loop.append(total)
        assert as_hex(accumulate(xs)) == as_hex(loop)


def test_largest_draw_stays_below_the_total():
    # random() is at most 1 - 2**-53; the rp draw relies on that times the
    # total rounding to below the total, so a bound always exceeds it. That
    # holds from 2**-1021 up; at the smallest normal, 2**-1022, the product
    # is a tie in the subnormal range and rounds back up to the total.
    largest = 1 - 2**-53
    assert largest * 2.0**-1022 == 2.0**-1022
    totals = [2.0**e for e in range(-1021, 1024)]
    rng = random.Random(13)
    for _ in range(2000):
        n = rng.randint(1, 300)
        totals.append(sum(1.0 / rng.randint(1, 10**9) for _ in range(n)))
    assert all(largest * total < total for total in totals)


class FixedDraws(random.Random):
    """A ``Random`` whose ``random()`` returns the given values in turn."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)


@pytest.mark.parametrize("congested", [(), (0,), (1,), (3,), (0, 1), (1, 2), (0, 3)])
def test_rp_draw_on_a_bound_picks_what_the_scan_picked(congested):
    # A draw equal to a cumulative bound goes to the next destination, and a
    # congested one (a repeated bound, or 0.0 at the front) never wins.
    weights = {0: 1, 1: 2, 2: 1, 3: 4}
    states = [cls.preloaded(PolicyKind.RANDOM_PROPORTIONAL, weights) for cls in (PolicyState, NaivePolicy)]
    for state in states:
        for dest in congested:
            state.sync_congestion(dest, True, 0)
    bounds = scan_sums(states[0])
    total = bounds[-1]
    draws = [0.0, 1 - 2**-53] + [b / total for b in bounds if b < total and (b / total) * total == b]
    assert len(draws) > 4  # the draws hit the bounds exactly
    for state in states:
        state.rng = FixedDraws(draws)
    picks = [[state.select(0).destination for _ in draws] for state in states]
    assert picks[0] == picks[1]
    assert not set(picks[0]) & set(congested)


@pytest.mark.parametrize("kind", list(PolicyKind))
def test_signal_for_another_lambdas_destination_changes_nothing(kind):
    # The router signals every lambda; destination 5 belongs to another one.
    state = PolicyState(kind, [0, 1])
    before = (state.snapshot(), state.table.snapshot())
    assert state.sync_congestion(5, True, 10) is None
    assert state.sync_congestion(5, False, 20) is None
    assert (state.snapshot(), state.table.snapshot()) == before
