"""Golden digests of the built-in runs and of one seeded fan-out run.

The trace and summary bytes are the simulator's behavioural contract. These
SHA-256 digests pin them for every built-in scenario and a 48-computer
fan-out under every policy, so a change to event order, rounding, selection
or formatting shows up here even when a rerun still matches itself. A change
that alters them on purpose must say why and re-pin them.

The summary digests were last re-pinned when the summary stopped restating
facts it holds elsewhere. Each new summary is the old one, byte for byte,
with each fairness group replaced by its ``max_deviation`` (its
``weights_us`` repeated the snapshot's weights, its ``counts`` repeated
``selections``), each policy snapshot's ``"active"`` list deleted (the keys
of ``deficits_us`` are that set) and, for ``li`` and ``rp``, ``backoff_us``
and ``eligible_at_us`` emptied (only ``rr`` has backoffs). Every trace
digest stayed the same. The re-pin before that deleted the k x k fairness
ratio matrix from the summary file.

A third set runs ``ring-tree`` with its three workloads' client links at 0,
3 and 7 ms. The shipped scenarios all use a client link of 0, so only these
digests see arrivals from workloads with different links land in one run.

``helpers.reference_run``, a plain simulator written from the documented
rules, must reproduce every pinned digest too, so a pinned digest is known
to be the documented behaviour and not only the loop's own.
"""

import dataclasses
import hashlib

import pytest

from edgedispatch.metrics import summarize, trace_bytes
from edgedispatch.policy import PolicyKind
from edgedispatch.scenario import load_scenario, scenario_from_mapping
from edgedispatch.simnet import run

from helpers import fanout_doc, reference_run

GOLDEN = {
    ("line", "rr"): (
        "fda36a72e5e72f3e851c8587428e8d895dd7b8513d1615fa020fa22648399e41",
        "c0821637abd6974d39c013bda891216f63fec779172395fd035cc8e241230c4b",
    ),
    ("line", "li"): (
        "573abca5d1888f74cfc27bd3b3e2fe1b26da0925cf1fcd4f7f82467eeb938450",
        "8a1b8c0b15b04b8d892439b9b1456396ba1ee682bbaf2f22d915ff2dbc85f30b",
    ),
    ("line", "rp"): (
        "b4df15b32c74ab4f85517704289948be8f36c058747539629ad958505a1f41e0",
        "1f9d85b693bf07f5e0c34efbb6ebd4130216a40e91e3e0cf428ab8abc38f5f1f",
    ),
    ("ring-tree", "rr"): (
        "a45ec681b9e8d8caf3f663dc4fa2da71ed707d14f54579655c8952caed645017",
        "8049a5cc7b157498f2ad7cae30660812317089dde066b56b77c06cbeca948bb9",
    ),
    ("ring-tree", "li"): (
        "48e3d81a9b742eeec568f236569f530cae72aeef8d7f711fd4d35c0f84fa9a62",
        "d8c061fe2501a4839daf1582aef3a76f6f2dad58b1f1c5c9ff4e88120322f044",
    ),
    ("ring-tree", "rp"): (
        "e6d390608842e9d607526501882ee39912d9049561e8045413aaa0d37188aceb",
        "43c1d96171d18a50c3fd49375f88227ea2371f2895a31b1d5a7878f290044d67",
    ),
}


# ``helpers.fanout_doc(7)``: 48 computers, 16 of them with blackout windows,
# so the policies' indexes see probes, evictions, congestion marks and
# clears at a fan-out the built-ins do not reach.
FANOUT_GOLDEN = {
    "rr": (
        "f13e96fcfca555f490e93fe78da10011c787a13c8a6bb293dd2a3da0ec0885d1",
        "60f19bf938308351a76a1fdd436d9883ba258dce4bee5abf21c0f7e6f88f3d79",
    ),
    "li": (
        "9d124c58cc7f14f1c85020c8703eead44af55a4e2c4cf1f522bec0e9ee3ba0bc",
        "a561e4f791e87658da168acb25664b90a280bee2d054471a3b5785ddd8937a9d",
    ),
    "rp": (
        "ef2f67b2639e0994dbc223f1722dc48abe5320a3190d79c57e9d27c490f87448",
        "62eba8515eb2565b0c868658cd07d3b5c2940cc6ab7130d14f2288bb24676cf2",
    ),
}


# ``ring-tree`` with client links of 0, 3000 and 7000 us on its workloads,
# in (router, lambda) order.
MIXED_LINK_US = (0, 3000, 7000)
MIXED_LINK_GOLDEN = {
    "rr": (
        "29e7d76eb26a6f74909703852ae8f8cc2a5587de714054c5c0d563c576368a37",
        "24bd57323669b5bb6a0ab5df4dbe270d8b5203b608a0b28f82a7fa42091d3f77",
    ),
    "li": (
        "dc9359708f914a8aa90db27f7adf0d2b1522f7b39927f7a1bbc4ee535a8568b3",
        "5e91f21bc4eecd85fbc278d6063f7e8fe0ebcb0f0342abf10abf1bfe74929d99",
    ),
    "rp": (
        "cf614e0d960d1b06cddd11e472a1c091bfde70865db33822fc8c5411dc2cbac7",
        "8c21e8bcd832ec38956246058568651ebe19ccb11906ec4fe1eff4e14a721a05",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, policy", sorted(GOLDEN))
def test_builtin_run_digests(name, policy):
    result = run(load_scenario(name).with_overrides(policy_kind=PolicyKind(policy)))
    summary = summarize(result.rows, result.snapshot).to_json()
    assert (
        sha256(trace_bytes(result.rows)),
        sha256(summary.encode("utf-8")),
    ) == GOLDEN[name, policy]


@pytest.mark.parametrize("policy", sorted(FANOUT_GOLDEN))
def test_fanout_run_digests(policy):
    scenario = scenario_from_mapping(fanout_doc(7))
    result = run(scenario.with_overrides(policy_kind=PolicyKind(policy)))
    summary = summarize(result.rows, result.snapshot).to_json()
    assert (
        sha256(trace_bytes(result.rows)),
        sha256(summary.encode("utf-8")),
    ) == FANOUT_GOLDEN[policy]


def mixed_link_scenario():
    base = load_scenario("ring-tree")
    workload = sorted(base.workload, key=lambda w: (w.router, w.lam))
    return dataclasses.replace(
        base,
        workload=tuple(
            dataclasses.replace(w, client_link_us=link)
            for w, link in zip(workload, MIXED_LINK_US, strict=True)
        ),
    )


@pytest.mark.parametrize("policy", sorted(MIXED_LINK_GOLDEN))
def test_mixed_client_link_digests(policy):
    result = run(mixed_link_scenario().with_overrides(policy_kind=PolicyKind(policy)))
    summary = summarize(result.rows, result.snapshot).to_json()
    assert (
        sha256(trace_bytes(result.rows)),
        sha256(summary.encode("utf-8")),
    ) == MIXED_LINK_GOLDEN[policy]


ALL_GOLDEN = (
    [(load_scenario, name, policy, digests) for (name, policy), digests in sorted(GOLDEN.items())]
    + [
        (lambda _: scenario_from_mapping(fanout_doc(7)), "fanout", policy, digests)
        for policy, digests in sorted(FANOUT_GOLDEN.items())
    ]
    + [
        (lambda _: mixed_link_scenario(), "mixed-link", policy, digests)
        for policy, digests in sorted(MIXED_LINK_GOLDEN.items())
    ]
)


@pytest.mark.parametrize(
    "build, name, policy, digests",
    ALL_GOLDEN,
    ids=[f"{name}-{policy}" for _, name, policy, _ in ALL_GOLDEN],
)
def test_reference_simulator_reproduces_the_golden_digests(build, name, policy, digests):
    reference = reference_run(build(name).with_overrides(policy_kind=PolicyKind(policy)))
    assert reference.naive_selections == reference.selects > 0
    summary = summarize(reference.rows, reference.snapshot).to_json()
    assert (
        sha256(trace_bytes(reference.rows)),
        sha256(summary.encode("utf-8")),
    ) == digests
