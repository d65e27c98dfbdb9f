"""Golden digests of the built-in runs and of one seeded fan-out run.

The trace and summary bytes are the simulator's behavioural contract. These
SHA-256 digests pin them for every built-in scenario and a 48-computer
fan-out under every policy, so a change to event order, rounding, selection
or formatting shows up here even when a rerun still matches itself. A change
that alters them on purpose must say why and re-pin them.

The summary digests were last re-pinned when the k x k fairness ratio matrix
left the summary file (it is built only for ``run --verbose``). Each new
summary is the old one with every ``"ratios"`` key deleted, byte for byte,
and every trace digest stayed the same.
"""

import hashlib

import pytest

from edgedispatch.metrics import summarize, trace_bytes
from edgedispatch.policy import PolicyKind
from edgedispatch.scenario import load_scenario, scenario_from_mapping
from edgedispatch.simnet import run

from helpers import fanout_doc

GOLDEN = {
    ("line", "rr"): (
        "fda36a72e5e72f3e851c8587428e8d895dd7b8513d1615fa020fa22648399e41",
        "19e8cb4c497b53660d8a0685d39fb99372dcc449b19f2aefacc7a76bd6d17dee",
    ),
    ("line", "li"): (
        "573abca5d1888f74cfc27bd3b3e2fe1b26da0925cf1fcd4f7f82467eeb938450",
        "2918b1641d376951ca982152f3f83c0b892b8d714c6da53cd651714df65f3a68",
    ),
    ("line", "rp"): (
        "b4df15b32c74ab4f85517704289948be8f36c058747539629ad958505a1f41e0",
        "de64155c0f1496c8047d5c45becb1cfd36d9509478439ee4922ed9219e4ceb1d",
    ),
    ("ring-tree", "rr"): (
        "a45ec681b9e8d8caf3f663dc4fa2da71ed707d14f54579655c8952caed645017",
        "3a96384fe21b26434f45c2a65f6eedf7381e2969926e86f851658b59d85adc57",
    ),
    ("ring-tree", "li"): (
        "48e3d81a9b742eeec568f236569f530cae72aeef8d7f711fd4d35c0f84fa9a62",
        "e58ce0524794e999d9af8031c52eba4d422bc14ab8441e574c991894128038fb",
    ),
    ("ring-tree", "rp"): (
        "e6d390608842e9d607526501882ee39912d9049561e8045413aaa0d37188aceb",
        "b49a1d04c735a34fd677cf162fb6c1aa142ce0f6f6cb5a5e36922b1d6d90680c",
    ),
}


# ``helpers.fanout_doc(7)``: 48 computers, 16 of them with blackout windows,
# so the policies' indexes see probes, evictions, congestion marks and
# clears at a fan-out the built-ins do not reach.
FANOUT_GOLDEN = {
    "rr": (
        "f13e96fcfca555f490e93fe78da10011c787a13c8a6bb293dd2a3da0ec0885d1",
        "e9c79be9a47d8909f0cc902fe898352822730068ab6876ac63582b22b5dd6146",
    ),
    "li": (
        "9d124c58cc7f14f1c85020c8703eead44af55a4e2c4cf1f522bec0e9ee3ba0bc",
        "0cd0d4a85930273d1cc53a2f2975beb36a7d2095a7dc90b3e018d1ee7cdf3a35",
    ),
    "rp": (
        "ef2f67b2639e0994dbc223f1722dc48abe5320a3190d79c57e9d27c490f87448",
        "d2f49bbd5b64e5154e047455179fe93aa9a1e17ddaf38c302237844da42fffa9",
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
