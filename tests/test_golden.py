"""Golden digests of the built-in runs.

The trace and summary bytes are the simulator's behavioural contract. These
SHA-256 digests pin them for every built-in scenario under every policy, so
a change to event order, rounding, selection or formatting shows up here
even when a rerun still matches itself. A change that alters them on
purpose must say why and re-pin them.
"""

import hashlib

import pytest

from edgedispatch.metrics import summarize, trace_bytes
from edgedispatch.policy import PolicyKind
from edgedispatch.scenario import load_scenario
from edgedispatch.simnet import run

GOLDEN = {
    ("line", "rr"): (
        "fda36a72e5e72f3e851c8587428e8d895dd7b8513d1615fa020fa22648399e41",
        "3929939537ce22144a18dd2afb2efff24ff6608de8224d828d8a47645dad41e8",
    ),
    ("line", "li"): (
        "573abca5d1888f74cfc27bd3b3e2fe1b26da0925cf1fcd4f7f82467eeb938450",
        "579128987ed764092ec50a1aa23e4b6df4a607389291e2d120e65ea97d2c4712",
    ),
    ("line", "rp"): (
        "b4df15b32c74ab4f85517704289948be8f36c058747539629ad958505a1f41e0",
        "81cc326900bdc44f45314a02a523aea89e93c8ecef974f502980a374f7bee629",
    ),
    ("ring-tree", "rr"): (
        "a45ec681b9e8d8caf3f663dc4fa2da71ed707d14f54579655c8952caed645017",
        "2f2a658549716088e4ca3ab356e3933b3286583db2eed00ca5917b58e39be393",
    ),
    ("ring-tree", "li"): (
        "48e3d81a9b742eeec568f236569f530cae72aeef8d7f711fd4d35c0f84fa9a62",
        "add4cb9560056efcdbd3c3110a865912215c2a215ff05dcdfe89368f45736258",
    ),
    ("ring-tree", "rp"): (
        "e6d390608842e9d607526501882ee39912d9049561e8045413aaa0d37188aceb",
        "dbf1abbcfba324bc2cbfb59d01200519e905fcc1f185327bb94cd67645fcd747",
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
