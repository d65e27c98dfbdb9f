import dataclasses
import gc
import random

import pytest

from edgedispatch import metrics, simnet
from edgedispatch.core import US_PER_MS, from_ms, to_ms
from edgedispatch.metrics import TRACE_COLUMNS
from edgedispatch.scenario import InvalidScenario, load_scenario


def test_ms_conversion():
    assert from_ms(5) == 5000
    assert from_ms(0.5) == 500
    assert from_ms(0.6667) == 667  # rounds, does not truncate
    assert to_ms(2500) == 2.5
    assert US_PER_MS == 1000


def test_ms_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        us = rng.randint(0, 10_000_000)
        assert from_ms(to_ms(us)) == us


def run_line(tmp_path, ok):
    scenario = load_scenario("line").with_overrides(duration_us=100_000)
    simnet.run(scenario if ok else dataclasses.replace(scenario, duration_us=0))


def read_a_trace(tmp_path, ok):
    path = tmp_path / "trace.csv"
    lines = [",".join(TRACE_COLUMNS), "0,0,0,3,10,30,10,5,5,0,rr"]
    if not ok:
        lines.append("1,0,0,3,10,30,10,5,5,2,rr")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    metrics.read_trace(path)


# Each paused entry point, a name inside it that it calls on both paths
# (return and raise), and what it raises on the second.
PAUSED = {
    "run": (run_line, simnet, "ensure_valid", InvalidScenario),
    "read_trace": (read_a_trace, metrics, "TraceRow", ValueError),
}


@pytest.mark.parametrize("ok", [True, False], ids=["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("name", sorted(PAUSED))
def test_a_paused_call_leaves_the_collector_as_it_found_it(
    tmp_path, monkeypatch, name, enabled, ok
):
    call, module, inner, raised = PAUSED[name]
    original = getattr(module, inner)
    inside = []

    def spy(*args):
        inside.append(gc.isenabled())
        return original(*args)

    monkeypatch.setattr(module, inner, spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if ok:
            call(tmp_path, ok)
        else:
            with pytest.raises(raised):
                call(tmp_path, ok)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert inside and not any(inside)
    assert after is enabled

