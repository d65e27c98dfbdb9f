from collections import Counter

import pytest

from edgedispatch import scenario_from_mapping
from fanout import BOOTSTRAP_MS, COMPUTERS, LOAD, capacity_per_s, fanout_mapping


def test_same_seed_same_mapping():
    assert fanout_mapping(3) == fanout_mapping(3)
    assert fanout_mapping(3) != fanout_mapping(4)


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_mapping_passes_validation(seed):
    doc = fanout_mapping(seed)
    sc = scenario_from_mapping(doc)
    assert len(sc.computers) == COMPUTERS
    assert len(sc.routers) == 1
    assert sorted(sc.routers[0].lambdas[0].destinations) == list(range(COMPUTERS))
    # Poisson at LOAD times the aggregate base capacity.
    assert sc.workload[0].process == "poisson"
    assert sc.workload[0].rate_per_s == pytest.approx(LOAD * capacity_per_s(doc["computers"]), rel=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_time_is_whole_milliseconds_of_one_or_more(seed):
    doc = fanout_mapping(seed)
    times = [doc["duration_ms"], doc["policy"]["b_min_ms"], doc["policy"]["retry_ms"]]
    times += [c["service_ms"]["0"] for c in doc["computers"]]
    times += list(doc["routers"][0]["links_ms"].values())
    times += [w["client_link_ms"] for w in doc["workload"]]
    times += [w[k] for w in doc["congestion"] for k in ("start_ms", "end_ms")]
    assert all(isinstance(t, int) and t >= 1 for t in times)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_blackouts_cover_every_fourth_computer_without_overlap(seed):
    doc = fanout_mapping(seed)
    windows = {}
    for w in doc["congestion"]:
        windows.setdefault((w["router"], w["computer"]), []).append((w["start_ms"], w["end_ms"]))
    assert sorted(c for _, c in windows) == list(range(0, COMPUTERS, 4))
    for spans in windows.values():
        spans.sort()
        assert spans[0][0] >= BOOTSTRAP_MS
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert s1 < e1 < s2


def test_kinds_are_balanced_across_seeds():
    def kinds(seed):
        doc = fanout_mapping(seed)
        links = doc["routers"][0]["links_ms"]
        return Counter(
            (c["workers"], c["beta"], c["service_ms"]["0"], links[str(c["id"])])
            for c in doc["computers"]
        )

    first = kinds(0)
    assert len(first) == 2 * 2 * 3 * 3
    assert max(first.values()) - min(first.values()) <= 1
    assert kinds(1) == first
