import random

import pytest

from edgedispatch.core import (
    INFINITE,
    US_PER_MS,
    _InfiniteWeight,
    from_ms,
    to_ms,
)


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


def test_infinite_is_a_singleton():
    assert _InfiniteWeight() is INFINITE
    assert repr(INFINITE) == "INFINITE"


def test_infinite_ordering():
    assert INFINITE > 0
    assert INFINITE > 10**18
    assert INFINITE >= 5
    assert not INFINITE < 5
    assert not INFINITE <= 5
    assert INFINITE >= INFINITE
    assert INFINITE <= INFINITE
    assert not INFINITE > INFINITE
    assert not INFINITE < INFINITE


def test_infinite_sorts_last():
    values = [INFINITE, 300, 7, INFINITE, 12]
    ordered = sorted(values)
    assert ordered[:3] == [7, 12, 300]
    assert ordered[3] is INFINITE and ordered[4] is INFINITE
    assert min(values) == 7


def test_infinite_rejects_foreign_types():
    with pytest.raises(TypeError):
        INFINITE > 1.5
    with pytest.raises(TypeError):
        INFINITE < "tall"

