import random

from edgedispatch.core import US_PER_MS, from_ms, to_ms


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

