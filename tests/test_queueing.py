"""The simulator against queueing theory: M/D/1 and M/D/c (ROADMAP item 17).

Every other check of the simulator compares it with code of this
repository (the goldens, ``reference_run``, ``NaivePolicy``), so a shared
misreading of the model would pass them all. A closed form is an outside
answer. One router and one computer with 1 worker, service S = 5 ms and
0 ms links, fed by Poisson arrivals at rate ρ/S: every request goes to that
computer and waits in its FIFO queue, so the queue is M/D/1, and the
trace's ``queue_us`` is a request's wait. S comes two ways: a 5 ms base
with ``beta`` 0, and a 4 ms base with ``beta`` 0.25. With 1 worker the
load count ``busy`` is always 1, so the base scales by 1 + 0.25 to 5 ms on
every row; the second case runs the ``service_time`` call that the
delivery handler makes only when ``beta`` is not 0. The Pollaczek–Khinchine
formula gives the mean wait, ``W = ρS / (2(1 − ρ))`` (Kleinrock, *Queueing
Systems* vol. 1, Wiley 1975, §5.6): 2.5 ms at ρ = 0.5 and 10 ms at ρ = 0.8.

The estimate is the mean of 20 batch means, each over the requests issued
in one 10 s stretch of simulated time, after one discarded warm-up batch
(every run starts empty, which pulls the early waits low: Law and Kelton,
*Simulation Modeling and Analysis*, ch. 9). At ρ = 0.8 a wait's
correlation dies out over roughly a hundred service times, half a second,
so batches of 10 s are nearly independent. The seeds, the durations and
the ``|z|`` bound below were fixed before the first run; a failure at them
is a simulator defect or a test with too little power, and is never met by
re-seeding or resizing.

The second moment of the wait is Takács's, ``E[W²] = 2W² + λS³ / (3(1 − ρ))``
for a deterministic S (Kleinrock, §5.6): 20.83 ms² at ρ = 0.5. It is
checked at ρ = 0.5 only, by the same batch means over squared waits, the
same seeds and the same bound. Under heavy load the batch means of squared
waits correlate: a prototype saw ``z = -4.16`` at ρ = 0.8 with no defect.

With c workers and ``beta`` 0 the queue is M/D/c, and the check of the
mean wait is the one above at per-worker load ρ, arrivals at rate cρ/S, for
c = 2 and 3. It is the one outside check of the multi-worker start rule: a
request starts at the earliest free worker, in arrival order. The exact mean comes
from Crommelin's (1932) grid chain rather than his roots: every request in
service at t leaves by t + S and none that starts later does, so the number
in system obeys N(t + S) = max(N(t) − c, 0) + A, with A Poisson of mean cρ.
The chain's stationary law, found by iteration, is the time-average law of
N, and Little's law turns its mean queue into the mean wait; at c = 1 it
gives Pollaczek–Khinchine's. The seeds, durations and bound are the M/D/1
check's, and c and the loads were fixed with them before the first run.
The test still does not see the load count past one worker.
"""

import math
import statistics

import pytest

from edgedispatch.simnet import run
from helpers import tiny_scenario

SERVICE_MS = 5
# (base service in ms, beta): both serve a request in SERVICE_MS on 1 worker
SERVICES = ((5, 0.0), (4, 0.25))
LOADS = (0.5, 0.8)
WORKERS = (2, 3)
# States of the grid chain: at these loads the mass past them is below 1e-30.
CHAIN_STATES = 160
SEEDS = (1, 2)
BATCH_US = 10_000_000
BATCHES = 20  # after one discarded warm-up batch
Z_BOUND = 4.0


def md1_scenario(load, seed, base_ms, beta, workers=1):
    return tiny_scenario(
        name="md1",
        duration_ms=(BATCHES + 1) * BATCH_US // 1000,
        seed=seed,
        computers=[{"id": 0, "workers": workers, "beta": beta, "service_ms": {0: base_ms}}],
        routers=[{"id": 0, "links_ms": {0: 0}, "lambdas": [{"id": 0, "destinations": [0]}]}],
        workload=[
            {
                "router": 0,
                "lambda": 0,
                "process": "poisson",
                "rate_per_s": workers * load * 1000 / SERVICE_MS,
                "client_link_ms": 0,
            }
        ],
    )


def batch_means(result, power):
    """The mean of ``queue_us ** power`` in each batch after the warm-up."""
    assert not result.unserved
    waits = [[] for _ in range(BATCHES + 1)]
    for row in result.completed:
        assert row.processing_us == SERVICE_MS * 1000
        waits[row.issued_us // BATCH_US].append(row.queue_us**power)
    return [statistics.fmean(batch) for batch in waits[1:]]


def z_score(means, expected):
    return (statistics.fmean(means) - expected) / (statistics.stdev(means) / math.sqrt(BATCHES))


def mean_wait_us(load):
    return load * SERVICE_MS * 1000 / (2 * (1 - load))


def mdc_mean_wait_us(load, workers):
    """The exact M/D/c mean wait from the grid chain (module docstring)."""
    arrivals = workers * load
    poisson = [math.exp(-arrivals)]
    while poisson[-1] > 1e-20:
        poisson.append(poisson[-1] * arrivals / len(poisson))
    p = [1.0] + [0.0] * (CHAIN_STATES - 1)
    while True:
        q = [0.0] * CHAIN_STATES
        for n, pn in enumerate(p):
            base = max(n - workers, 0)
            for m, pm in enumerate(poisson[: CHAIN_STATES - base], base):
                q[m] += pn * pm
        if sum(abs(x - y) for x, y in zip(p, q)) < 1e-12:
            break
        p = q
    assert 1 - sum(q) < 1e-9
    queue = sum((n - workers) * pn for n, pn in enumerate(q) if n > workers)
    return queue * SERVICE_MS * 1000 / arrivals


@pytest.mark.parametrize(
    ("load", "seed", "base_ms", "beta"),
    [
        pytest.param(
            load, seed, base_ms, beta, id=f"{load}-{seed}" + (f"-beta{beta}" if beta else "")
        )
        for base_ms, beta in SERVICES
        for load in LOADS
        for seed in SEEDS
    ],
)
def test_the_mean_wait_is_pollaczek_khinchines(load, seed, base_ms, beta):
    means = batch_means(run(md1_scenario(load, seed, base_ms, beta)), 1)
    expected_us = mean_wait_us(load)
    z = z_score(means, expected_us)
    assert abs(z) <= Z_BOUND, (statistics.fmean(means), expected_us, z)


@pytest.mark.parametrize(
    ("seed", "base_ms", "beta"),
    [
        pytest.param(seed, base_ms, beta, id=f"0.5-{seed}" + (f"-beta{beta}" if beta else ""))
        for base_ms, beta in SERVICES
        for seed in SEEDS
    ],
)
def test_the_second_moment_of_the_wait_is_takacss(seed, base_ms, beta):
    load = 0.5
    means = batch_means(run(md1_scenario(load, seed, base_ms, beta)), 2)
    service_us = SERVICE_MS * 1000
    rate_per_us = load / service_us
    expected_us2 = 2 * mean_wait_us(load) ** 2 + rate_per_us * service_us**3 / (3 * (1 - load))
    z = z_score(means, expected_us2)
    assert abs(z) <= Z_BOUND, (statistics.fmean(means), expected_us2, z)


@pytest.mark.parametrize("load", LOADS)
def test_the_grid_chain_gives_pollaczek_khinchines_mean_at_one_worker(load):
    assert mdc_mean_wait_us(load, 1) == pytest.approx(mean_wait_us(load), rel=1e-9)


@pytest.mark.parametrize(
    ("workers", "load", "seed"),
    [(workers, load, seed) for workers in WORKERS for load in LOADS for seed in SEEDS],
    ids=str,
)
def test_the_mean_wait_with_several_workers_is_crommelins(workers, load, seed):
    means = batch_means(run(md1_scenario(load, seed, SERVICE_MS, 0.0, workers)), 1)
    expected_us = mdc_mean_wait_us(load, workers)
    z = z_score(means, expected_us)
    assert abs(z) <= Z_BOUND, (statistics.fmean(means), expected_us, z)
