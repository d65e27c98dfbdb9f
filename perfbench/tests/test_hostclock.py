import signal
import statistics
import time

import pytest

from hostclock import HostClock


def test_time_takes_the_probes_inside_a_call_out_of_its_host_time():
    clock = HostClock()

    def call():
        t0 = time.perf_counter()
        for _ in range(3):
            clock.probe()
        return time.perf_counter() - t0

    inside, host, ref = clock.time(call)
    assert len(clock.speeds) == 5  # before, three inside, after
    assert 0 <= host < 0.2 * inside
    assert ref == pytest.approx(host * statistics.fmean(clock.speeds))


def test_timer_probes_while_entered_and_is_restored_on_exit():
    def previous(signum, frame):
        pass

    saved = signal.signal(signal.SIGALRM, previous)
    try:
        with HostClock(interval=0.005) as clock:
            end = time.perf_counter() + 0.1
            while time.perf_counter() < end:
                pass
        assert len(clock.speeds) >= 5
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, saved)
