"""The machine-speed probe: a fixed kernel, a timer, one ratio."""

import signal
import time

import pytest

from perf import calibrate
from perf.calibrate import REFERENCE_S, SpeedProbe


def test_kernel_does_the_same_work_every_pass():
    assert calibrate._kernel() == calibrate._kernel() == sum(2 * i for i in range(3000))


def test_probe_ticks_while_entered_and_cleans_up_after():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 3.5 * calibrate.PERIOD_S:
            pass
        end = time.perf_counter()
    assert len(probe.kernel_seconds(start, end)) >= 2
    assert all(seconds > 0 for _, seconds in probe.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    ticks = len(probe.samples)
    time.sleep(1.5 * calibrate.PERIOD_S)
    assert len(probe.samples) == ticks


def test_speed_is_reference_over_the_median_pass_of_the_interval():
    probe = SpeedProbe()
    probe.samples = [(1.0, REFERENCE_S), (2.0, 2 * REFERENCE_S), (3.0, 2 * REFERENCE_S),
                     (4.0, 9 * REFERENCE_S), (9.0, REFERENCE_S)]
    assert probe.kernel_seconds(2.0, 5.0) == [2 * REFERENCE_S, 2 * REFERENCE_S, 9 * REFERENCE_S]
    assert probe.speed(2.0, 5.0) == pytest.approx(0.5)        # one slow pass does not move it
    assert probe.speed(1.0, 4.0) == pytest.approx(0.5)


def test_an_interval_too_short_for_the_timer_gets_its_passes_made_up():
    probe = SpeedProbe()
    start = time.perf_counter()
    speed = probe.speed(start, time.perf_counter())
    assert len(probe.samples) == calibrate.MIN_SAMPLES
    assert speed > 0
