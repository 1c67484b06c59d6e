"""The speed probe's rescaling to reference seconds."""
from __future__ import annotations

import os
import signal
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import speed  # noqa: E402
from speed import REFERENCE_SLICE_S, SpeedProbe  # noqa: E402


def synthetic(slice_s: float, count: int = 100, step: float = 0.02) -> SpeedProbe:
    probe = SpeedProbe()
    probe.starts = [i * step for i in range(count)]
    probe.seconds = [slice_s] * count
    return probe


def test_reference_speed_leaves_time_unchanged_apart_from_the_slices():
    probe = synthetic(REFERENCE_SLICE_S)
    own = 50 * REFERENCE_SLICE_S  # slices starting in [0, 1)
    assert probe.reference_seconds(0.0, 1.0) == pytest.approx(1.0 - own)


def test_half_speed_halves_the_time():
    probe = synthetic(2 * REFERENCE_SLICE_S)
    own = 50 * 2 * REFERENCE_SLICE_S
    assert probe.reference_seconds(0.0, 1.0) == pytest.approx((1.0 - own) / 2)


def test_speed_is_averaged_over_wall_time():
    # half the interval at reference speed, half at a quarter of it
    probe = synthetic(REFERENCE_SLICE_S)
    probe.seconds = [REFERENCE_SLICE_S] * 50 + [4 * REFERENCE_SLICE_S] * 50
    own = sum(probe.seconds)
    expected = (2.0 - own) * (1 + 0.25) / 2
    assert probe.reference_seconds(0.0, 2.0) == pytest.approx(expected)


def test_short_interval_borrows_its_nearest_slices():
    probe = synthetic(REFERENCE_SLICE_S)
    probe.seconds = [2 * REFERENCE_SLICE_S] * 50 + [REFERENCE_SLICE_S] * 50
    # [0.105, 0.115] holds no slice; its 8 nearest are all at half speed
    assert probe.reference_seconds(0.105, 0.115) == pytest.approx(0.005)
    lo, hi = probe._nearest(0.11)
    assert hi - lo == speed.MIN_SAMPLES and lo < 6 <= hi


def test_without_slices_wall_time_is_kept():
    assert SpeedProbe().reference_seconds(1.0, 1.5) == pytest.approx(0.5)


def test_probe_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe().start()
    try:
        begin = time.perf_counter()
        while time.perf_counter() - begin < 0.3:
            sum(i * i for i in range(1000))
        end = time.perf_counter()
    finally:
        probe.stop()
    assert len(probe.seconds) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.reference_seconds(begin, end) > 0
