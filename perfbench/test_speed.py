"""Task times are scaled by the reference bursts on either side of each
stretch of the task, and the bursts inside a task are left out of it."""

from __future__ import annotations

import pytest

import speed
from speed import NOMINAL_S, Speed


def bursts(*rows: tuple[float, float, float]) -> Speed:
    s = Speed()
    for start, end, seconds in rows:
        s.starts.append(start)
        s.ends.append(end)
        s.seconds.append(seconds)
    return s


def test_scaled_uses_the_bursts_on_either_side():
    s = bursts((0.0, 0.1, NOMINAL_S), (5.0, 5.1, 3 * NOMINAL_S), (9.0, 9.1, 9 * NOMINAL_S))
    assert s.scaled(1.0, 4.0) == pytest.approx(3.0 / 2)
    assert s.scaled(5.2, 8.0) == pytest.approx(2.8 / 6)


def test_scaled_leaves_out_bursts_inside_and_scales_each_stretch():
    s = bursts((0.0, 0.1, NOMINAL_S), (2.0, 2.5, 3 * NOMINAL_S), (4.0, 4.1, NOMINAL_S))
    # 1.0 s before the inner burst at factor 1/2, 1.0 s after it at 1/2
    assert s.scaled(1.0, 3.5) == pytest.approx(0.5 + 0.5)


def test_scaled_uses_the_one_burst_that_exists():
    s = bursts((0.0, 0.1, 2 * NOMINAL_S))
    assert s.scaled(0.2, 0.3) == pytest.approx(0.05)
    with pytest.raises(RuntimeError):
        Speed().scaled(0.0, 1.0)


def test_sample_records_bursts_in_time_order(monkeypatch):
    monkeypatch.setattr(speed, "EVERY_S", 60.0)
    s = Speed()
    s.sample_if_due()
    s.sample_if_due()  # not due yet
    s.sample()
    assert len(s.seconds) == 2
    assert s.starts[0] < s.ends[0] <= s.starts[1] < s.ends[1]
    assert all(t > 0 for t in s.seconds)


def test_probing_takes_bursts_inside_a_long_computation(monkeypatch):
    monkeypatch.setattr(speed, "EVERY_S", 0.05)
    s = Speed()
    with s.probing():
        start = speed.perf_counter()
        while speed.perf_counter() - start < 0.4:
            sum(range(1000))
        end = speed.perf_counter()
    inside = [i for i, t in enumerate(s.starts) if start < t and s.ends[i] < end]
    assert len(inside) >= 2
    assert 0 < s.scaled(start, end) < (end - start) * NOMINAL_S / min(s.seconds)
