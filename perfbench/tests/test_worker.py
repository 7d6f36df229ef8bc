"""Scaling measured times to the reference speed."""

import signal
import time

import worker


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_run_calibrated_scales_each_piece_and_leaves_out_calibration(monkeypatch):
    calls = []

    def half_speed():
        calls.append(time.perf_counter())
        _busy(0.005)
        return 2 * worker.REF_CAL_S  # the CPU runs at half the reference speed

    monkeypatch.setattr(worker, "calibrate", half_speed)
    monkeypatch.setattr(worker, "CAL_PERIOD_S", 0.05)
    before = signal.getsignal(signal.SIGALRM)
    result, seconds, scaled, first = worker.run_calibrated(lambda: _busy(0.33))
    assert result == "done" and first == 2 * worker.REF_CAL_S
    inside = len(calls) - 2  # all but the calibrations before and after fn
    assert inside >= 2
    assert abs(scaled - seconds / 2) < 1e-9
    # fn's 0.33 s of wall time include the calibrations run inside it; one
    # alarm may fire after fn has returned, before the timer is stopped
    assert 0.33 - 0.01 * inside <= seconds <= 0.33 - 0.005 * (inside - 1) + 1e-3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
