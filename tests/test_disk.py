"""Disk bandwidth/seek model."""

from fractions import Fraction

import pytest

from repro.clock import SimClock
from repro.storage.disk import DiskModel
from repro.units import GB, MB
from repro.video.fidelity import Fidelity


@pytest.fixture()
def disk():
    return DiskModel(read_bandwidth=1.0 * GB, write_bandwidth=0.8 * GB,
                     request_overhead=0.1e-3, clock=SimClock())


def test_write_charges(disk):
    seconds = disk.write(0.8 * GB)
    assert seconds == pytest.approx(1.0 + 0.1e-3)
    assert disk.clock.spent("disk") == pytest.approx(seconds)


def test_sequential_read_speed(disk):
    # A 1 MB/s format streams at ~1024x realtime off a 1 GB/s disk.
    assert disk.sequential_read_speed(1.0 * MB) == pytest.approx(1024.0)
    assert disk.sequential_read_speed(0.0) == float("inf")


def test_raw_read_speed_full_scan_is_bandwidth_bound(disk):
    fid = Fidelity.parse("best-200p-1-100%")
    frame = 200 * 200 * 1.5
    speed = disk.raw_read_speed(fid, frame)
    assert speed == pytest.approx(
        1.0 / (30 * frame / (1.0 * GB) + 0.1e-3 / 8), rel=1e-6
    )
    # Hundreds of x realtime for a small raw format (Table 3b note 2).
    assert speed > 300


def test_raw_read_sampled_frames_individually(disk):
    fid = Fidelity.parse("best-200p-1-100%")
    frame = 200 * 200 * 1.5
    sparse = disk.raw_read_speed(fid, frame, Fraction(1, 30))
    full = disk.raw_read_speed(fid, frame, Fraction(1))
    # Sampling 1 frame/s touches 1/30 of the data: much faster retrieval.
    assert sparse > 5 * full


def test_negative_bytes_rejected(disk):
    # A negative size would charge negative seconds, silently rewinding
    # the simulated clock.
    with pytest.raises(ValueError):
        disk.write(-1.0 * MB)
    assert disk.clock.now == 0.0


def test_negative_requests_rejected(disk):
    with pytest.raises(ValueError):
        disk.write(1.0 * MB, requests=-2)
    assert disk.clock.now == 0.0


def test_zero_sized_transfers_allowed(disk):
    # Zero bytes / zero requests are legal no-ops (plus any request cost).
    assert disk.write(0.0, requests=0) == 0.0
    assert disk.write(0.0) == pytest.approx(0.1e-3)


def test_raw_read_speed_monotone_in_sampling(disk):
    fid = Fidelity.parse("best-200p-1-100%")
    frame = 200 * 200 * 1.5
    speeds = [
        disk.raw_read_speed(fid, frame, s)
        for s in (Fraction(1), Fraction(2, 3), Fraction(1, 2), Fraction(1, 6),
                  Fraction(1, 30))
    ]
    assert speeds == sorted(speeds)
