"""Disk bandwidth/seek model and the one I/O cost formula."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import repro
from repro.clock import SimClock
from repro.storage.disk import DiskModel
from repro.storage.sharding import ShardedDiskArray
from repro.units import GB, MB
from repro.video.fidelity import Fidelity


@pytest.fixture()
def disk():
    return DiskModel(read_bandwidth=1.0 * GB, write_bandwidth=0.8 * GB,
                     request_overhead=0.1e-3)


@pytest.fixture()
def array(disk):
    """A one-shard array on ``disk``: charging I/O goes through it."""
    return ShardedDiskArray(disks=[disk], clock=SimClock())


def test_write_charges(array):
    seconds = array.write_at(0, 0.8 * GB)
    assert seconds == pytest.approx(1.0 + 0.1e-3)
    assert array.clock.spent("disk") == pytest.approx(seconds)


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


def test_negative_bytes_rejected(array):
    # A negative size would charge negative seconds, silently rewinding
    # the simulated clock.
    with pytest.raises(ValueError):
        array.write_at(0, -1.0 * MB)
    assert array.clock.now == 0.0


def test_negative_requests_rejected(array):
    with pytest.raises(ValueError):
        array.write_at(0, 1.0 * MB, requests=-2)
    assert array.clock.now == 0.0


def test_zero_sized_transfers_allowed(array):
    # Zero bytes / zero requests are legal no-ops (plus any request cost).
    assert array.write_at(0, 0.0, requests=0) == 0.0
    assert array.write_at(0, 0.0) == pytest.approx(0.1e-3)


def test_raw_read_speed_monotone_in_sampling(disk):
    fid = Fidelity.parse("best-200p-1-100%")
    frame = 200 * 200 * 1.5
    speeds = [
        disk.raw_read_speed(fid, frame, s)
        for s in (Fraction(1), Fraction(2, 3), Fraction(1, 2), Fraction(1, 6),
                  Fraction(1, 30))
    ]
    assert speeds == sorted(speeds)


def test_raw_read_speed_returns_python_floats(disk):
    # The planner's scalar path shares raw_read_seconds with the arrays;
    # an np.float64 here would move the reprs the goldens pin.
    fid = Fidelity.parse("best-200p-1-100%")
    for sampling in (None, Fraction(1), Fraction(1, 30)):
        assert type(disk.raw_read_speed(fid, 200 * 200 * 1.5,
                                        sampling)) is float


def _bandwidth_divisions(path: Path):
    """``file:line`` of every division by a name or attribute containing
    ``bandwidth``, outside :func:`repro.storage.disk.transfer_seconds`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "transfer_seconds"
        and path.parts[-2:] == ("storage", "disk.py")
        for node in ast.walk(fn)
    }
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            divisor = node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            divisor = node.value
        else:
            continue
        if isinstance(divisor, ast.Name):
            name = divisor.id
        elif isinstance(divisor, ast.Attribute):
            name = divisor.attr
        else:
            continue
        if "bandwidth" in name:
            yield f"{path.relative_to(path.parents[2])}:{node.lineno}"


def test_every_io_second_is_costed_by_transfer_seconds():
    """No code in the package divides by a bandwidth except the one cost
    formula: every I/O second goes through ``transfer_seconds``.  Speeds
    (``bandwidth / bytes_per_second``) divide *into* a bandwidth and are
    not flagged."""
    package = Path(repro.__file__).parent
    found = [hit for path in sorted(package.rglob("*.py"))
             for hit in _bandwidth_divisions(path)]
    assert found == []
