"""Age tracking and erosion execution."""

import pytest

from repro.clock import SimClock
from repro.codec.encoder import Encoder
from repro.storage.kvstore import KVStore
from repro.storage.lifespan import (
    AgeTracker,
    apply_erosion_step,
    erosion_rank,
    segment_age_days,
)
from repro.storage.segment_store import SegmentStore
from repro.storage.sharding import ShardedDiskArray
from repro.units import DAY
from repro.video.coding import Coding
from repro.video.fidelity import Fidelity
from repro.video.format import StorageFormat
from repro.video.segment import Segment

FMT = StorageFormat(Fidelity.parse("bad-100p-1/30-50%"), Coding("fastest", 5))


def test_erosion_rank_stable_and_uniformish():
    ranks = [erosion_rank(i) for i in range(2000)]
    assert ranks == [erosion_rank(i) for i in range(2000)]
    assert all(0.0 <= r < 1.0 for r in ranks)
    # Roughly uniform: about half below 0.5.
    below = sum(r < 0.5 for r in ranks)
    assert 800 < below < 1200


def test_erosion_rank_monotone_deletion_sets():
    # A segment deleted at fraction p stays deleted at any p' > p.
    for i in range(100):
        if erosion_rank(i) < 0.3:
            assert erosion_rank(i) < 0.7


def test_segment_age_days():
    # A segment that just finished is age 1 (youngest).
    assert segment_age_days(0, 8.0) == 1
    assert segment_age_days(0, DAY + 8.0) == 2
    assert segment_age_days(10, 10 * 8.0 + 8.0) == 1


def test_age_tracker_groups():
    tracker = AgeTracker(now_seconds=2 * DAY)
    ages = tracker.ages(range(int(2 * DAY / 8)))
    assert set(ages) == {1, 2}
    assert sum(len(v) for v in ages.values()) == int(2 * DAY / 8)


@pytest.fixture()
def store(tmp_path):
    kv = KVStore(str(tmp_path / "seg.log"))
    yield SegmentStore(kv, ShardedDiskArray(1))
    kv.close()


def _fill(store, n):
    enc = Encoder(clock=SimClock())
    for i in range(n):
        store.put(enc.encode(Segment("cam", i), FMT, 0.2))


def test_apply_erosion_deletes_fraction(store):
    _fill(store, 200)
    now = 200 * 8.0  # all segments are age 1
    deleted = apply_erosion_step(
        store, "cam", {(1, FMT): 0.5}, now, lifespan_days=10
    )
    assert 70 <= deleted <= 130  # about half
    assert store.segment_count("cam", FMT) == 200 - deleted


def test_apply_erosion_cumulative(store):
    _fill(store, 200)
    now = 200 * 8.0
    first = apply_erosion_step(store, "cam", {(1, FMT): 0.3}, now, 10)
    second = apply_erosion_step(store, "cam", {(1, FMT): 0.3}, now, 10)
    assert second == 0  # same fraction: nothing new to delete
    third = apply_erosion_step(store, "cam", {(1, FMT): 0.6}, now, 10)
    assert third > 0
    assert store.segment_count("cam", FMT) == 200 - first - third


def test_lifespan_expiry_overrides_plan(store):
    _fill(store, 10)
    # Move "now" so far that all segments are past a 1-day lifespan.
    deleted = apply_erosion_step(store, "cam", {}, 3 * DAY, lifespan_days=1)
    assert deleted == 10
    assert store.segment_count("cam", FMT) == 0


def test_zero_fraction_deletes_nothing(store):
    _fill(store, 50)
    deleted = apply_erosion_step(store, "cam", {(1, FMT): 0.0}, 50 * 8.0, 10)
    assert deleted == 0
