"""Retrieval: speed estimates (R2) and the segment reader's costs."""

from fractions import Fraction

import pytest

from repro.cache.plane import CacheConfig, CachePlane
from repro.cache.tiers import TierConfig
from repro.clock import SimClock
from repro.codec.encoder import Encoder
from repro.errors import StorageError
from repro.retrieval.reader import SegmentReader
from repro.retrieval.speed import retrieval_speed
from repro.storage.disk import DiskModel
from repro.storage.kvstore import KVStore
from repro.storage.segment_store import SegmentStore
from repro.storage.sharding import ShardedDiskArray
from repro.units import GB
from repro.video.coding import Coding, RAW
from repro.video.fidelity import Fidelity
from repro.video.format import StorageFormat
from repro.video.segment import Segment

from oracles import reader as oracle

ENCODED = StorageFormat(Fidelity.parse("good-540p-1-100%"), Coding("fast", 10))
RAW_FMT = StorageFormat(Fidelity.parse("best-200p-1-100%"), RAW)


class TestSpeedEstimates:
    def test_encoded_is_decode_bound(self):
        # Decoding tens of MB/s vs a GB/s disk: the decoder dictates speed.
        from repro.codec.model import DEFAULT_CODEC
        speed = retrieval_speed(ENCODED)
        assert speed == pytest.approx(
            DEFAULT_CODEC.decode_speed(ENCODED.fidelity, ENCODED.coding)
        )

    def test_raw_is_disk_bound(self):
        speed = retrieval_speed(RAW_FMT)
        assert speed > 300  # bandwidth-bound, far beyond decoder speeds

    def test_sparse_consumer_speeds_up_both_paths(self):
        for fmt in (ENCODED, RAW_FMT):
            dense = retrieval_speed(fmt, Fraction(1))
            sparse = retrieval_speed(fmt, Fraction(1, 30))
            assert sparse > dense

    def test_raw_range_matches_table3(self):
        """Table 3b: raw formats span a huge retrieval range because
        sampled frames are read individually."""
        dense = retrieval_speed(RAW_FMT, Fraction(1))
        sparse = retrieval_speed(RAW_FMT, Fraction(1, 30))
        assert sparse / dense > 5


def _one(reader, index):
    """The reader's cost for one segment, through the batch pass."""
    (clip,) = reader.assess_many("cam", [index])
    return clip


class TestReader:
    """What a retrieval costs (``assess_many``), and how the sequential
    oracle's clock-charging ``read`` books that cost."""

    @pytest.fixture()
    def store(self, tmp_path):
        kv = KVStore(str(tmp_path / "seg.log"))
        store = SegmentStore(kv, DiskModel(clock=SimClock()))
        enc = Encoder(clock=SimClock())
        for fmt in (ENCODED, RAW_FMT):
            for i in range(3):
                store.put(enc.encode(Segment("cam", i), fmt, 0.4))
        yield store
        kv.close()

    def test_rejects_unsupplyable_fidelity(self, store):
        rich = Fidelity.parse("best-720p-1-100%")
        with pytest.raises(StorageError):
            SegmentReader(store, ENCODED, rich)

    def test_encoded_read_charges_decode(self, store):
        clock = SimClock()
        reader = SegmentReader(store, ENCODED,
                               Fidelity.parse("good-540p-1-100%"))
        out = oracle.read(reader, "cam", 0, clock)
        assert out.n_frames == 240  # 8 s at 30 fps
        assert clock.spent("decode") == pytest.approx(out.retrieval_seconds)

    def test_encoded_sparse_read_skips_chunks(self, store):
        dense = _one(SegmentReader(store, ENCODED,
                                   Fidelity.parse("good-540p-1-100%")), 0)
        sparse = _one(SegmentReader(store, ENCODED,
                                    Fidelity.parse("good-540p-1/30-100%")), 0)
        assert sparse.n_frames == 8
        assert sparse.retrieval_seconds < dense.retrieval_seconds / 3

    def test_raw_read_charges_disk(self, store):
        clock = SimClock()
        reader = SegmentReader(store, RAW_FMT,
                               Fidelity.parse("best-200p-1-100%"))
        out = oracle.read(reader, "cam", 1, clock)
        assert clock.spent("disk") == pytest.approx(out.retrieval_seconds)
        assert out.n_frames == 240

    def test_raw_sparse_read_is_cheap(self, store):
        dense = _one(SegmentReader(store, RAW_FMT,
                                   Fidelity.parse("best-200p-1-100%")), 0)
        sparse = _one(SegmentReader(store, RAW_FMT,
                                    Fidelity.parse("best-200p-1/30-100%")), 0)
        assert sparse.retrieval_seconds < dense.retrieval_seconds

    def test_read_range_streams_in_order(self, store):
        # A batch comes back in request order, whatever that order is:
        # the planner zips it with the stage's active segments.
        reader = SegmentReader(store, ENCODED,
                               Fidelity.parse("good-540p-1/6-100%"))
        out = reader.assess_many("cam", [2, 0, 1])
        assert [o.stored.index for o in out] == [2, 0, 1]

    def test_missing_segment_raises(self, store):
        reader = SegmentReader(store, ENCODED,
                               Fidelity.parse("good-540p-1-100%"))
        with pytest.raises(StorageError):
            reader.assess_many("cam", [0, 99])


def _assert_batch_matches_scalar(reader, indices):
    """``assess_many`` equals the scalar oracle segment by segment,
    bit for bit; returns the batch."""
    batch = reader.assess_many("cam", indices)
    assert len(batch) == len(indices)
    for index, clip in zip(indices, batch):
        one = oracle.assess(reader, "cam", index)
        assert clip.n_frames == one.n_frames
        # bit-identical, not approx: the executor schedules on these
        assert clip.retrieval_seconds == one.retrieval_seconds
        assert clip.stored.index == one.stored.index
    return batch


CONSUMERS = [
    (ENCODED, "good-540p-1-100%"),
    (ENCODED, "good-540p-1/6-100%"),
    (ENCODED, "good-540p-1/30-100%"),
    (RAW_FMT, "best-200p-1-100%"),
    (RAW_FMT, "best-200p-1/30-100%"),
]


class TestBatchAssessParity:
    """The vectorized batch pass must be *bit-identical* to the scalar
    per-segment reference in ``tests/oracles/reader.py`` — the planner's
    costs (and therefore the golden traces) ride on it."""

    @pytest.fixture()
    def store(self, tmp_path):
        kv = KVStore(str(tmp_path / "seg.log"))
        store = SegmentStore(kv, DiskModel(clock=SimClock()))
        enc = Encoder(clock=SimClock())
        for fmt in (ENCODED, RAW_FMT):
            for i in range(5):
                store.put(enc.encode(Segment("cam", i), fmt, 0.4))
        yield store
        kv.close()

    @pytest.mark.parametrize("fmt,consumer", CONSUMERS)
    def test_assess_many_matches_scalar(self, store, fmt, consumer):
        reader = SegmentReader(store, fmt, Fidelity.parse(consumer))
        _assert_batch_matches_scalar(reader, [0, 1, 2, 3, 4])

    def test_assess_many_empty(self, store):
        reader = SegmentReader(store, ENCODED,
                               Fidelity.parse("good-540p-1-100%"))
        assert reader.assess_many("cam", []) == []

    def test_assess_cached_many_matches_scalar(self, store):
        reader = SegmentReader(store, RAW_FMT,
                               Fidelity.parse("best-200p-1/30-100%"),
                               cache=CachePlane())
        indices = [0, 1, 2]
        batch = reader.assess_cached_many("cam", indices)
        for index, (clip, access) in zip(indices, batch):
            one_clip, one_access = oracle.assess_cached(reader, "cam", index)
            assert clip.retrieval_seconds == one_clip.retrieval_seconds
            assert access.key == one_access.key
            assert access.hit == one_access.hit
            assert access.full_seconds == one_access.full_seconds
            assert access.hit_seconds == one_access.hit_seconds
            assert access.nbytes == one_access.nbytes


class TestRoutedAssessParity:
    """Parity where raw reads are routed: by shard (replicas, a degraded
    shard, a failed primary) and by tier (a promoted segment)."""

    N = 8

    @pytest.fixture()
    def sharded_store(self, tmp_path):
        # Shards differ in bandwidth and overhead, so where a read routes
        # shows up in its cost.
        disks = [
            DiskModel(read_bandwidth=bw * GB, request_overhead=ovh)
            for bw, ovh in ((1.0, 1e-4), (0.5, 2e-4), (0.25, 4e-4),
                            (0.125, 8e-4))
        ]
        array = ShardedDiskArray(placement="round-robin", replication=2,
                                 disks=disks)
        kv = KVStore(str(tmp_path / "seg.log"))
        store = SegmentStore(kv, array)
        enc = Encoder(clock=SimClock())
        for fmt in (ENCODED, RAW_FMT):
            for i in range(self.N):
                store.put(enc.encode(Segment("cam", i), fmt, 0.4))
        yield store
        kv.close()

    @pytest.mark.parametrize("fmt,consumer", CONSUMERS)
    def test_sharded_replicated_degraded_and_failed(self, sharded_store,
                                                    fmt, consumer):
        store = sharded_store
        array = store.array
        failed = store.shard_of("cam", RAW_FMT, 0)
        array.fail_shard(failed)
        array.degrade_shard((failed + 1) % array.n_shards, 3.0)
        shards = {store.shard_of("cam", RAW_FMT, i) for i in range(self.N)}
        assert failed not in shards and len(shards) > 1

        reader = SegmentReader(store, fmt, Fidelity.parse(consumer))
        batch = _assert_batch_matches_scalar(reader, list(range(self.N)))
        if fmt.is_raw:
            # Routing reached the cost: segments on different shards
            # (or a degraded one) cost different amounts.
            assert len({c.retrieval_seconds for c in batch}) > 1

    @pytest.mark.parametrize("fmt,consumer", CONSUMERS)
    def test_tiering_cache_with_a_promoted_segment(self, tmp_path,
                                                   fmt, consumer):
        kv = KVStore(str(tmp_path / "seg.log"))
        disk = DiskModel(clock=SimClock())
        store = SegmentStore(kv, disk)
        enc = Encoder(clock=SimClock())
        for f in (ENCODED, RAW_FMT):
            for i in range(self.N):
                store.put(enc.encode(Segment("cam", i), f, 0.4))
        plane = CachePlane(CacheConfig(tiering=TierConfig()))
        for _ in range(plane.tiers.config.promote_accesses):
            plane.tiers.record_access("cam", 2, 1e6)
        assert plane.tiers.sweep(SimClock(), disk) == (1, 0)
        assert plane.tiers.is_fast("cam", 2)

        reader = SegmentReader(store, fmt, Fidelity.parse(consumer),
                               cache=plane)
        batch = _assert_batch_matches_scalar(reader, list(range(self.N)))
        if fmt.is_raw:
            # The promoted segment streams at fast-tier bandwidth.
            assert batch[2].retrieval_seconds < batch[1].retrieval_seconds
        kv.close()
