"""The sharded multi-disk storage plane: placement, parity, rebalance.

CI runs these modules twice (SHARDS=1 and SHARDS=4) so both the
degenerate and the genuinely sharded configurations stay covered; tests
that need a specific shard count pin it explicitly.
"""

import os

import pytest

from repro.clock import SimClock
from repro.codec.encoder import Encoder
from repro.codec.model import DEFAULT_CODEC
from repro.core.store import VStore
from repro.errors import StorageError
from repro.operators.library import default_library
from repro.query.cascade import QUERY_A
from repro.retrieval.reader import SegmentReader
from repro.storage.disk import DiskBandwidthPool, DiskModel
from repro.storage.kvstore import KVStore
from repro.storage.segment_store import SegmentStore, _fmt_key
from repro.storage.sharding import (
    HashPlacement,
    LocalityAwarePlacement,
    PlacementPolicy,
    ShardedDiskArray,
    placement_named,
)

from repro.video.coding import Coding, RAW
from repro.video.fidelity import Fidelity
from repro.video.format import StorageFormat
from repro.video.segment import Segment

from oracles import _execute_sequential

#: CI matrix knob: the generic sharded tests run at this width.
N_SHARDS = int(os.environ.get("SHARDS", "4"))

FMT_A = StorageFormat(Fidelity.parse("good-540p-1/6-100%"), Coding("fast", 10))
FMT_B = StorageFormat(Fidelity.parse("best-200p-1-100%"), RAW)

QUERY_LIB_NAMES = ("Diff", "S-NN", "NN", "Motion", "License", "OCR")


def _encode(fmt, index, stream="cam", activity=0.4):
    return Encoder(clock=SimClock()).encode(
        Segment(stream, index), fmt, activity=activity
    )


class _PinToZero(PlacementPolicy):
    """Test policy: everything lands on shard 0 (maximally skewed)."""

    name = "pin0"

    def choose(self, array, stream, fmt_text, index, nbytes, activity):
        return 0


# ---------------------------------------------------------------------------
# The array itself
# ---------------------------------------------------------------------------


class TestShardedDiskArray:
    def test_rejects_zero_shards(self):
        with pytest.raises(StorageError):
            ShardedDiskArray(0)

    def test_unknown_placement_rejected(self):
        with pytest.raises(StorageError):
            ShardedDiskArray(2, placement="no-such-policy")
        assert placement_named("hash").name == "hash"
        assert placement_named(HashPlacement()).name == "hash"

    def test_all_shards_share_one_clock(self):
        array = ShardedDiskArray(max(2, N_SHARDS))
        array.write_at(0, 1e6)
        array.write_at(array.n_shards - 1, 1e6)
        assert array.clock.spent("disk") == (array.busy_write_seconds[0]
                                             + array.busy_write_seconds[-1])
        assert array.busy_write_seconds[0] > 0
        assert array.busy_write_seconds[array.n_shards - 1] > 0

    def test_one_shard_read_bit_identical_to_disk_model(self, tmp_path):
        """A one-shard store costs raw reads and charges ingest writes
        with exactly a bare DiskModel's arithmetic, bit for bit."""
        reference = DiskModel()
        clock = SimClock()
        array = ShardedDiskArray(1)
        kv = KVStore(str(tmp_path / "segments.log"))
        store = SegmentStore(kv, array)
        encoded = [_encode(FMT_B, i) for i in range(3)]
        for segment in encoded:
            store.put(segment)
            clock.charge(segment.size_bytes / reference.write_bandwidth
                         + reference.request_overhead, "disk")
        assert array.clock.now == clock.now
        assert array.clock.by_category == clock.by_category

        consumer = Fidelity.parse("best-200p-1/6-100%")
        reader = SegmentReader(store, FMT_B, consumer)
        stride = DEFAULT_CODEC.consumer_stride(FMT_B.fidelity,
                                               consumer.sampling)
        frame_bytes = DEFAULT_CODEC.raw_frame_bytes(FMT_B.fidelity)
        bandwidth = reference.read_bandwidth
        overhead = reference.request_overhead
        for segment, clip in zip(encoded,
                                 reader.assess_many("cam", [0, 1, 2])):
            n_stored = max(1, segment.n_frames)
            consumed = len(range(0, n_stored, stride))
            assert clip.retrieval_seconds == min(
                n_stored * frame_bytes / bandwidth + overhead,
                consumed * frame_bytes / bandwidth + consumed * overhead,
            )
        kv.close()

    def test_migrate_charges_both_sides(self):
        array = ShardedDiskArray(2)
        seconds = array.migrate(0, 1, 8e6)
        expected = (8e6 / array.disks[0].read_bandwidth
                    + array.disks[0].request_overhead
                    + 8e6 / array.disks[1].write_bandwidth
                    + array.disks[1].request_overhead)
        assert seconds == pytest.approx(expected)
        assert array.clock.spent("migrate") == pytest.approx(expected)
        assert array.busy_migrate_seconds[0] > 0
        assert array.busy_migrate_seconds[1] > 0
        assert array.migrated_bytes == 8e6

    def test_migrate_reads_a_degraded_source_as_served(self):
        """A migration's source read costs what a served read of the same
        bytes costs, degrade factor included; the write is not slowed."""
        array = ShardedDiskArray(2)
        array.degrade_shard(0, 8.0)
        seconds = array.migrate(0, 1, 8e6)
        bandwidth, overhead = array.read_params_at(0)
        assert bandwidth == array.disks[0].read_bandwidth / 8.0
        read = 8e6 / bandwidth + overhead
        write = (8e6 / array.disks[1].write_bandwidth
                 + array.disks[1].request_overhead)
        assert array.busy_migrate_seconds == [read, write]
        assert seconds == read + write

    def test_adopt_folds_out_of_range_shards(self):
        array = ShardedDiskArray(2)
        shard = array.adopt("cam", "fmt", 0, shard=5, nbytes=100.0)
        assert shard == 5 % 2
        assert array.folded_placements == 1

    def test_adopt_counts_a_folded_replicated_key_once(self):
        """``folded_placements`` counts adopted keys, not their copies."""
        array = ShardedDiskArray(4, replication=2)
        array.adopt("cam", "fmt", 0, shard=5, nbytes=100.0, replicas=(5, 6))
        assert array.folded_placements == 1
        assert array.replicas("cam", "fmt", 0) == (1, 2)
        assert array.shard_bytes == [0.0, 100.0, 100.0, 0.0]

    def test_place_is_sticky_and_tracks_bytes(self):
        array = ShardedDiskArray(N_SHARDS, placement="round-robin")
        first = array.place("cam", "f", 0, 100.0)
        again = array.place("cam", "f", 0, 250.0)  # overwrite, bigger
        assert first == again
        assert array.shard_bytes[first] == 250.0
        assert array.locate("cam", "f", 0) == first
        array.forget("cam", "f", 0)
        assert array.locate("cam", "f", 0) is None
        assert array.shard_bytes[first] == 0.0


class TestPlacementPolicies:
    def test_round_robin_rotates(self):
        array = ShardedDiskArray(3, placement="round-robin")
        shards = [array.place("cam", "f", i, 10.0) for i in range(7)]
        assert shards == [0, 1, 2, 0, 1, 2, 0]

    def test_hash_is_order_independent_and_colocates_formats(self):
        a = ShardedDiskArray(5, placement="hash")
        b = ShardedDiskArray(5, placement="hash")
        keys = [("cam", "f1", i) for i in range(10)] + [
            ("cam", "f2", i) for i in range(10)
        ]
        for k in keys:
            a.place(*k, nbytes=10.0)
        for k in reversed(keys):
            b.place(*k, nbytes=10.0)
        assert a.assignments() == b.assignments()
        for i in range(10):
            assert a.locate("cam", "f1", i) == a.locate("cam", "f2", i)

    def test_locality_colocates_formats_and_spreads_hot(self):
        array = ShardedDiskArray(4, placement=LocalityAwarePlacement())
        # Hot segments go least-loaded: four hot segments spread out.
        hot = [array.place("cam", "f1", i, 100.0, activity=0.9)
               for i in range(4)]
        assert sorted(hot) == [0, 1, 2, 3]
        # Later formats of the same segments follow the first placement.
        for i in range(4):
            assert array.place("cam", "f2", i, 50.0, activity=0.9) == hot[i]

    def test_locality_groups_cold_segments_by_stream(self):
        array = ShardedDiskArray(4, placement=LocalityAwarePlacement())
        cold_a = {array.place("quiet", "f", i, 10.0, activity=0.1)
                  for i in range(6)}
        cold_b = {array.place("still", "f", i, 10.0, activity=0.1)
                  for i in range(6)}
        assert len(cold_a) == 1 and len(cold_b) == 1


# ---------------------------------------------------------------------------
# Store integration
# ---------------------------------------------------------------------------


@pytest.fixture()
def sharded_store(tmp_path):
    kv = KVStore(str(tmp_path / "segments.log"))
    array = ShardedDiskArray(max(2, N_SHARDS), placement="round-robin")
    yield SegmentStore(kv, array)
    kv.close()


class TestStoreIntegration:
    def test_put_records_shard_and_charges_it(self, sharded_store):
        store = sharded_store
        store.put(_encode(FMT_A, 0))
        store.put(_encode(FMT_A, 1))
        assert store.meta("cam", FMT_A, 0).shard == 0
        assert store.meta("cam", FMT_A, 1).shard == 1
        assert store.array.busy_write_seconds[0] > 0
        assert store.array.busy_write_seconds[1] > 0

    def test_delete_forgets_placement(self, sharded_store):
        store = sharded_store
        store.put(_encode(FMT_A, 0))
        assert store.shard_of("cam", FMT_A, 0) == 0
        store.delete("cam", FMT_A, 0)
        assert store.array.locate("cam", _fmt_key(FMT_A), 0) is None
        assert store.array.shard_bytes == [0.0] * store.n_shards

    def test_placement_survives_reopen(self, tmp_path):
        path = str(tmp_path / "segments.log")
        kv = KVStore(path)
        store = SegmentStore(kv, ShardedDiskArray(3, placement="round-robin"))
        for i in range(5):
            store.put(_encode(FMT_A, i))
        placed = {i: store.meta("cam", FMT_A, i).shard for i in range(5)}
        kv.close()

        kv = KVStore(path)
        store2 = SegmentStore(kv, ShardedDiskArray(3, placement="round-robin"))
        for i in range(5):
            assert store2.meta("cam", FMT_A, i).shard == placed[i]
            assert store2.shard_of("cam", FMT_A, i) == placed[i]
        # Round-robin continues from the restored count.
        store2.put(_encode(FMT_A, 99))
        assert store2.meta("cam", FMT_A, 99).shard == 5 % 3
        kv.close()

    def test_reopen_with_fewer_shards_folds_and_stays_readable(self, tmp_path):
        """A store written on a wide array reopened on a narrow one folds
        placements (shard % n) — and every lookup works against the
        *folded* shard, never the persisted one."""
        path = str(tmp_path / "segments.log")
        kv = KVStore(path)
        wide = SegmentStore(kv, ShardedDiskArray(8, placement="round-robin"))
        for i in range(8):
            wide.put(_encode(FMT_A, i))
        assert {wide.meta("cam", FMT_A, i).shard for i in range(8)} == set(range(8))
        kv.close()

        kv = KVStore(path)
        narrow = SegmentStore(kv, ShardedDiskArray(2))
        assert narrow.array.folded_placements > 0
        for i in range(8):
            meta = narrow.meta("cam", FMT_A, i)
            assert meta.shard == i % 2
            assert narrow.shard_of("cam", FMT_A, i) == i % 2
        kv.close()

    def test_disk_params_follow_heterogeneous_shards(self, tmp_path):
        kv = KVStore(str(tmp_path / "segments.log"))
        clock = SimClock()
        disks = [DiskModel(),
                 DiskModel(read_bandwidth=2e8, request_overhead=5e-4)]
        array = ShardedDiskArray(placement="round-robin", disks=disks,
                                 clock=clock)
        store = SegmentStore(kv, array)
        store.put(_encode(FMT_B, 0))  # shard 0
        store.put(_encode(FMT_B, 1))  # shard 1

        def params(index):
            return array.read_params_at(store.meta("cam", FMT_B, index).shard)

        assert params(0) == (disks[0].read_bandwidth,
                             disks[0].request_overhead)
        assert params(1) == (2e8, 5e-4)
        kv.close()


class TestRebalance:
    def test_rebalance_restores_balance_and_loses_nothing(self, tmp_path):
        kv = KVStore(str(tmp_path / "segments.log"))
        array = ShardedDiskArray(max(2, N_SHARDS), placement=_PinToZero())
        store = SegmentStore(kv, array)
        for i in range(8):
            store.put(_encode(FMT_A, i))
            store.put(_encode(FMT_B, i))
        metas_before = {
            (fmt.label, i): store.meta("cam", fmt, i).size_bytes
            for fmt in (FMT_A, FMT_B) for i in range(8)
        }
        footprint_before = store.footprint("cam")
        assert array.shard_bytes[0] == footprint_before  # fully skewed
        migrate_before = array.clock.spent("migrate")

        report = store.rebalance()

        assert report.moves > 0
        assert report.imbalance_after < report.imbalance_before
        assert array.clock.spent("migrate") > migrate_before
        assert report.seconds == pytest.approx(
            array.clock.spent("migrate") - migrate_before
        )
        # Conservation: every segment readable, sizes and totals unchanged.
        for fmt in (FMT_A, FMT_B):
            for i in range(8):
                meta = store.meta("cam", fmt, i)
                assert meta.size_bytes == metas_before[(fmt.label, i)]
                assert meta.shard == store.shard_of("cam", fmt, i)
        assert store.footprint("cam") == footprint_before
        assert sum(array.shard_bytes) == pytest.approx(footprint_before)

        # The new layout survives reopen.
        layout = {(fmt.label, i): store.meta("cam", fmt, i).shard
                  for fmt in (FMT_A, FMT_B) for i in range(8)}
        kv.close()
        kv = KVStore(str(tmp_path / "segments.log"))
        store2 = SegmentStore(kv, ShardedDiskArray(array.n_shards))
        for (label, i), shard in layout.items():
            fmt = FMT_A if label == FMT_A.label else FMT_B
            assert store2.meta("cam", fmt, i).shard == shard
        kv.close()

    def test_rebalance_replicated_counts_applied_moves_and_never_worsens(
            self, tmp_path):
        """On a replicated store every copy counts toward its shard's
        load, every planned move is applied and counted once, and no
        primary lands on a shard that already holds one of its copies."""
        replication = 2
        path = str(tmp_path / "segments.log")
        kv = KVStore(path)
        array = ShardedDiskArray(4, placement=_PinToZero(),
                                 replication=replication)
        store = SegmentStore(kv, array)
        for i in range(8):
            store.put(_encode(FMT_A, i))
            store.put(_encode(FMT_B, i))
        before = array.replica_assignments()

        report = store.rebalance()

        after = array.replica_assignments()
        assert set(after) == set(before)  # no key lost or duplicated
        changed = sum(1 for key in before if after[key][0] != before[key][0])
        assert report.moves == changed > 0
        assert report.imbalance_after <= report.imbalance_before
        for copies in after.values():
            assert len(set(copies)) == len(copies) == replication
        assert sum(array.shard_bytes) == pytest.approx(
            replication * store.total_bytes()
        )
        # The moved primaries and their replica sets survive reopen.
        kv.close()
        kv = KVStore(path)
        reopened = SegmentStore(kv, ShardedDiskArray(4,
                                                     replication=replication))
        assert reopened.array.replica_assignments() == after
        assert reopened.array.shard_bytes == array.shard_bytes
        kv.close()

    def test_rebalance_after_a_shard_failure(self, tmp_path):
        """A failed shard is emptied, so it looks like the best destination;
        the plan must run over the surviving shards instead."""
        lib = default_library(names=QUERY_LIB_NAMES)
        with VStore(workdir=str(tmp_path / "store"), library=lib, shards=4,
                    replication=2) as store:
            store.configure()
            store.ingest("jackson", n_segments=6)
            store.inject_failures("fail@0:1")
            array = store.disk_array
            imbalance = array.byte_imbalance

            report = store.rebalance()

            assert all(1 not in copies
                       for copies in array.replica_assignments().values())
            assert array.shard_bytes[1] == 0
            assert report.imbalance_before == imbalance
            assert array.byte_imbalance <= imbalance

    def test_rebalance_noop_on_single_shard(self, tmp_path):
        kv = KVStore(str(tmp_path / "segments.log"))
        store = SegmentStore(kv, ShardedDiskArray(1))
        store.put(_encode(FMT_A, 0))
        report = store.rebalance()
        assert report.moves == 0
        assert report.seconds == 0.0
        kv.close()


# ---------------------------------------------------------------------------
# End to end through the facade and the executor
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet_stores(tmp_path_factory):
    """The same fleet ingested into a 1-shard and an N-shard store."""
    lib = default_library(names=QUERY_LIB_NAMES)
    stores = {}
    for shards in (1, max(2, N_SHARDS)):
        store = VStore(
            workdir=str(tmp_path_factory.mktemp(f"shards{shards}")),
            library=lib, shards=shards,
        )
        store.configure()
        store.ingest("jackson", n_segments=4)
        store.ingest("dashcam", n_segments=4)
        stores[shards] = store
    yield stores
    for store in stores.values():
        store.close()


class TestEndToEnd:
    def test_single_shard_parity_with_pre_sharding_store(self, fleet_stores):
        """shards=1 must charge bit-identical time to the sequential
        reference loop in ``tests/oracles``."""
        store = fleet_stores[1]
        engine = store.engine("jackson")
        new = store.execute("A", "jackson", 0.9, 0.0, 32.0)
        ref = _execute_sequential(engine, QUERY_A, 0.9, store.segments,
                                  0.0, 32.0)
        assert new.compute_seconds == ref.compute_seconds  # bit-identical
        assert new.positives_per_stage == ref.positives_per_stage
        assert new.segments_per_stage == ref.segments_per_stage

    def test_shard_count_never_changes_results(self, fleet_stores):
        """Placement changes *where* bytes live, not what queries return —
        and with uniform shards, not even the charged time."""
        runs = {}
        for shards, store in fleet_stores.items():
            runs[shards] = store.execute("B", "dashcam", 0.9, 0.0, 32.0)
        one, many = runs[1], runs[max(runs)]
        assert one.positives_per_stage == many.positives_per_stage
        assert one.segments_per_stage == many.segments_per_stage
        assert one.compute_seconds == many.compute_seconds

    def test_executor_builds_per_shard_pools(self, fleet_stores):
        store = fleet_stores[max(fleet_stores)]
        ex = store.executor(disk_pool=DiskBandwidthPool(2))
        names = {n for n in ex._pools if n.startswith("disk")}
        assert names == {f"disk:{i}" for i in range(store.n_shards)}
        assert all(ex._pools[n].capacity == 2 for n in names)

    def test_sharded_retrievals_overlap(self, tmp_path):
        """The same contended fleet finishes strictly faster on more
        shards (round-robin placement guarantees the spread)."""
        def makespan(shards):
            lib = default_library(names=QUERY_LIB_NAMES)
            with VStore(workdir=str(tmp_path / f"s{shards}"), library=lib,
                        shards=shards, placement="round-robin") as store:
                store.configure()
                store.ingest("jackson", n_segments=4)
                ex = store.executor(policy="fifo",
                                    disk_pool=DiskBandwidthPool(1))
                for _ in range(8):
                    ex.admit(QUERY_A, "jackson", 0.9, 0.0, 32.0)
                ex.run()
                return ex.stats().makespan

        assert makespan(max(2, N_SHARDS)) < makespan(1)

    def test_per_shard_busy_seconds_conserved(self, fleet_stores):
        """Sharding re-routes disk work; it must not create or lose any."""
        def disk_busy(store):
            ex = store.executor(disk_pool=DiskBandwidthPool(1))
            for _ in range(4):
                ex.admit(QUERY_A, "jackson", 0.9, 0.0, 32.0)
            ex.run()
            return sum(busy for name, busy in ex.stats().busy_seconds.items()
                       if name.startswith("disk"))

        assert disk_busy(fleet_stores[max(fleet_stores)]) == pytest.approx(
            disk_busy(fleet_stores[1])
        )

    def test_sharding_report_and_table(self, fleet_stores):
        from repro.analysis import format_sharding_table, sharding_report

        store = fleet_stores[max(fleet_stores)]
        ex = store.executor(disk_pool=DiskBandwidthPool(1))
        for _ in range(4):
            ex.admit(QUERY_A, "jackson", 0.9, 0.0, 32.0)
        ex.run()
        report = sharding_report(store.segments, ex.stats())
        assert report.n_shards == store.n_shards
        assert report.total_bytes == pytest.approx(
            store.segments.total_bytes()
        )
        assert report.imbalance_ratio >= 1.0
        assert report.retrieval_speedup is not None
        assert report.retrieval_speedup >= 1.0
        text = format_sharding_table(report)
        assert "placement=hash" in text
        assert "parallel retrieval speedup" in text
        # Reads are reported once, as the executor's per-shard pool time.
        header = text.splitlines()[1].split()
        assert "read" not in header and "busy" in header
        assert all(r.pool_busy_seconds is not None for r in report.rows)
        # The facade accessor returns the same shape.
        assert store.sharding_report().n_shards == store.n_shards

    def test_facade_rebalance(self, tmp_path):
        lib = default_library(names=QUERY_LIB_NAMES)
        with VStore(workdir=str(tmp_path / "store"), library=lib,
                    shards=3, placement=_PinToZero()) as store:
            store.configure()
            store.ingest("jackson", n_segments=3)
            report = store.rebalance()
            assert report.moves > 0
            assert report.imbalance_after < report.imbalance_before
            # Queries still work on the rebalanced layout.
            result = store.execute("A", dataset="jackson", accuracy=0.9,
                                   t0=0.0, t1=16.0)
            assert result.compute_seconds > 0


class TestCLI:
    def test_cli_shards_flags(self, tmp_path, capsys):
        from repro.cli import main

        workdir = str(tmp_path / "cli-store")
        assert main(["ingest", "--workdir", workdir, "--segments", "2",
                     "--shards", "2", "--placement", "round-robin"]) == 0
        out = capsys.readouterr().out
        assert "Sharded storage: 2 shards" in out
        assert "placement=round-robin" in out

    def test_cli_rejects_bad_shards(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["ingest", "--workdir", str(tmp_path / "x"),
                  "--shards", "0"])
