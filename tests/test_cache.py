"""Unit tests for the tiered retrieval cache (repro.cache)."""

import pytest

from repro.cache import (
    ByteBudgetCache,
    CacheConfig,
    CacheError,
    CachePlane,
    CostAwarePolicy,
    LFUPolicy,
    LRUPolicy,
    ResultCache,
    TierConfig,
    TierManager,
    policy_named,
)
from repro.cache.plane import RAM_BANDWIDTH
from repro.clock import SimClock
from repro.storage.sharding import ShardedDiskArray
from repro.units import MB


# ---------------------------------------------------------------------------
# ByteBudgetCache
# ---------------------------------------------------------------------------


def _key(i):
    return ("s", i)


class TestByteBudgetCache:
    def test_hit_and_miss_counters(self):
        cache = ByteBudgetCache(100.0, LRUPolicy())
        assert cache.get(_key(1)) is None
        assert cache.put(_key(1), 10.0, 2.0)
        entry = cache.get(_key(1))
        assert entry is not None and entry.hits == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.bytes_saved == 10.0
        assert cache.seconds_saved == 2.0

    def test_occupancy_never_exceeds_capacity(self):
        cache = ByteBudgetCache(25.0, LRUPolicy())
        for i in range(10):
            cache.put(_key(i), 10.0, 1.0)
            assert cache.occupancy_bytes <= cache.capacity_bytes
        assert len(cache) == 2

    def test_lru_evicts_least_recent(self):
        cache = ByteBudgetCache(30.0, LRUPolicy())
        for i in range(3):
            cache.put(_key(i), 10.0, 1.0)
        cache.get(_key(0))  # 0 is now the most recent
        cache.put(_key(3), 10.0, 1.0)
        assert _key(1) not in cache  # 1 was the least recent
        assert _key(0) in cache and _key(2) in cache and _key(3) in cache
        assert cache.evictions == 1

    def test_lfu_evicts_least_frequent(self):
        cache = ByteBudgetCache(20.0, LFUPolicy())
        cache.put(_key(0), 10.0, 1.0)
        cache.put(_key(1), 10.0, 1.0)
        for _ in range(3):
            cache.get(_key(0))
        cache.put(_key(2), 10.0, 1.0)
        assert _key(0) in cache and _key(1) not in cache

    def test_cost_aware_keeps_high_benefit_entries(self):
        cache = ByteBudgetCache(20.0, CostAwarePolicy())
        cache.put(_key(0), 10.0, 5.0)  # expensive to rebuild
        cache.put(_key(1), 10.0, 0.001)  # nearly free to rebuild
        cache.put(_key(2), 10.0, 1.0)
        assert _key(0) in cache and _key(1) not in cache

    def test_oversized_entry_rejected(self):
        cache = ByteBudgetCache(10.0, LRUPolicy())
        assert not cache.put(_key(0), 11.0, 1.0)
        assert cache.rejections == 1
        assert len(cache) == 0

    def test_pinned_entries_never_evicted(self):
        cache = ByteBudgetCache(20.0, LRUPolicy())
        cache.put(_key(0), 10.0, 1.0, pins=1)
        cache.put(_key(1), 10.0, 1.0)
        # Inserting a third entry can only evict the unpinned one.
        assert cache.put(_key(2), 10.0, 1.0)
        assert _key(0) in cache and _key(1) not in cache

    def test_infeasible_insert_does_not_destroy_cache_contents(self):
        # Mostly-pinned cache: an insert that could never fit must be
        # rejected up front, not after pointlessly evicting the hot
        # unpinned entries.
        cache = ByteBudgetCache(40.0, LRUPolicy())
        cache.put(_key(0), 30.0, 1.0, pins=1)
        cache.put(_key(1), 5.0, 1.0)  # hot, unpinned
        assert not cache.put(_key(2), 20.0, 1.0)  # 30 pinned + 20 > 40
        assert _key(1) in cache  # survived the infeasible insert
        assert cache.evictions == 0 and cache.rejections == 1

    def test_insert_rejected_when_only_pinned_entries_remain(self):
        cache = ByteBudgetCache(20.0, LRUPolicy())
        cache.put(_key(0), 10.0, 1.0, pins=1)
        cache.put(_key(1), 10.0, 1.0, pins=1)
        assert not cache.put(_key(2), 10.0, 1.0)
        assert cache.occupancy_bytes <= cache.capacity_bytes
        assert _key(0) in cache and _key(1) in cache

    def test_unpin_makes_entry_evictable(self):
        cache = ByteBudgetCache(20.0, LRUPolicy())
        cache.put(_key(0), 10.0, 1.0, pins=1)
        cache.put(_key(1), 10.0, 1.0)
        cache.unpin(_key(0))
        cache.get(_key(1))  # 0 becomes least recent AND unpinned
        assert cache.put(_key(2), 10.0, 1.0)
        assert _key(0) not in cache

    def test_invalidate_by_segment_and_stream(self):
        cache = ByteBudgetCache(1000.0, LRUPolicy())
        cache.put(("a", 0, "x"), 10.0, 1.0)
        cache.put(("a", 1, "x"), 10.0, 1.0)
        cache.put(("b", 0, "x"), 10.0, 1.0)
        assert cache.invalidate("a", 0) == 1
        assert ("a", 0, "x") not in cache and ("a", 1, "x") in cache
        assert cache.invalidate("a") == 1
        assert len(cache) == 1 and cache.invalidations == 2

    def test_invalidation_overrides_pinning(self):
        cache = ByteBudgetCache(100.0, LRUPolicy())
        cache.put(("a", 0), 10.0, 1.0, pins=3)
        assert cache.invalidate("a", 0) == 1
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(CacheError):
            ByteBudgetCache(-1.0, LRUPolicy())

    def test_unknown_policy_rejected(self):
        with pytest.raises(CacheError):
            policy_named("mru")


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_commit_makes_a_result_resident(self):
        import numpy as np

        cache = ResultCache(1.0 * MB, LRUPolicy())
        key = ResultCache.key("s", 0, "jackson", "NN", "best-60p-1-100%", "1")
        output = np.ones(8, dtype=bool)
        # computed but not committed: full simulated cost still charged
        assert not cache.is_committed(key)
        cache.commit(key, 1.0, nbytes=output.nbytes)
        assert cache.is_committed(key)
        assert cache.committed.occupancy_bytes == output.nbytes
        assert cache.committed.misses == 1  # the computation that committed
        cache.record_charged_hit(key, 1.0)
        assert cache.committed.hits == 1

    def test_is_committed_is_side_effect_free(self):
        cache = ResultCache(1.0 * MB, LRUPolicy())
        key = ResultCache.key("s", 0, "jackson", "NN", "f", "1")
        for _ in range(5):
            assert not cache.is_committed(key)
        assert cache.committed.hits == 0 and cache.committed.misses == 0

    def test_key_distinguishes_datasets_on_one_stream(self):
        # A stream alias must never serve another dataset's outputs.
        a = ResultCache.key("cam01", 0, "jackson", "NN", "f", "1")
        b = ResultCache.key("cam01", 0, "coral", "NN", "f", "1")
        assert a != b

    def test_invalidate_drops_committed_results(self):
        import numpy as np

        cache = ResultCache(1.0 * MB, LRUPolicy())
        key = ResultCache.key("s", 3, "jackson", "NN", "f", "1")
        cache.commit(key, 0.5, nbytes=np.zeros(4).nbytes)
        cache.invalidate("s", 3)
        assert not cache.is_committed(key)


# ---------------------------------------------------------------------------
# TierManager
# ---------------------------------------------------------------------------


class TestTierManager:
    def _manager(self, **kwargs):
        return TierManager(TierConfig(**kwargs))

    def test_promotion_requires_heat(self):
        tiers = self._manager(promote_accesses=3)
        clock = SimClock()
        array = ShardedDiskArray(1, clock=clock)
        tiers.record_access("s", "fmt", 0, 1.0 * MB)
        tiers.sweep(clock, array)
        assert not tiers.is_fast("s", 0)
        for _ in range(3):
            tiers.record_access("s", "fmt", 0, 1.0 * MB)
        tiers.sweep(clock, array)
        assert tiers.is_fast("s", 0)
        assert tiers.promotions == 1

    def test_migration_charges_the_clock(self):
        tiers = self._manager(promote_accesses=1)
        clock = SimClock()
        array = ShardedDiskArray(1, clock=clock)
        tiers.record_access("s", "fmt", 0, 8.0 * MB)
        before = clock.now
        tiers.sweep(clock, array)
        assert clock.now > before
        assert clock.spent("migrate") == pytest.approx(clock.now - before)
        assert tiers.migrated_bytes == 8.0 * MB

    def test_promotion_reads_a_degraded_shard_as_served(self):
        """A promotion's slow-side read costs what a served read of the
        same bytes costs, degrade factor included."""
        tiers = self._manager(promote_accesses=1)
        clock = SimClock()
        array = ShardedDiskArray(2, clock=clock)
        array.adopt("s", "fmt", 0, shard=0, nbytes=8e6)
        array.degrade_shard(0, 8.0)
        tiers.record_access("s", "fmt", 0, 8e6)
        tiers.sweep(clock, array)
        assert tiers.is_fast("s", 0)
        bandwidth, overhead = array.read_params_at(0)
        assert bandwidth == array.shard(0).read_bandwidth / 8.0
        assert array.busy_migrate_seconds == [8e6 / bandwidth + overhead,
                                              0.0]

    def test_promotion_reads_the_copy_a_served_read_goes_to(self):
        """Raw key on shards (3, 0) with the primary degraded 8x: a served
        read goes to shard 0, and so do the promotion's cost and books."""
        tiers = self._manager(promote_accesses=1)
        clock = SimClock()
        array = ShardedDiskArray(4, clock=clock, replication=2,
                                 placement="hash")
        array.adopt("s", "raw", 0, shard=3, nbytes=8e6, replicas=(0,))
        array.degrade_shard(3, 8.0)
        assert array.effective_read_shard("s", "raw", 0) == 0
        tiers.record_access("s", "raw", 0, 8e6)
        tiers.sweep(clock, array)
        assert tiers.is_fast("s", 0)
        served = array.read_seconds(0, 8e6)
        assert array.busy_migrate_seconds == [served, 0.0, 0.0, 0.0]
        fast = tiers.config.fast
        assert clock.spent("migrate") == served + (
            8e6 / fast.write_bandwidth + fast.request_overhead)

    def test_migrations_book_the_raw_key_not_the_first_format(self):
        """Round-robin puts segment 0's encoded key on shard 0 and its raw
        key on shard 1: promotion and demotion both run on shard 1."""
        tiers = self._manager(promote_accesses=1, demote_accesses=1)
        clock = SimClock()
        array = ShardedDiskArray(2, clock=clock, placement="round-robin")
        array.place("s", "encoded", 0, 1e6)
        array.place("s", "raw", 0, 8e6)
        assert array.replicas("s", "raw", 0) == (1,)
        tiers.record_access("s", "raw", 0, 8e6)
        tiers.sweep(clock, array)
        assert tiers.is_fast("s", 0)
        promoted = array.busy_migrate_seconds[1]
        assert array.busy_migrate_seconds == [0.0, array.read_seconds(1, 8e6)]
        tiers.sweep(clock, array)
        assert tiers.demotions == 1
        assert array.busy_migrate_seconds == [
            0.0, promoted + array.write_seconds(1, 8e6)]

    def test_a_raw_key_with_no_readable_copy_stays_put(self):
        """Failures destroyed every copy of one raw key: its segment is
        not promoted (nothing to read), and a promoted one is not demoted
        (nowhere to write back); neither is charged."""
        tiers = self._manager(promote_accesses=1, demote_accesses=1)
        clock = SimClock()
        array = ShardedDiskArray(2, clock=clock)
        array.adopt("s", "raw", 0, shard=0, nbytes=1e6)
        array.adopt("s", "raw", 1, shard=1, nbytes=1e6)
        tiers.record_access("s", "raw", 0, 1e6)
        tiers.sweep(clock, array)
        assert tiers.is_fast("s", 0)
        array.fail_shard(0)
        tiers.record_access("s", "raw", 1, 1e6)
        array.fail_shard(1)
        before = clock.now
        assert tiers.sweep(clock, array) == (0, 0)
        assert tiers.is_fast("s", 0) and not tiers.is_fast("s", 1)
        assert clock.now == before

    def test_demotion_charges_fast_leg_plus_slow_leg(self):
        """A demotion's clock charge is the fast tier's read leg plus the
        slow leg the array books as the shard's migrate time, one sum."""
        tiers = self._manager(promote_accesses=1, demote_accesses=1)
        nbytes = 103_413_500.0
        tiers.record_access("s", "fmt", 0, nbytes)
        tiers.sweep(SimClock(), ShardedDiskArray(1))
        assert tiers.is_fast("s", 0)
        # A fresh clock and array hold the demotion's charges alone.
        clock = SimClock()
        array = ShardedDiskArray(1, clock=clock)
        tiers.sweep(clock, array)
        assert tiers.demotions == 1
        fast, disk = tiers.config.fast, array.shard(0)
        slow_leg = array.busy_migrate_seconds[0]
        assert slow_leg == nbytes / disk.write_bandwidth + disk.request_overhead
        fast_leg = nbytes / fast.read_bandwidth + fast.request_overhead
        assert clock.spent("migrate") == fast_leg + slow_leg

    def test_cold_promoted_segments_are_demoted(self):
        tiers = self._manager(promote_accesses=1, demote_accesses=1)
        clock = SimClock()
        array = ShardedDiskArray(1, clock=clock)
        tiers.record_access("s", "fmt", 0, 1.0 * MB)
        tiers.sweep(clock, array)
        assert tiers.is_fast("s", 0)
        # No further accesses: heat decays to zero, next sweeps demote.
        tiers.sweep(clock, array)
        tiers.sweep(clock, array)
        assert not tiers.is_fast("s", 0)
        assert tiers.demotions == 1

    def test_capacity_bounds_promotions(self):
        tiers = self._manager(promote_accesses=1, capacity_bytes=1.5 * MB)
        clock = SimClock()
        array = ShardedDiskArray(1, clock=clock)
        tiers.record_access("s", "fmt", 0, 1.0 * MB)
        tiers.record_access("s", "fmt", 1, 1.0 * MB)
        tiers.sweep(clock, array)
        assert tiers.promoted_segments == 1
        assert tiers.fast_bytes <= 1.5 * MB

    def test_fast_tier_reads_are_faster(self):
        tiers = self._manager(promote_accesses=1)
        clock = SimClock()
        array = ShardedDiskArray(1, clock=clock)
        disk = array.shard(0)
        slow_bw, slow_ovh = tiers.read_params("s", 0, disk.read_bandwidth,
                                              disk.request_overhead)
        assert (slow_bw, slow_ovh) == (disk.read_bandwidth,
                                       disk.request_overhead)
        tiers.record_access("s", "fmt", 0, 1.0 * MB)
        tiers.sweep(clock, array)
        fast_bw, fast_ovh = tiers.read_params("s", 0, disk.read_bandwidth,
                                              disk.request_overhead)
        assert fast_bw > slow_bw and fast_ovh < slow_ovh

    def test_invalidation_frees_fast_tier_silently(self):
        tiers = self._manager(promote_accesses=1)
        clock = SimClock()
        array = ShardedDiskArray(1, clock=clock)
        tiers.record_access("s", "fmt", 0, 1.0 * MB)
        tiers.sweep(clock, array)
        migrated_before = tiers.migration_seconds
        assert tiers.invalidate("s", 0) == 1
        assert not tiers.is_fast("s", 0)
        assert tiers.fast_bytes == 0.0
        assert tiers.migration_seconds == migrated_before  # no charge


# ---------------------------------------------------------------------------
# CachePlane
# ---------------------------------------------------------------------------


class TestCachePlane:
    def test_hit_seconds_scale_with_ram_bandwidth(self):
        plane = CachePlane(CacheConfig())
        assert plane.hit_seconds(RAM_BANDWIDTH) == pytest.approx(1.0)

    def test_stats_snapshot_shape(self):
        plane = CachePlane(CacheConfig(tiering=TierConfig()))
        stats = plane.stats()
        assert stats.policy == "lru"
        assert stats.frames.hit_rate == 0.0
        assert stats.tiering is not None
        assert stats.seconds_saved == 0.0

    def test_invalidate_spans_all_tiers(self):
        import numpy as np

        plane = CachePlane(CacheConfig(tiering=TierConfig()))
        fkey = plane.frame_key("s", 0, "fmt", "cf")
        rkey = plane.result_key("s", 0, "jackson", "NN", "f", "1")
        plane.frames.put(fkey, 10.0, 1.0)
        plane.results.commit(rkey, 0.1, nbytes=np.zeros(2).nbytes)
        plane.tiers.record_access("s", "fmt", 0, 10.0)
        assert plane.invalidate("s", 0) == 2
        assert fkey not in plane.frames
        assert plane.tiers.accesses("s", 0) == 0
