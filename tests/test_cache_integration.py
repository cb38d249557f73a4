"""The tiered retrieval cache end to end: parity, single-flight dedup,
warm-cache speedups, and invalidation on erosion and re-ingest."""

import pytest

from repro.cache import CacheConfig, TierConfig
from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.operators.library import default_library
from repro.query.cascade import QUERY_A, QUERY_B
from repro.query.scheduler import OperatorContextPool
from repro.storage.disk import DiskBandwidthPool
from repro.units import DAY, KB

LIB_NAMES = ("Diff", "S-NN", "NN")
SPAN = 32.0
N_SEGMENTS = 4


def _build(workdir, cache_config=None, n_segments=N_SEGMENTS, **kwargs):
    store = VStore(workdir=str(workdir), cache_config=cache_config,
                   library=default_library(names=LIB_NAMES), **kwargs)
    store.configure()
    store.ingest("jackson", n_segments=n_segments)
    return store


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Uncached store plus its single-query and 8-query outcomes."""
    store = _build(tmp_path_factory.mktemp("ref"))
    single = store.execute("A", dataset="jackson", accuracy=0.8,
                           t0=0.0, t1=SPAN)
    many = store.execute_many(
        [dict(query="A", dataset="jackson", accuracy=0.8, t0=0.0, t1=SPAN)
         for _ in range(8)],
        disk_pool=DiskBandwidthPool(1), decoder_pool=DecoderPool(2),
        operator_pool=OperatorContextPool(4),
    )
    yield store, single, many
    store.close()


def _pools():
    return dict(disk_pool=DiskBandwidthPool(1), decoder_pool=DecoderPool(2),
                operator_pool=OperatorContextPool(4))


def _assert_same_outputs(a, b):
    assert a.result.positives_per_stage == b.result.positives_per_stage
    assert a.result.segments_per_stage == b.result.segments_per_stage


class TestParity:
    """With any cache configuration, query outputs are bit-identical."""

    def test_cold_cache_single_query_is_bit_identical(self, tmp_path,
                                                      reference):
        _, single, _ = reference
        store = _build(tmp_path / "w", CacheConfig())
        result = store.execute("A", dataset="jackson", accuracy=0.8,
                               t0=0.0, t1=SPAN)
        assert result.positives_per_stage == single.positives_per_stage
        assert result.segments_per_stage == single.segments_per_stage
        # No committed entries, and one query repeats no retrieval or
        # consume to deduplicate: even the timing matches.
        assert result.compute_seconds == single.compute_seconds

    @pytest.mark.parametrize("config", [
        CacheConfig(),
        CacheConfig(policy="lfu"),
        CacheConfig(policy="cost"),
        CacheConfig(frame_capacity_bytes=64.0 * KB,
                    result_capacity_bytes=1.0 * KB),  # heavy eviction
        CacheConfig(tiering=TierConfig(promote_accesses=1)),
    ], ids=["lru", "lfu", "cost", "tiny", "tiering"])
    def test_outputs_identical_under_16_concurrent_queries(
            self, tmp_path, reference, config):
        _, _, many = reference
        store = _build(tmp_path / "w", config)
        specs = [dict(query="A", dataset="jackson", accuracy=0.8,
                      t0=0.0, t1=SPAN) for _ in range(16)]
        # cold run, then a warm repeat — outputs must never change
        for _ in range(2):
            outcomes = store.execute_many(specs, **_pools())
            for got, want in zip(outcomes, many + many):
                _assert_same_outputs(got, want)

    def test_warm_cache_repeat_is_bit_identical_and_faster(self, tmp_path,
                                                           reference):
        _, single, _ = reference
        store = _build(tmp_path / "w", CacheConfig())
        cold = store.execute("A", dataset="jackson", accuracy=0.8,
                             t0=0.0, t1=SPAN)
        warm = store.execute("A", dataset="jackson", accuracy=0.8,
                             t0=0.0, t1=SPAN)
        for result in (cold, warm):
            assert result.positives_per_stage == single.positives_per_stage
        assert warm.compute_seconds < cold.compute_seconds
        stats = store.cache_stats()
        # Committed results make the warm stages free — and their
        # retrievals are skipped outright (the frames are never needed).
        assert stats.results.hits > 0
        assert stats.seconds_saved > 0

    def test_frame_tier_serves_when_results_do_not_fit(self, tmp_path,
                                                       reference):
        """With the result tier disabled, warm repeats fall back to the
        decoded-frame tier: retrievals are planned and served from RAM."""
        _, single, _ = reference
        store = _build(tmp_path / "w",
                       CacheConfig(result_capacity_bytes=0.0))
        cold = store.execute("A", dataset="jackson", accuracy=0.8,
                             t0=0.0, t1=SPAN)
        warm = store.execute("A", dataset="jackson", accuracy=0.8,
                             t0=0.0, t1=SPAN)
        for result in (cold, warm):
            assert result.positives_per_stage == single.positives_per_stage
        assert warm.compute_seconds < cold.compute_seconds
        stats = store.cache_stats()
        assert stats.frames.hits > 0
        assert stats.results.hits == 0  # nothing ever committed
        assert stats.frames.seconds_saved > 0


class TestSingleFlight:
    def test_concurrent_duplicates_deduplicate_in_flight(self, tmp_path,
                                                         reference):
        _, _, many = reference
        store = _build(tmp_path / "w", CacheConfig())
        specs = [dict(query="A", dataset="jackson", accuracy=0.8,
                      t0=0.0, t1=SPAN) for _ in range(8)]
        outcomes = store.execute_many(specs, **_pools())
        for got, want in zip(outcomes, many):
            _assert_same_outputs(got, want)
        stats = store.cache_stats()
        assert stats.single_flight_hits > 0
        # Followers ride the leader's entry: the contended makespan
        # collapses towards a single query's serial time.
        makespan = max(o.session.finished_at for o in outcomes)
        reference_makespan = max(o.session.finished_at for o in many)
        assert makespan < reference_makespan

    def test_follower_never_finishes_before_its_leader(self, tmp_path):
        store = _build(tmp_path / "w", CacheConfig())
        executor = store.executor(**_pools())
        lead = executor.admit(QUERY_A, "jackson", 0.8, 0.0, SPAN)
        follow = executor.admit(QUERY_A, "jackson", 0.8, 0.0, SPAN)
        executor.run()
        assert follow.finished_at >= lead.finished_at


class TestInvalidation:
    def test_age_invalidates_no_stale_results(self, tmp_path):
        """After erosion deletes footage, a warm cache must not resurrect
        results for segments that are gone."""
        store = _build(tmp_path / "w", CacheConfig(), lifespan_days=2)
        store.execute("A", dataset="jackson", accuracy=0.8, t0=0.0, t1=SPAN)
        assert store.cache.frames.occupancy_bytes > 0
        deleted = store.age("jackson", now_seconds=10 * DAY)
        assert deleted > 0
        # every cached artifact of the eroded segments is gone
        assert len(store.cache.frames) == 0
        assert len(store.cache.results.committed) == 0
        assert store.cache_stats().frames.invalidations > 0

    def test_reingest_invalidates_and_matches_fresh_store(self, tmp_path,
                                                          reference):
        _, single, _ = reference
        store = _build(tmp_path / "w", CacheConfig())
        store.execute("A", dataset="jackson", accuracy=0.8, t0=0.0, t1=SPAN)
        # Re-ingest the same segments: cached frames/results become stale.
        store.ingest("jackson", n_segments=N_SEGMENTS)
        assert len(store.cache.frames) == 0
        result = store.execute("A", dataset="jackson", accuracy=0.8,
                               t0=0.0, t1=SPAN)
        assert result.positives_per_stage == single.positives_per_stage


class TestDatasetKeying:
    def test_mismatched_dataset_query_cannot_poison_the_memo(self, tmp_path):
        """Nothing stops a caller from querying a stream under the wrong
        dataset; the result keys carry the dataset, so the two pairings
        can never serve each other's outputs."""

        def run(store, dataset):
            executor = store.executor()
            executor.admit(QUERY_A, dataset, 0.8, 0.0, SPAN, stream="cam01")
            return executor.run()[0].result

        store = _build(tmp_path / "w", CacheConfig())
        store.ingest("jackson", n_segments=N_SEGMENTS, stream="cam01")
        jackson_cold = run(store, "jackson")
        mismatched = run(store, "miami")  # warm memo must not leak into this
        jackson_warm = run(store, "jackson")
        assert (jackson_warm.positives_per_stage
                == jackson_cold.positives_per_stage)

        uncached = _build(tmp_path / "w2")
        uncached.ingest("jackson", n_segments=N_SEGMENTS, stream="cam01")
        assert (run(uncached, "miami").positives_per_stage
                == mismatched.positives_per_stage)


TIERED = CacheConfig(frame_capacity_bytes=0.0,  # force every read to disk
                     result_capacity_bytes=0.0,
                     tiering=TierConfig(promote_accesses=2))


class TestTiering:
    def test_hot_segments_promote_and_speed_up_raw_reads(self, tmp_path):
        store = _build(tmp_path / "w", TIERED)
        cold = store.execute("A", dataset="jackson", accuracy=0.8,
                             t0=0.0, t1=SPAN)
        stats = store.cache_stats()
        assert stats.tiering.promotions > 0
        assert stats.tiering.migration_seconds > 0
        # Migration moves stored segments: the fast tier can never hold
        # more than what is physically on disk (decoded frames are 10-100x
        # larger and belong to the RAM tier, not here).
        assert (stats.tiering.fast_occupancy_bytes
                <= store.segments.total_bytes())
        assert stats.tiering.migrated_bytes <= store.segments.total_bytes()
        warm = store.execute("A", dataset="jackson", accuracy=0.8,
                             t0=0.0, t1=SPAN)
        # Promoted raw segments stream at fast-tier bandwidth; with the
        # frame cache disabled the speedup comes from tiering alone.
        assert warm.positives_per_stage == cold.positives_per_stage
        assert warm.compute_seconds < cold.compute_seconds

    def test_execute_is_its_one_spec_fleet(self, tmp_path):
        """execute and execute_many of the same one spec return the same
        result: the post-run tier sweep's migration I/O is charged to the
        clock after the query finished, so neither result counts it."""
        one = _build(tmp_path / "one", TIERED, n_segments=8)
        many = _build(tmp_path / "many", TIERED, n_segments=8)
        result = one.execute("A", "jackson", 0.8, 0.0, 64.0)
        [outcome] = many.execute_many([dict(query="A", dataset="jackson",
                                            accuracy=0.8, t0=0.0, t1=64.0)])
        assert one.cache_stats().tiering.migration_seconds > 0
        assert result == outcome.result

    def test_makespan_ends_before_the_tier_sweep(self, tmp_path):
        """The post-run tier sweep moves the clock after the last query
        finished; the run's makespan, its SLO report's and the metrics
        gauge all end at that finish, and only the tiering stats count
        the migration."""
        store = _build(tmp_path / "w", TIERED, n_segments=8)
        [outcome] = store.execute_many([dict(query="A", dataset="jackson",
                                             accuracy=0.8, t0=0.0, t1=64.0)])
        run = store.last_run
        gauge = store.metrics.snapshot()["gauges"]["executor.makespan_seconds"]
        assert store.cache_stats().tiering.migration_seconds > 0
        assert (run.stats.makespan == run.slo.makespan
                == outcome.session.finished_at == gauge
                == 2.1818715888914464)


class TestDecoderCache:
    def test_decoder_skips_charge_on_hit(self, tmp_path):
        """A warm repeat of a decode-bound query is served from the
        decoded-frame tier: its retrieve tasks run on the RAM tier and
        never occupy the decoder (result tier off, so the frames are
        still needed)."""
        store = VStore(workdir=str(tmp_path / "w"),
                       cache_config=CacheConfig(result_capacity_bytes=0.0),
                       library=default_library(
                           names=("Motion", "License", "OCR")))
        store.configure()
        store.ingest("jackson", n_segments=N_SEGMENTS)
        busy = []
        for _ in range(2):
            executor = store.executor()
            executor.admit(QUERY_B, "jackson", 0.8, 0.0, SPAN)
            executor.run()
            busy.append(executor.stats().busy_seconds)
        cold, warm = busy
        assert cold["decoder"] > 0
        assert warm["decoder"] == 0.0
        assert warm["cache"] > 0
        assert store.cache_stats().frames.hits > 0
        store.close()

    def test_stats_requires_cache_enabled(self, tmp_path):
        from repro.errors import ConfigurationError

        store = VStore(workdir=str(tmp_path / "w"),
                       library=default_library(names=LIB_NAMES))
        store.configure()
        with pytest.raises(ConfigurationError):
            store.cache_stats()
