"""The always-on metrics registry.

Instruments first (log-bucket quantiles must be honest about their
±one-bucket resolution), then the cross-layer feeders: an ordinary
``execute_many`` must leave the store's registry describing the run —
and a run passed ``metrics=None`` must feed it nothing without breaking
anything.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.store import VStore
from repro.obs.metrics import (
    BUCKETS_PER_DECADE,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.operators.library import default_library

#: One log bucket spans a factor of 10**(1/BUCKETS_PER_DECADE); a
#: quantile can be off by at most that factor.
BUCKET_FACTOR = 10.0 ** (1.0 / BUCKETS_PER_DECADE)


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


def test_counter_rejects_negative_increment():
    c = Counter("n")
    c.inc(2.0)
    with pytest.raises(ValueError):
        c.inc(-1.0)
    assert c.value == 2.0


def test_histogram_quantiles_within_bucket_resolution():
    h = Histogram("lat")
    values = [0.01 * i for i in range(1, 101)]  # 0.01 .. 1.00
    for v in values:
        h.observe(v)
    assert h.count == 100
    assert h.min == pytest.approx(0.01)
    assert h.max == pytest.approx(1.00)
    # Bucket upper bounds overshoot by at most one bucket factor.
    for q, exact in ((0.50, 0.50), (0.95, 0.95), (0.99, 0.99)):
        got = h.quantile(q)
        assert exact <= got <= exact * BUCKET_FACTOR * 1.0001


def test_histogram_underflow_bucket_holds_zeroes():
    h = Histogram("waits")
    for _ in range(10):
        h.observe(0.0)
    h.observe(5.0)
    assert h.p50 == 0.0  # the zero majority pins the median at 0
    assert h.quantile(1.0) == pytest.approx(5.0)


def test_histogram_quantile_capped_at_observed_max():
    h = Histogram("one")
    h.observe(0.37)
    # A single sample: every quantile is that sample, not its bucket edge.
    assert h.p50 == pytest.approx(0.37)
    assert h.p99 == pytest.approx(0.37)


def test_histogram_quantile_zero_returns_min():
    """Regression: rank 0 matched the first occupied bucket immediately,
    so quantile(0.0) reported that bucket's *upper* bound instead of the
    smallest observation."""
    h = Histogram("lat")
    h.observe(0.011)  # sits just above its bucket's lower bound
    h.observe(0.9)
    assert h.quantile(0.0) == 0.011
    assert h.quantile(1.0) == pytest.approx(0.9)


def test_histogram_quantiles_clamped_to_min_and_max():
    h = Histogram("lat")
    h.observe(0.5)
    h.observe(0.50001)
    for q in (0.0, 0.1, 0.5, 0.9, 1.0):
        got = h.quantile(q)
        assert h.min <= got <= h.max


def test_histogram_quantile_min_clamp_with_underflow_bucket():
    """Negative observations land in the underflow bucket (reported 0.0)
    but the q=0 quantile is the honest minimum, and no quantile escapes
    the observed range."""
    h = Histogram("delta")
    h.observe(-2.0)
    h.observe(-1.0)
    h.observe(3.0)
    assert h.quantile(0.0) == -2.0
    for q in (0.25, 0.5, 0.66):
        assert -2.0 <= h.quantile(q) <= 3.0
    assert h.quantile(1.0) == pytest.approx(3.0)


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=40,
    ),
    q=st.floats(0.0, 1.0),
)
def test_histogram_quantile_clamp_property(values, q):
    """For any observation set and any quantile, the estimate never
    escapes [min, max]; q=0 is exactly the min and q=1 exactly the max."""
    h = Histogram("prop")
    for v in values:
        h.observe(v)
    assert h.min <= h.quantile(q) <= h.max
    assert h.quantile(0.0) == min(values)
    assert h.quantile(1.0) == max(values)


def test_histogram_bucket_boundary_indexing_is_stable():
    """Regression: ``ceil(log(v) / LOG_BASE)`` can flip a value sitting
    exactly on a bucket boundary into the adjacent bucket from float
    error in ``log``.  The nudge-and-verify index must satisfy the
    canonical bound function for every boundary value."""
    h = Histogram("edges")
    for k in range(-24, 25):
        v = h._bucket_upper(k)  # exactly on the boundary of bucket k
        idx = h._bucket_index(v)
        assert idx == k, f"boundary value {v!r} (k={k}) landed in {idx}"
        # And the invariant the exporter's bit-equality rests on:
        assert h._bucket_upper(idx - 1) < v <= h._bucket_upper(idx)


def test_histogram_bucket_index_matches_bounds_for_random_values():
    import random

    rng = random.Random(1234)
    h = Histogram("rand")
    for _ in range(500):
        v = 10.0 ** rng.uniform(-6, 6)
        idx = h._bucket_index(v)
        assert h._bucket_upper(idx - 1) < v <= h._bucket_upper(idx)


def test_registry_snapshot_is_deterministic_and_sorted():
    r = MetricsRegistry()
    r.gauge("z").set(1.0)
    r.gauge("a").set(2.0)
    r.counter("m").inc()
    r.histogram("h").observe(1.0)
    snap = r.snapshot()
    assert list(snap["gauges"]) == ["a", "z"]
    assert snap == r.snapshot()
    rows = r.rows()
    # Uniform key-set per row — ready for the columnar tier.
    assert len({tuple(sorted(row)) for row in rows}) == 1


# ---------------------------------------------------------------------------
# Cross-layer feeders, through the store facade
# ---------------------------------------------------------------------------


@pytest.fixture()
def small_store(tmp_path):
    lib = default_library(names=("Motion", "License", "OCR"))
    with VStore(workdir=str(tmp_path / "store"), library=lib) as store:
        store.configure()
        store.ingest("jackson", n_segments=4)
        yield store


SPECS = [{"query": "B", "dataset": "jackson", "accuracy": 0.9,
          "t0": 0.0, "t1": 16.0} for _ in range(3)]


def test_execute_many_feeds_the_registry(small_store):
    small_store.execute_many([dict(s) for s in SPECS])
    snap = small_store.metrics.snapshot()
    assert snap["counters"]["executor.runs"] == 1
    assert snap["counters"]["executor.queries"] == 3
    assert snap["counters"]["executor.events"] > 0
    assert snap["gauges"]["executor.makespan_seconds"] > 0
    assert snap["histograms"]["query.latency_seconds"]["count"] == 3
    # The PR-8 honest-wall bugfix: plan/admit wall is recorded too.
    assert snap["histograms"]["executor.admit_wall_seconds"]["count"] == 1
    assert snap["histograms"]["executor.admit_wall_seconds"]["mean"] > 0
    assert snap["gauges"]["drift.samples"] == 3


def test_stats_expose_honest_total_wall(small_store):
    ex = small_store.executor()
    small_store._admit_specs(ex, [dict(s) for s in SPECS])
    ex.run()
    stats = ex.stats()
    assert stats.admit_wall_seconds > 0
    assert stats.total_wall_seconds == pytest.approx(
        stats.wall_seconds + stats.admit_wall_seconds
    )
    # events/s divides by the *total* wall — planning no longer hides.
    assert stats.events_per_second == pytest.approx(
        stats.events / stats.total_wall_seconds
    )


def test_detached_run_feeds_no_registry(small_store):
    small_store.execute_many([dict(s) for s in SPECS], metrics=None)
    snap = small_store.metrics.snapshot()
    assert snap["counters"] == {}  # nothing was fed
    # The trace record is independent of the registry.
    assert small_store.last_run is not None
    assert small_store.last_run.events


def test_a_run_never_keeps_its_predecessors_outcomes_alive(small_store,
                                                           monkeypatch):
    """The store releases its last run before the next one admits, so
    outcomes a caller dropped are freed before the next run allocates."""
    from repro.query.scheduler import ConcurrentExecutor

    first = small_store.execute_many([dict(s) for s in SPECS])
    outcome = weakref.ref(first[0])
    del first
    run = ConcurrentExecutor.run
    calls = []

    def checked_run(executor):
        gc.collect()
        assert outcome() is None
        calls.append(executor)
        return run(executor)

    monkeypatch.setattr(ConcurrentExecutor, "run", checked_run)
    small_store.execute_many([dict(s) for s in SPECS])
    assert len(calls) == 1


def test_registry_accumulates_across_runs(small_store):
    small_store.execute_many([dict(s) for s in SPECS])
    small_store.execute_many([dict(s) for s in SPECS])
    snap = small_store.metrics.snapshot()
    assert snap["counters"]["executor.runs"] == 2
    assert snap["counters"]["executor.queries"] == 6
    assert snap["histograms"]["query.latency_seconds"]["count"] == 6


def test_cache_and_disk_feeders(tmp_path):
    from repro.cache.plane import CacheConfig
    from repro.units import MB

    lib = default_library(names=("Motion", "License", "OCR"))
    cache = CacheConfig(frame_capacity_bytes=64 * MB,
                        result_capacity_bytes=16 * MB)
    with VStore(workdir=str(tmp_path / "store"), library=lib,
                cache_config=cache, shards=2) as store:
        store.configure()
        store.ingest("jackson", n_segments=4)
        store.execute_many([dict(s) for s in SPECS])
        snap = store.metrics.snapshot()
    assert snap["gauges"]["disk.shards"] == 2
    assert "disk.shard1.write_seconds" in snap["gauges"]
    # Reads are the executor's retrieve tasks, reported per disk pool.
    assert "disk.shard1.read_seconds" not in snap["gauges"]
    assert "resource.disk:1.busy_seconds" in snap["gauges"]
    assert "cache.frames.hits" in snap["gauges"]
    assert "cache.single_flight_hits" in snap["gauges"]
