"""Shard scaling sweep: 1-8 disk shards x 1-16 concurrent queries.

The seed modeled the paper's HDD array as one aggregate disk, so every
concurrent retrieval serialized through a single bandwidth meter.  This
sweep measures what sharding buys: the same retrieval-bound fleet (query A
over raw jackson footage, one I/O channel per shard) runs against arrays
of 1, 2, 4 and 8 shards, where each shard models a *single HDD spindle*
(~125 MB/s sequential) — so the shard count is the amount of independent
hardware, exactly the scaling knob the paper's multi-disk platform offers.

The acceptance bar: 8 shards must cut the 16-query retrieval-bound
makespan by at least 3x over a single spindle.
"""

import pytest

from repro.core.store import VStore
from repro.operators.library import default_library
from repro.query.cascade import QUERY_A
from repro.storage.disk import DiskBandwidthPool
from repro.units import GB

SHARD_COUNTS = (1, 2, 4, 8)
N_QUERIES = (1, 4, 16)
N_STREAMS = 8
SEGMENTS_PER_STREAM = 8
QUERY_SPAN = 64.0

#: One HDD spindle: the paper's ~1 GB/s array divided by its disk count.
SPINDLE_READ_BW = 0.125 * GB
SPINDLE_WRITE_BW = 0.1 * GB


@pytest.fixture(scope="module")
def shard_stores(tmp_path_factory):
    """The same fleet ingested once per shard count, on spindle-grade disks."""
    library = default_library(
        names=("Diff", "S-NN", "NN", "Motion", "License", "OCR")
    )
    stores = {}
    for shards in SHARD_COUNTS:
        store = VStore(
            workdir=str(tmp_path_factory.mktemp(f"shards{shards}")),
            library=library, shards=shards,
        )
        for disk in store.disk_array.disks:
            disk.read_bandwidth = SPINDLE_READ_BW
            disk.write_bandwidth = SPINDLE_WRITE_BW
        store.configure()
        for i in range(N_STREAMS):
            store.ingest("jackson", n_segments=SEGMENTS_PER_STREAM,
                         stream=f"cam{i:02d}")
        stores[shards] = store
    yield stores
    for store in stores.values():
        store.close()


def _run(store, n_queries):
    executor = store.executor(
        policy="fifo",
        disk_pool=DiskBandwidthPool(1),  # one I/O channel per shard
    )
    for i in range(n_queries):
        executor.admit(QUERY_A, "jackson", 0.9, 0.0, QUERY_SPAN,
                       stream=f"cam{i % N_STREAMS:02d}")
    executor.run()
    return executor.stats()


def test_shard_scaling_sweep(benchmark, record, shard_stores):
    makespans = {}
    for shards, store in shard_stores.items():
        for n in N_QUERIES:
            makespans[(shards, n)] = _run(store, n).makespan
    # time the heaviest cell for the perf trajectory
    benchmark.pedantic(
        lambda: _run(shard_stores[max(SHARD_COUNTS)], max(N_QUERIES)),
        rounds=1, iterations=1,
    )

    lines = [f"{'shards':>7} {'queries':>8} {'makespan':>9} "
             f"{'speedup':>8}"]
    for (shards, n), makespan in sorted(makespans.items()):
        speedup = makespans[(1, n)] / makespan
        lines.append(f"{shards:>7} {n:>8} {makespan:>8.3f}s "
                     f"{speedup:>7.2f}x")
    record("Sharded storage — shard scaling sweep "
           "(spindle-grade shards, retrieval-bound query A fleet)",
           "\n".join(lines))

    # More shards never hurt, at any concurrency level.
    for n in N_QUERIES:
        series = [makespans[(s, n)] for s in SHARD_COUNTS]
        assert series == sorted(series, reverse=True)
    # The acceptance cell: 8 shards x 16 retrieval-bound queries must run
    # at least 3x faster than the same fleet on one spindle.
    assert makespans[(1, 16)] / makespans[(8, 16)] >= 3.0


def test_placement_spreads_the_fleet(record, shard_stores):
    """Hash placement keeps the 8-shard array near-balanced, and the run's
    per-shard report shows real parallel retrieval."""
    from repro.analysis import format_sharding_table, sharding_report

    store = shard_stores[max(SHARD_COUNTS)]
    stats = _run(store, max(N_QUERIES))
    report = sharding_report(store.segments, stats)
    record("Sharded storage — per-shard utilization (8 shards, 16 queries)",
           format_sharding_table(report))
    assert report.imbalance_ratio < 1.5
    assert report.retrieval_speedup is not None
    assert report.retrieval_speedup >= 3.0
