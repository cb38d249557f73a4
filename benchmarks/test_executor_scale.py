"""Executor scale sweep: 16-4096 concurrent queries x 1-8 disk shards.

The first concurrent executor rescanned its whole waiting list on every
grant and took ``min``/``remove`` over a Python list on every completion
— O(T * W) in total task count T and waiting-set size W — so a 512-query
fleet was wall-clock bound by the *scheduler*, not by the modeled
hardware, and this sweep was too slow to run at all.  The executor's one
event loop makes every scheduling decision O(log n) over flat arrays
lowered once per plan (``repro.query.eventloop``).  This module measures
the result and pins it:

* the full 16-512 x 1-8 grid runs in seconds (previously minutes), with
  real events/sec recorded per cell in BENCH.json and RESULTS.md;
* the acceptance cell — 256 queries on 4 shards — must run **>= 10x**
  faster under the production loop than under the bit-identical rescan
  loop kept as the parity oracle in ``tests/oracles``;
* 1024- and 4096-query FIFO fleets on 4 shards run bit-identically to
  the retired closed-loop fast path (kept verbatim as the oracle
  ``fastpath_loop``); at 4096 queries the production loop must run at
  **>= 1.35x** its speed (median ratio over ten interleaved in-process
  pairs) under a hard 10 s wall budget — FIFO fleets like these grant
  from plain per-pool queues, not heaps;
* independent fleets fan out across worker processes
  (``execute_many(parallel=N)``); with >= 4 host cores the aggregate
  scheduling throughput must reach **>= 2.5x** the serial run's;
* a 64-query smoke cell carries a hard wall-clock budget so CI catches a
  scheduler regression the simulated clock cannot see — and the CI job
  gates it through ``python -m repro bench-diff`` against the committed
  ``BENCH_BASELINE.json``.

Fleets are admitted from *precomputed* plans (``admit(plan=...)``): the
per-stream plans are identical across queries, so planning cost is paid
8 times, not 512, and the measured wall-clock is the executor core.
"""

import os
import statistics
from contextlib import nullcontext
from time import perf_counter

import pytest

from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.operators.library import default_library
from repro.query.cascade import QUERY_A
from repro.query.parallel import merge_reports
from repro.query.scheduler import (
    FairSharePolicy,
    FIFOPolicy,
    OperatorContextPool,
)
from repro.storage.disk import DiskBandwidthPool
from repro.units import GB

from oracles import fastpath_loop, reference_loop

SHARD_COUNTS = (1, 4, 8)
QUERY_COUNTS = (16, 64, 256, 512)
N_STREAMS = 8
SEGMENTS_PER_STREAM = 8
SPAN = 64.0

#: One HDD spindle, as in the shard-scaling sweep.
SPINDLE_READ_BW = 0.125 * GB
SPINDLE_WRITE_BW = 0.1 * GB

#: Acceptance: production loop vs reference loop at this cell.
SPEEDUP_CELL = (256, 4)
MIN_SPEEDUP = 10.0

#: Acceptance: the production loop against the retired fast path at
#: fleet scale.  FIFO fleets of single-context queries are the fleets the
#: fast path accepted; at 4096 x 4 shards the median ratio of its wall to
#: the production loop's, over this many interleaved pairs, must reach
#: this.  The production loop grants such fleets from plain per-pool
#: queues where the fast path keeps heaps, so it must be clearly faster.
FASTPATH_QUERY_COUNTS = (1024, 4096)
FASTPATH_PAIRS = 10
FASTPATH_MIN_RATIO = 1.35
FASTPATH_WALL_BUDGET = 10.0

#: Acceptance: multi-core fleet execution.  With at least this many host
#: cores, ``parallel=4`` must deliver this aggregate-throughput multiple
#: over the serial run of the same independent fleets.
PARALLEL_WORKERS = 4
PARALLEL_MIN_SPEEDUP = 2.5
PARALLEL_FLEETS = 8
PARALLEL_FLEET_QUERIES = 2048

#: CI perf-smoke budget: the production loop must clear 64 queries x 4 shards
#: (~1000 scheduled tasks) in this much real time on any CI worker.
SMOKE_QUERIES = 64
SMOKE_WALL_BUDGET = 5.0

#: The smoke cell backs two bench-diff gates (the 0.30 baseline gate and
#: the 5% metrics-overhead A/B), and a single ~10 ms run is noise-
#: dominated on shared CI workers; record the best of this many
#: back-to-back runs instead.
SMOKE_REPEATS = 7

#: Smoke cells under the metrics-overhead A/B.  Interleaved detached/
#: attached pairs in one process are the only sound way to resolve a 5%
#: effect: back-to-back pytest *sessions* on a shared worker drift by
#: 30%+ (CPU frequency scaling), which would drown the gate.
SMOKE_CELL = f"executor_scale/smoke_q{SMOKE_QUERIES}_s4"
SMOKE_CELL_DETACHED = f"{SMOKE_CELL}_detached"


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """Lazy per-shard-count fleets: ``fleet(shards) -> (store, plans)``.

    Stores are ingested (and their per-stream plans computed) only for
    the shard counts a test actually asks for, so the CI perf-smoke job —
    which runs just the 64-query x 4-shard cell — pays for one fleet,
    not three.
    """
    library = default_library(
        names=("Diff", "S-NN", "NN", "Motion", "License", "OCR")
    )
    built = {}

    def get(shards):
        if shards not in built:
            store = VStore(
                workdir=str(tmp_path_factory.mktemp(f"scale{shards}")),
                library=library, shards=shards,
            )
            for disk in store.disk_array.disks:
                disk.read_bandwidth = SPINDLE_READ_BW
                disk.write_bandwidth = SPINDLE_WRITE_BW
            store.configure()
            engine = store.engine("jackson")
            plans = {}
            for i in range(N_STREAMS):
                stream = f"cam{i:02d}"
                store.ingest("jackson", n_segments=SEGMENTS_PER_STREAM,
                             stream=stream)
                plans[stream] = engine.plan(
                    QUERY_A, 0.9, store.segments, 0.0, SPAN, stream=stream
                )
            built[shards] = (store, plans)
        return built[shards]

    yield get
    for store, _ in built.values():
        store.close()


def _run_fleet(store, plans, n_queries, policy=None, **executor_kwargs):
    """Admit and run one fleet; returns the executor's stats.

    ``executor_kwargs`` pass through to ``store.executor`` — the smoke
    A/B uses ``metrics=None`` / ``metrics=store.metrics`` to force the
    registry detached or attached regardless of the environment switch.
    """
    ex = store.executor(
        policy=policy or FairSharePolicy(),
        disk_pool=DiskBandwidthPool(1),  # one I/O channel per shard
        decoder_pool=DecoderPool(2),
        operator_pool=OperatorContextPool(4),
        **executor_kwargs,
    )
    for i in range(n_queries):
        stream = f"cam{i % N_STREAMS:02d}"
        ex.admit(QUERY_A, "jackson", 0.9, 0.0, SPAN, stream=stream,
                 plan=plans[stream])
    ex.run()
    return ex.stats()


def test_executor_scale_sweep(record, bench_metrics, fleet):
    """The whole grid under the production loop, with per-cell throughput."""
    cells = {}
    for shards in SHARD_COUNTS:
        store, plans = fleet(shards)
        for n in QUERY_COUNTS:
            stats = _run_fleet(store, plans, n)
            cells[(shards, n)] = stats
            bench_metrics(
                f"executor_scale/q{n}_s{shards}_heap",
                core=stats.core,
                shards=shards,
                queries=n,
                wall_seconds=round(stats.wall_seconds, 4),
                events=stats.events,
                events_per_second=round(stats.events_per_second),
                sim_makespan=round(stats.makespan, 3),
            )

    lines = [f"{'shards':>7} {'queries':>8} {'tasks':>7} {'wall':>9} "
             f"{'events/s':>9} {'sim makespan':>13}"]
    for (shards, n), stats in sorted(cells.items()):
        lines.append(
            f"{shards:>7} {n:>8} {stats.events // 2:>7} "
            f"{stats.wall_seconds * 1e3:>7.1f}ms "
            f"{stats.events_per_second:>9,.0f} {stats.makespan:>12.3f}s"
        )
    record("Executor scale — production loop, 16-512 queries x 1-8 shards "
           "(fair share, spindle-grade disks, 1 channel/shard)",
           "\n".join(lines))
    record("Perf telemetry",
           "Machine-readable per-benchmark wall-clock and executor "
           "events/sec for this session are in benchmarks/BENCH.json "
           "(rewritten by every benchmark run; uploaded as a CI artifact "
           "by both the benchmark step and the perf-smoke job).")

    # The grid itself is the previously-unrunnable artifact: every cell
    # must finish, and scheduling must stay within interactive budgets
    # even at the 512 x 8 corner.
    assert all(s.wall_seconds < 30.0 for s in cells.values())
    # Simulated time is hardware-bound: more shards never slow a fleet.
    for n in QUERY_COUNTS:
        makespans = [cells[(s, n)].makespan for s in SHARD_COUNTS]
        assert makespans == sorted(makespans, reverse=True)


def test_heap_vs_reference_speedup(benchmark, record, bench_metrics, fleet):
    """Acceptance: >= 10x wall-clock over the rescan-loop oracle at 256 x 4.

    Best-of-N wall-clock on both sides: the minimum is the standard
    noise-robust estimator, and the production loop's short runs are the
    ones a busy CI worker can inflate severalfold.
    """
    n, shards = SPEEDUP_CELL
    store, plans = fleet(shards)

    heap_stats = benchmark.pedantic(
        lambda: _run_fleet(store, plans, n),
        rounds=1, iterations=1,
    )
    for _ in range(2):  # best of 3
        candidate = _run_fleet(store, plans, n)
        if candidate.wall_seconds < heap_stats.wall_seconds:
            heap_stats = candidate
    with reference_loop():
        ref_stats = _run_fleet(store, plans, n)
        candidate = _run_fleet(store, plans, n)  # best of 2
    if candidate.wall_seconds < ref_stats.wall_seconds:
        ref_stats = candidate
    assert heap_stats.core == "heap" and ref_stats.core == "reference"

    # Bit-identical simulation, wildly different wall-clock.
    assert heap_stats.makespan == ref_stats.makespan
    assert heap_stats.busy_seconds == ref_stats.busy_seconds
    speedup = ref_stats.wall_seconds / heap_stats.wall_seconds
    bench_metrics(
        f"executor_scale/speedup_q{n}_s{shards}",
        core="heap",
        shards=shards,
        queries=n,
        heap_wall_seconds=round(heap_stats.wall_seconds, 4),
        reference_wall_seconds=round(ref_stats.wall_seconds, 4),
        speedup=round(speedup, 1),
        events=heap_stats.events,
    )
    record(
        "Executor scale — production loop vs reference loop "
        f"({n} queries x {shards} shards)",
        f"reference loop: {ref_stats.wall_seconds:8.3f}s wall "
        f"({ref_stats.events_per_second:10,.0f} events/s)\n"
        f"production:     {heap_stats.wall_seconds:8.3f}s wall "
        f"({heap_stats.events_per_second:10,.0f} events/s)\n"
        f"speedup:        {speedup:8.1f}x "
        f"(acceptance floor {MIN_SPEEDUP:.0f}x)",
    )
    assert speedup >= MIN_SPEEDUP


def test_fastpath_fleet_scale(record, bench_metrics, fleet):
    """Acceptance: the production loop keeps the fast path's speed.

    FIFO fleets of single-context queries on an uncached store, at 1024
    and 4096 queries, replayed through the production loop and the
    retired closed-loop fast path (``oracles.fastpath_loop``): both must
    simulate bit-identically, and at the 4096 x 4-shard corner the
    production loop, granting from plain per-pool queues, must run at
    >= 1.35x the fast path's speed under a 10 s wall budget.  Both sides
    time lowering plus the loop.  The gate is a ratio over interleaved
    in-process pairs, order alternating, like the registry-overhead A/B:
    an absolute events/s floor measured how busy the shared host was, not
    the code.
    """
    store, plans = fleet(4)
    lines = [f"{'queries':>8} {'loop':>9} {'wall':>9} {'events/s':>10}"]
    final_ratio = 0.0
    for n in FASTPATH_QUERY_COUNTS:
        prod, fast = [], []
        for rep in range(FASTPATH_PAIRS):
            sides = [(prod, nullcontext), (fast, fastpath_loop)]
            for runs, loop in sides if rep % 2 == 0 else reversed(sides):
                with loop():
                    runs.append(_run_fleet(store, plans, n,
                                           policy=FIFOPolicy()))
        stats = min(prod, key=lambda s: s.wall_seconds)
        oracle = min(fast, key=lambda s: s.wall_seconds)
        ratio = statistics.median(
            f.wall_seconds / p.wall_seconds for p, f in zip(prod, fast))
        assert all(s.core == "heap" for s in prod)
        assert all(s.core == "fastpath" for s in fast)
        for s in prod + fast:
            assert s.makespan == stats.makespan
            assert s.busy_seconds == stats.busy_seconds
            assert s.events == stats.events
        bench_metrics(
            f"executor_scale/q{n}_s4_fastpath",
            core=stats.core,
            shards=4,
            queries=n,
            wall_seconds=round(stats.wall_seconds, 4),
            events=stats.events,
            events_per_second=round(stats.events_per_second),
            sim_makespan=round(stats.makespan, 3),
            fastpath_wall_seconds=round(oracle.wall_seconds, 4),
            speed_vs_fastpath=round(ratio, 2),
            pairs=FASTPATH_PAIRS,
        )
        for s, loop in ((stats, "heap"), (oracle, "fastpath")):
            lines.append(f"{n:>8} {loop:>9} {s.wall_seconds * 1e3:>7.1f}ms "
                         f"{s.events_per_second:>10,.0f}")
        lines.append(f"{n:>8} {'ratio':>9} {ratio:>8.2f}x (median of "
                     f"{FASTPATH_PAIRS} interleaved pairs)")
        assert stats.wall_seconds < FASTPATH_WALL_BUDGET
        final_ratio = ratio
    record("Executor scale — production loop vs the retired fast path, "
           "1024/4096 FIFO queries x 4 shards (bit-identical)",
           "\n".join(lines))
    assert final_ratio >= FASTPATH_MIN_RATIO


def test_parallel_fleet_throughput(record, bench_metrics, fleet):
    """Multi-core fleet execution: independent fleets across workers.

    Eight independent 2048-query fleets run serially (``parallel=1``)
    and across four forked workers; the per-fleet reports must be
    bit-equal, and on a host with >= 4 cores the aggregate scheduling
    throughput (total events over elapsed wall) must be >= 2.5x.  On
    smaller hosts the cell still records honest measurements — there is
    no parallelism to find, so only equality is asserted.
    """
    store, plans = fleet(4)
    specs = []
    for i in range(PARALLEL_FLEET_QUERIES):
        stream = f"cam{i % N_STREAMS:02d}"
        specs.append(dict(query=QUERY_A, dataset="jackson", accuracy=0.9,
                          t0=0.0, t1=SPAN, stream=stream,
                          plan=plans[stream]))
    fleets = [specs] * PARALLEL_FLEETS
    kwargs = dict(policy=FIFOPolicy(), disk_pool=DiskBandwidthPool(1),
                  decoder_pool=DecoderPool(2),
                  operator_pool=OperatorContextPool(4))

    t0 = perf_counter()
    serial = store.execute_many(fleets, parallel=1, **kwargs)
    serial_wall = perf_counter() - t0
    t0 = perf_counter()
    parallel = store.execute_many(fleets, parallel=PARALLEL_WORKERS,
                                  **kwargs)
    parallel_wall = perf_counter() - t0

    for s, p in zip(serial, parallel):  # worker isolation is bit-exact
        assert s.makespan == p.makespan
        assert s.rows == p.rows
        assert s.events == p.events

    merged = merge_reports(parallel, wall_seconds=parallel_wall)
    speedup = serial_wall / parallel_wall
    cpus = os.cpu_count() or 1
    bench_metrics(
        "executor_scale/parallel_fleets",
        core=serial[0].core,
        shards=4,
        queries=PARALLEL_FLEET_QUERIES,
        fleets=PARALLEL_FLEETS,
        queries_per_fleet=PARALLEL_FLEET_QUERIES,
        workers=PARALLEL_WORKERS,
        host_cpus=cpus,
        serial_wall_seconds=round(serial_wall, 4),
        parallel_wall_seconds=round(parallel_wall, 4),
        aggregate_events=merged.events,
        aggregate_events_per_second=round(merged.events_per_second),
        speedup=round(speedup, 2),
    )
    record(
        "Executor scale — multi-core fleet execution "
        f"({PARALLEL_FLEETS} independent fleets x "
        f"{PARALLEL_FLEET_QUERIES} queries, {PARALLEL_WORKERS} workers, "
        f"{cpus} host cores)",
        f"serial:   {serial_wall:8.3f}s elapsed\n"
        f"parallel: {parallel_wall:8.3f}s elapsed "
        f"({merged.events_per_second:,.0f} aggregate events/s)\n"
        f"speedup:  {speedup:8.2f}x "
        f"(floor {PARALLEL_MIN_SPEEDUP}x when >= {PARALLEL_WORKERS} cores)",
    )
    if cpus >= PARALLEL_WORKERS:
        assert speedup >= PARALLEL_MIN_SPEEDUP


def test_perf_smoke_64_queries(bench_metrics, fleet):
    """CI perf-smoke cells: 64 queries x 4 shards under a hard wall budget.

    Runs standalone via ``pytest benchmarks/test_executor_scale.py -k
    smoke`` so the CI job stays minutes-cheap (the lazy ``fleet`` fixture
    then builds only the 4-shard store).  Each repeat runs the fleet
    twice back to back — metrics registry detached, then attached — and
    the best of ``SMOKE_REPEATS`` such pairs lands in two cells:

    * ``executor_scale/smoke_q64_s4`` (attached) — gated against the
      committed ``BENCH_BASELINE.json`` at the 0.30 tolerance;
    * ``executor_scale/smoke_q64_s4_detached`` — the same-process A/B
      partner the CI job diffs the attached cell against at 5%, proving
      the always-on registry near-zero overhead.

    Best-of-N over *interleaved pairs* is what makes the 5% gate sound:
    it strips scheduler jitter and CPU-frequency drift that dominate a
    ~10 ms wall measured across separate processes.  The order within a
    pair alternates each repeat — under a monotonic frequency ramp
    (e.g. turbo decay right after a heavier job) whichever side always
    ran second would otherwise absorb the whole drift as fake overhead.
    """
    store, plans = fleet(4)
    detached, attached = [], []
    for rep in range(SMOKE_REPEATS):
        sides = [(detached, None), (attached, store.metrics)]
        for runs, registry in sides if rep % 2 == 0 else reversed(sides):
            runs.append(_run_fleet(store, plans, SMOKE_QUERIES,
                                   metrics=registry))
    for cell, runs, registry in ((SMOKE_CELL_DETACHED, detached, "detached"),
                                 (SMOKE_CELL, attached, "attached")):
        stats = min(runs, key=lambda s: s.total_wall_seconds)
        bench_metrics(
            cell,
            core=stats.core,
            shards=4,
            queries=SMOKE_QUERIES,
            wall_seconds=round(stats.wall_seconds, 4),
            events=stats.events,
            events_per_second=round(stats.events_per_second),
            wall_budget_seconds=SMOKE_WALL_BUDGET,
            repeats=SMOKE_REPEATS,
            registry=registry,
        )
        assert stats.events > 0
        assert stats.wall_seconds < SMOKE_WALL_BUDGET
