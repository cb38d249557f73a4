"""Open-loop serving at scale: 1k-10k query arrival streams with SLOs.

The executor-scale sweep measures the *closed-loop* regime (everything
admitted at t=0); this module pushes the open-loop serving plane — two
tenants with deterministic Poisson arrival streams, SLO deadlines on the
gold tenant, EDF admission control bounding the in-flight set — through
the heap core and records the operator-facing numbers alongside the raw
scheduler throughput:

* 1k- and 10k-query cells land in BENCH.json with p50/p95/p99 latency,
  deadline-miss rate, Jain fairness over tenant slowdowns and the peak
  admission-queue depth, so the serving trajectory is diffable across
  PRs just like events/s;
* a 256-query smoke cell (``workload/smoke_openloop``) runs in the CI
  perf-smoke job under a hard wall budget, is gated on events/s through
  ``bench-diff`` against the committed baseline, and asserts a
  deadline-miss-rate ceiling — the underloaded fleet must keep meeting
  its SLOs, whatever the host.

Arrival streams come straight from :mod:`repro.query.workload`
(per-tenant seeds), and queries are admitted from precomputed plans so
the measured wall-clock is the serving plane, not the planner.
"""

from heapq import merge

import pytest

from repro.analysis.slo import slo_report
from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.operators.library import default_library
from repro.query.cascade import QUERY_A
from repro.query.scheduler import (
    AdmissionConfig,
    FairSharePolicy,
    OperatorContextPool,
)
from repro.query.workload import poisson_arrivals
from repro.storage.disk import DiskBandwidthPool
from repro.units import GB

N_STREAMS = 8
SEGMENTS_PER_STREAM = 8
SPAN = 64.0
SHARDS = 4
SPINDLE_READ_BW = 0.125 * GB
SPINDLE_WRITE_BW = 0.1 * GB

#: Gold queries carry ``deadline = arrival + SLO_SECONDS``.
SLO_SECONDS = 5.0
#: Tight enough that arrival bursts actually queue in admission (the
#: near-saturation fleet floats around 6 in flight), loose enough that
#: the underloaded smoke fleet passes straight through.
MAX_IN_FLIGHT = 6

#: Near-saturation per-tenant arrival rate for the scale cells: the
#: 4-shard fleet drains roughly 2 q/s with these pools, so 2 x 1.0 q/s
#: keeps the admission queue alive without running away.
SCALE_RATE = 1.0
SCALE_QUERY_COUNTS = (1_000, 10_000)
SCALE_WALL_BUDGET = 30.0

#: The CI smoke cell runs *underloaded* (2 x 0.5 q/s against ~2 q/s of
#: capacity): latency is then service-dominated, far under the 5 s SLO,
#: and the deterministic simulated miss rate must stay under this
#: ceiling on any host.
SMOKE_QUERIES = 256
SMOKE_RATE = 0.5
SMOKE_WALL_BUDGET = 5.0
SMOKE_MISS_RATE_CEILING = 0.02
SMOKE_CELL = "workload/smoke_openloop"


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    library = default_library(
        names=("Diff", "S-NN", "NN", "Motion", "License", "OCR")
    )
    store = VStore(workdir=str(tmp_path_factory.mktemp("serve")),
                   library=library, shards=SHARDS)
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
        plans[stream] = engine.plan(QUERY_A, 0.9, store.segments, 0.0,
                                    SPAN, stream=stream)
    yield store, plans
    store.close()


def _arrival_stream(n_queries, rate_per_tenant, seed=0):
    """First ``n_queries`` arrivals of two merged per-tenant streams.

    Each tenant draws its own seeded Poisson stream (over-provisioned in
    horizon, then truncated), exactly as ``build_workload`` would; gold
    arrivals carry an SLO deadline, bronze arrivals none.
    """
    horizon = 1.5 * n_queries / rate_per_tenant  # per tenant: ~0.75 n
    streams = [
        sorted((t, tenant) for t in poisson_arrivals(
            rate_per_tenant, horizon, (seed, tenant)))
        for tenant in ("gold", "bronze")
    ]
    merged = list(merge(*streams))[:n_queries]
    assert len(merged) == n_queries, "horizon too short for the rate"
    return merged


def _serve_fleet(store, plans, n_queries, rate_per_tenant):
    ex = store.executor(
        policy=FairSharePolicy(),
        disk_pool=DiskBandwidthPool(1),
        decoder_pool=DecoderPool(2),
        operator_pool=OperatorContextPool(4),
        admission=AdmissionConfig(max_in_flight=MAX_IN_FLIGHT,
                                  queue_policy="edf"),
        cache=None,  # identical service per query: repeat runs bit-equal
        metrics=None,
    )
    for i, (t, tenant) in enumerate(_arrival_stream(n_queries,
                                                    rate_per_tenant)):
        stream = f"cam{i % N_STREAMS:02d}"
        deadline = t + SLO_SECONDS if tenant == "gold" else None
        ex.admit(QUERY_A, "jackson", 0.9, 0.0, SPAN, stream=stream,
                 plan=plans[stream], arrival=t, tenant=tenant,
                 deadline=deadline)
    outcomes = ex.run()
    stats = ex.stats()
    report = slo_report(outcomes, queue_timeline=ex.admission_timeline,
                        makespan=stats.makespan)
    return stats, report


def _cell_fields(stats, report, n_queries, rate_per_tenant):
    o = report.overall
    return dict(
        core=stats.core,
        shards=SHARDS,
        queries=n_queries,
        tenants=len(report.tenants),
        rate_per_tenant=rate_per_tenant,
        slo_seconds=SLO_SECONDS,
        max_in_flight=MAX_IN_FLIGHT,
        wall_seconds=round(stats.wall_seconds, 4),
        events=stats.events,
        events_per_second=round(stats.events_per_second),
        sim_makespan=round(stats.makespan, 3),
        throughput_qps=round(report.throughput_qps, 3),
        p50_latency=round(o.p50_latency, 4),
        p95_latency=round(o.p95_latency, 4),
        p99_latency=round(o.p99_latency, 4),
        miss_rate=round(o.miss_rate, 4),
        jain_fairness=round(report.fairness, 4),
        peak_queued=report.peak_queued,
    )


def test_openloop_serve_scale(record, bench_metrics, fleet):
    """1k and 10k open-loop queries under EDF admission, near saturation."""
    store, plans = fleet
    lines = [f"{'queries':>8} {'wall':>9} {'events/s':>9} {'sim':>9} "
             f"{'p50':>7} {'p95':>7} {'p99':>7} {'miss%':>6} {'jain':>6} "
             f"{'peakQ':>6}"]
    for n in SCALE_QUERY_COUNTS:
        stats, report = _serve_fleet(store, plans, n, SCALE_RATE)
        o = report.overall
        assert o.n_queries == n  # every arrival served, none stuck
        assert o.p50_latency <= o.p95_latency <= o.p99_latency
        assert report.queue_timeline[-1][1:] == (0, 0)  # drained clean
        assert report.peak_queued > 0  # admission control actually bound
        assert stats.core == "heap"  # open loop never takes the fastpath
        assert stats.wall_seconds < SCALE_WALL_BUDGET
        bench_metrics(f"workload/serve_q{n}",
                      **_cell_fields(stats, report, n, SCALE_RATE))
        lines.append(
            f"{n:>8} {stats.wall_seconds * 1e3:>7.1f}ms "
            f"{stats.events_per_second:>9,.0f} {stats.makespan:>8.1f}s "
            f"{o.p50_latency:>7.3f} {o.p95_latency:>7.3f} "
            f"{o.p99_latency:>7.3f} {o.miss_rate * 100:>5.1f}% "
            f"{report.fairness:>6.3f} {report.peak_queued:>6}"
        )
    record("Open-loop serving — 2 tenants x 1.0 q/s Poisson, EDF "
           f"admission (max in-flight {MAX_IN_FLIGHT}), gold SLO "
           f"{SLO_SECONDS:.0f}s, 4 shards",
           "\n".join(lines))


def test_perf_smoke_openloop(bench_metrics, fleet):
    """CI perf-smoke: underloaded 256-query serve meets its SLOs.

    Runs via ``pytest benchmarks/test_openloop_serve.py -k smoke`` in the
    perf-smoke job; the cell's events/s is gated by ``bench-diff``
    against BENCH_BASELINE.json, and the simulated deadline-miss rate —
    a pure function of the seeded workload — must stay under
    ``SMOKE_MISS_RATE_CEILING``.
    """
    store, plans = fleet
    best, report = _serve_fleet(store, plans, SMOKE_QUERIES, SMOKE_RATE)
    for _ in range(2):  # best of 3: CI workers inflate ~100 ms runs
        stats, again = _serve_fleet(store, plans, SMOKE_QUERIES, SMOKE_RATE)
        assert again == report  # the simulation itself must replay
        if stats.wall_seconds < best.wall_seconds:
            best = stats
    fields = _cell_fields(best, report, SMOKE_QUERIES, SMOKE_RATE)
    fields["wall_budget_seconds"] = SMOKE_WALL_BUDGET
    fields["miss_rate_ceiling"] = SMOKE_MISS_RATE_CEILING
    bench_metrics(SMOKE_CELL, **fields)
    assert best.wall_seconds < SMOKE_WALL_BUDGET
    assert report.overall.miss_rate <= SMOKE_MISS_RATE_CEILING
    assert report.overall.mean_queued < SLO_SECONDS
