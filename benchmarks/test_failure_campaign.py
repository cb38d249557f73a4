"""Chaos smoke: a pinned failure campaign served with zero data loss.

The replicated-shard plane promises that a shard failure inside an
open-loop serve costs latency, never data: reads reroute to surviving
replicas, destroyed copies rebuild in background jobs, and the SLO
report stays measurable throughout.  This module pins one small,
fully deterministic campaign — fail one shard mid-serve, degrade a
second, recover both before the horizon — and gates three things:

* **zero data loss** (``availability.data_lost`` is false and every
  destroyed replica is rebuilt);
* a **deadline-miss-rate ceiling** for the degraded window — the miss
  rate is a pure function of the seeded workload and campaign, so the
  bound holds on any host;
* **replay equality** — two fresh stores serve the identical campaign
  to identical outcomes (rebuild commits persist placement changes, so
  each run builds its own store), and the rescan-loop parity oracle
  (``tests/oracles``) serves it to bit-identical outcomes.

The ``failures/smoke_rebuild`` cell lands in BENCH.json with the run's
events/s; the CI chaos-smoke job gates it through ``bench-diff``
against the committed baseline like the other smoke cells.
"""

from repro.core.store import VStore
from repro.operators.library import default_library
from repro.query.workload import ArrivalSpec, QueryMixEntry, TenantSpec

from oracles import reference_loop

SHARDS = 4
REPLICATION = 2
SEGMENTS_PER_STREAM = 8
HORIZON = 120.0
SEED = 1234

#: Shard 0 dies and shard 1 limps at 6x early in the serve; both return
#: well before the horizon so the tail of the workload runs healthy.
CAMPAIGN = "fail@5:0,degrade@5:1:6,recover@30:0,recover@30:1"

#: The simulated miss rate under this campaign is deterministic; the
#: ceiling leaves headroom over the measured value without letting a
#: degraded-routing regression (which inflates misses across the whole
#: degraded window) slip through.
MISS_RATE_CEILING = 0.05
WALL_BUDGET = 5.0
CELL = "failures/smoke_rebuild"

TENANTS = [
    TenantSpec(name="gold", arrivals=ArrivalSpec(rate=1.0),
               mix=(QueryMixEntry(query="B", dataset="jackson"),),
               slo_seconds=8.0),
    TenantSpec(name="bronze", arrivals=ArrivalSpec(rate=0.75),
               mix=(QueryMixEntry(query="A", dataset="jackson"),)),
]


def _fresh_store(tmp_path_factory):
    library = default_library(
        names=("Diff", "S-NN", "NN", "Motion", "License", "OCR")
    )
    store = VStore(workdir=str(tmp_path_factory.mktemp("chaos")),
                   library=library, shards=SHARDS,
                   replication=REPLICATION)
    store.configure()
    store.ingest("jackson", n_segments=SEGMENTS_PER_STREAM)
    return store


def _serve_campaign(tmp_path_factory):
    store = _fresh_store(tmp_path_factory)
    report = store.serve(TENANTS, horizon=HORIZON, seed=SEED,
                         failures=CAMPAIGN, cache=None, metrics=None)
    store.close()
    return report


def _outcome_key(report):
    return [(o.session.qid, o.session.label, round(o.session.finished_at, 9),
             round(o.latency, 9)) for o in report.outcomes]


def test_chaos_smoke_rebuild(bench_metrics, tmp_path_factory):
    report = _serve_campaign(tmp_path_factory)
    avail = report.availability
    overall = report.slo.overall
    best = report.stats

    # Zero data loss: f=1 < k=2, and every destroyed copy was rebuilt.
    assert not avail.data_lost
    assert avail.lost_keys == 0
    assert avail.replicas_rebuilt > 0
    assert avail.rebuild_jobs == avail.replicas_rebuilt
    assert avail.rebuild_seconds is not None

    # The degraded window slowed queries, within the deterministic bound.
    assert avail.degraded_queries > 0
    assert overall.miss_rate <= MISS_RATE_CEILING

    # Replay equality (and best-of-3 wall: CI workers inflate short
    # runs): every fresh store serves the identical campaign.
    for _ in range(2):
        again = _serve_campaign(tmp_path_factory)
        assert _outcome_key(again) == _outcome_key(report)
        if again.stats.wall_seconds < best.wall_seconds:
            best = again.stats

    assert best.wall_seconds < WALL_BUDGET
    bench_metrics(
        CELL,
        core=best.core,
        shards=SHARDS,
        replication=REPLICATION,
        queries=overall.n_queries,
        events=best.events,
        events_per_second=round(best.events_per_second),
        wall_seconds=round(best.wall_seconds, 4),
        wall_budget_seconds=WALL_BUDGET,
        sim_makespan=round(best.makespan, 3),
        miss_rate=round(overall.miss_rate, 4),
        miss_rate_ceiling=MISS_RATE_CEILING,
        degraded_queries=avail.degraded_queries,
        degraded_slowdown=round(avail.degraded_slowdown, 4),
        replicas_rebuilt=avail.replicas_rebuilt,
        rebuilt_bytes=round(avail.rebuilt_bytes),
        rebuild_seconds=round(avail.rebuild_seconds, 4),
        lost_keys=avail.lost_keys,
    )


def test_campaign_cores_agree(tmp_path_factory):
    """The heap core and the rescan-loop oracle serve the campaign
    bit-identically: unrounded finish times, latencies and makespan."""
    def exact_key(report):
        return [(o.session.qid, o.session.label, o.session.finished_at,
                 o.latency) for o in report.outcomes]

    heap = _serve_campaign(tmp_path_factory)
    with reference_loop():
        ref = _serve_campaign(tmp_path_factory)
    assert ref.stats.core == "reference"
    assert exact_key(heap) == exact_key(ref)
    assert heap.stats.makespan == ref.stats.makespan
