"""Open-loop serving: arrivals on the simulated timeline, admission
control, tenant quotas and weights, honest latency, and the SLO report.

The closed-loop contract (everything at t=0, no admission) is pinned by
the golden traces; these tests pin the open-loop extension — and the
parity property at the bottom replays random multi-tenant open-loop
fleets, background jobs and failure events included, through the
production executor and the rescan-loop oracle (``tests/oracles``),
requiring bit-identical traces and per-query accounting.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.slo import format_slo_table, percentile, slo_report
from repro.cache.plane import CacheConfig, CachePlane
from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.errors import QueryError
from repro.operators.library import default_library
from repro.query.cascade import QUERY_B, cascade_for
from repro.query.scheduler import (
    AdmissionConfig,
    BackgroundJob,
    OperatorContextPool,
    ResourceTask,
)
from repro.query.workload import ArrivalSpec, QueryMixEntry, TenantSpec
from repro.storage.disk import DiskBandwidthPool
from repro.storage.failures import FAILURE_ACTIONS, FailureEvent

from oracles import reference_loop


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    lib = default_library(names=("Diff", "S-NN", "NN", "Motion", "License",
                                 "OCR"))
    s = VStore(workdir=str(tmp_path_factory.mktemp("openloop")), library=lib)
    s.configure()
    s.ingest("jackson", n_segments=4)
    s.ingest("dashcam", n_segments=4)
    yield s
    s.close()


def make_ex(store, **kwargs):
    """Executor without cache/metrics: repeat admissions stay identical."""
    return store.executor(cache=None, metrics=None, **kwargs)


def admit_b(ex, **kwargs):
    return ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 16.0, **kwargs)


def tenant_spec(name, **kwargs):
    """A tenant for ``ConcurrentExecutor(tenants=...)``, which reads only
    its ``weight`` and ``quota``; the mix is what ``serve`` would draw."""
    mix = (QueryMixEntry(query="B", dataset="dashcam"),)
    return TenantSpec(name, mix=mix, **kwargs)


# ---------------------------------------------------------------------------
# Arrivals on the simulated timeline
# ---------------------------------------------------------------------------


def test_closed_loop_reduction_is_bit_identical(store):
    """arrival=now and tenant=None must reduce exactly to the closed-loop
    flow the golden traces pin — same trace, same floats."""
    def run(**admit_kwargs):
        ex = make_ex(store, decoder_pool=DecoderPool(1))
        for _ in range(3):
            admit_b(ex, **admit_kwargs)
        out = ex.run()
        return ex.trace_events, [
            (o.session.finished_at, o.latency, o.session.waited_seconds)
            for o in out
        ]

    assert run() == run(arrival=0.0)


def test_future_arrival_waits_and_latency_is_honest(store):
    ex = make_ex(store)
    session = admit_b(ex, arrival=5.0)
    baseline_ex = make_ex(store)
    admit_b(baseline_ex)
    service = baseline_ex.run()[0].latency

    (outcome,) = ex.run()
    assert session.entered_at == 5.0
    assert session.finished_at == pytest.approx(5.0 + service)
    # Honest latency: finish - arrival, not finish - run start.
    assert outcome.latency == pytest.approx(service)
    assert outcome.queued_seconds == 0.0
    # The gap before the arrival is accounted idle time, so the clock
    # invariant sum(categories) == now still holds.
    assert ex.clock.spent("idle") >= 5.0


def test_arrival_in_the_simulated_past_is_rejected(store):
    """So is every timeline input the event loop cannot order: a
    non-finite arrival, or a NaN deadline, for queries and jobs alike."""
    job = BackgroundJob(name="reencode", stream="dashcam", kind="reencode",
                        tasks=JOB_TASKS[:1])
    ex = make_ex(store)
    ex.clock.advance_to(5.0, "idle")
    for arrival in (1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(QueryError):
            admit_b(ex, arrival=arrival)
        with pytest.raises(QueryError):
            ex.admit_job(job, arrival=arrival)
    with pytest.raises(QueryError):
        admit_b(ex, deadline=float("nan"))
    with pytest.raises(QueryError):
        ex.admit_job(job, deadline=float("nan"))
    assert ex.sessions == []


def test_arrivals_interleave_with_execution(store):
    """A query arriving mid-run starts at its arrival instant, not at the
    end of the already-running fleet."""
    ex = make_ex(store)
    admit_b(ex)
    late = admit_b(ex, arrival=0.5)
    out = ex.run()
    assert late.entered_at == 0.5
    # Uncontended pools: the late query is unaffected by the first.
    assert out[1].latency == pytest.approx(out[0].latency)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


def test_admission_bounds_in_flight(store):
    ex = make_ex(store, admission=AdmissionConfig(max_in_flight=2))
    for _ in range(6):
        admit_b(ex)
    out = ex.run()
    assert len(out) == 6
    timeline = ex.admission_timeline
    assert timeline, "admission control must sample its timeline"
    assert max(f for _, _, f in timeline) == 2
    assert max(q for _, q, _ in timeline) == 4
    assert timeline[-1][1:] == (0, 0)  # drained clean
    # Queue wait is real latency: the queued queries carry it.
    assert sum(1 for o in out if o.queued_seconds > 0) == 4


def test_latency_includes_admission_queue_wait(store):
    ex = make_ex(store, admission=AdmissionConfig(max_in_flight=1))
    admit_b(ex)
    admit_b(ex)
    first, second = ex.run()
    assert first.queued_seconds == 0.0
    assert second.queued_seconds == pytest.approx(first.latency)
    assert second.latency == pytest.approx(first.latency * 2)
    assert second.session.entered_at == first.session.finished_at


def test_edf_admission_admits_tightest_deadline_first(store):
    ex = make_ex(
        store,
        admission=AdmissionConfig(max_in_flight=1, queue_policy="edf"),
    )
    blocker = admit_b(ex)
    by_deadline = {
        30.0: admit_b(ex, deadline=30.0),
        10.0: admit_b(ex, deadline=10.0),
        20.0: admit_b(ex, deadline=20.0),
    }
    ex.run()
    entered = sorted(by_deadline, key=lambda d: by_deadline[d].entered_at)
    assert entered == [10.0, 20.0, 30.0]
    assert blocker.entered_at == 0.0


def test_arrival_order_admission_ignores_deadlines(store):
    ex = make_ex(store, admission=AdmissionConfig(max_in_flight=1))
    admit_b(ex)
    urgent_last = [admit_b(ex, deadline=30.0), admit_b(ex, deadline=10.0)]
    ex.run()
    assert urgent_last[0].entered_at < urgent_last[1].entered_at


def test_wfair_admission_shares_by_weight(store):
    """Capacity 1, gold weighted 10x: gold's backlog drains almost
    entirely before bronze's second query gets a slot."""
    ex = make_ex(
        store,
        admission=AdmissionConfig(max_in_flight=1, queue_policy="wfair"),
        tenants=[tenant_spec("gold", weight=10.0), tenant_spec("bronze")],
    )
    admit_b(ex)  # qid 0: warm-up blocker, anonymous tenant
    sessions = [admit_b(ex, tenant="gold") for _ in range(3)]
    sessions += [admit_b(ex, tenant="bronze") for _ in range(3)]
    ex.run()
    order = [s.qid for s in sorted(sessions, key=lambda s: s.entered_at)]
    # gold1 (tie on zero attained service, admission order breaks it),
    # bronze1 (gold now has attained service), then gold's remaining
    # backlog at 1/10th the accounted rate, then bronze drains.
    assert order == [1, 4, 2, 3, 5, 6]


@pytest.mark.parametrize("max_in_flight, order", [
    (1, [0, 1, 4, 2, 3, 7, 5, 6, 8]),
    (2, [0, 1, 4, 5, 2, 6, 3, 8, 7]),
])
def test_wfair_admission_reads_weight_and_quota_from_the_record(
        store, max_in_flight, order):
    """Gold (weight 4, quota 1) and bronze queue behind an anonymous
    blocker, a late query each arriving at 0.5 s, under the FIFO executor
    policy.  The entry orders pinned here are the ones the same fleet
    gave when weight and quota were ``AdmissionConfig`` fields; with two
    slots, gold's quota keeps its queries from overlapping."""
    ex = make_ex(
        store,
        admission=AdmissionConfig(max_in_flight=max_in_flight,
                                  queue_policy="wfair"),
        tenants=[tenant_spec("gold", weight=4.0, quota=1)],
    )
    admit_b(ex)
    for name in ("gold",) * 3 + ("bronze",) * 3:
        admit_b(ex, tenant=name)
    for name in ("gold", "bronze"):
        ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 8.0, tenant=name,
                 arrival=0.5)
    out = ex.run()
    assert [o.session.qid for o in sorted(
        out, key=lambda o: (o.session.entered_at, o.session.qid))] == order
    gold = sorted((o.session for o in out if o.session.tenant == "gold"),
                  key=lambda s: s.entered_at)
    for prev, nxt in zip(gold, gold[1:]):
        assert prev.finished_at <= nxt.entered_at


def test_tenant_quota_never_blocks_other_tenants(store):
    ex = make_ex(
        store,
        admission=AdmissionConfig(max_in_flight=4),
        tenants=[tenant_spec("gold", quota=1)],
    )
    gold = [admit_b(ex, tenant="gold") for _ in range(3)]
    bronze = [admit_b(ex, tenant="bronze") for _ in range(3)]
    ex.run()
    # Bronze is admitted instantly: gold's backlog holds one slot, not
    # the head of a global queue.
    assert all(s.entered_at == 0.0 for s in bronze)
    gold.sort(key=lambda s: s.entered_at)
    for prev, nxt in zip(gold, gold[1:]):
        assert prev.finished_at <= nxt.entered_at


def test_background_jobs_bypass_admission(store):
    """Evolution jobs have no arrival semantics: they run alongside the
    foreground without consuming admission slots."""
    job = BackgroundJob(
        name="erode", stream="dashcam", kind="erode",
        tasks=(ResourceTask(kind="retrieve", resource="disk", units=1,
                            duration=0.25, category="disk",
                            operator="erode"),),
    )
    ex = make_ex(store, admission=AdmissionConfig(max_in_flight=1))
    admit_b(ex)
    admit_b(ex)
    ex.admit_job(job)
    out = ex.run()
    jobs = [o for o in out if o.session.klass == 1]
    assert len(jobs) == 1
    # The job started immediately even though the single admission slot
    # was held by the first query.
    assert jobs[0].session.entered_at == 0.0
    assert max(f for _, _, f in ex.admission_timeline) == 1


@pytest.mark.xfail(strict=True, raises=QueryError, reason=(
    "known defect: single-flight dedup is planned in admission (qid) "
    "order, so a follower that admission control lets in before its "
    "queued leader parks on it forever; both loops deadlock"))
def test_single_flight_follower_never_waits_on_a_queued_leader(store):
    ex = store.executor(cache=CachePlane(CacheConfig()), metrics=None,
                        admission=AdmissionConfig(max_in_flight=1))
    admit_b(ex, arrival=0.25)  # the leader of every shared read
    admit_b(ex, arrival=0.0)  # enters first and follows the queued leader
    assert len(ex.run()) == 2


def test_admission_config_validation():
    with pytest.raises(QueryError):
        AdmissionConfig(max_in_flight=0)
    with pytest.raises(QueryError):
        AdmissionConfig(queue_policy="lifo")


def _import_fifo_policy():
    from repro.query.scheduler import FIFOPolicy  # noqa: F401


#: Scheduling vocabulary that went: policies are names, a tenant's weight
#: and quota live only on its record, and single-flight dedup comes with
#: every cache plane.
REMOVED = {
    "FIFOPolicy-import": (ImportError, _import_fifo_policy),
    "AdmissionConfig-tenant_weights": (
        TypeError, lambda: AdmissionConfig(tenant_weights={"gold": 2.0})),
    "AdmissionConfig-tenant_quotas": (
        TypeError, lambda: AdmissionConfig(tenant_quotas={"gold": 1})),
    "CacheConfig-single_flight": (
        TypeError, lambda: CacheConfig(single_flight=False)),
    "CacheConfig-ram_bandwidth": (
        TypeError, lambda: CacheConfig(ram_bandwidth=1e9)),
}


@pytest.mark.parametrize("error, call", list(REMOVED.values()),
                         ids=list(REMOVED))
def test_removed_scheduling_and_cache_options_raise(error, call):
    with pytest.raises(error):
        call()


def test_duplicate_tenant_records_are_rejected(store):
    with pytest.raises(QueryError, match="duplicate tenant"):
        make_ex(store, tenants=[tenant_spec("gold"),
                                tenant_spec("gold", weight=2.0)])


# ---------------------------------------------------------------------------
# SLO analysis
# ---------------------------------------------------------------------------


def test_percentile_is_exact_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.0) == 1
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.95) == 95
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_slo_report_quantiles_and_misses(store):
    ex = make_ex(store, admission=AdmissionConfig(max_in_flight=1))
    admit_b(ex, tenant="gold", deadline=1e-6)  # unmeetable
    admit_b(ex, tenant="gold", deadline=1e9)
    admit_b(ex, tenant="bronze")
    out = ex.run()
    report = slo_report(out, queue_timeline=ex.admission_timeline,
                        makespan=ex.stats().makespan)
    assert report.overall.n_queries == 3
    assert [t.tenant for t in report.tenants] == ["bronze", "gold"]
    gold = report.tenants[1]
    assert (gold.deadline_total, gold.deadline_misses) == (2, 1)
    assert gold.miss_rate == 0.5
    assert report.tenants[0].miss_rate == 0.0  # no deadlines carried
    o = report.overall
    assert o.p50_latency <= o.p95_latency <= o.p99_latency
    assert o.mean_queued > 0.0
    assert 0.0 < report.fairness <= 1.0
    assert report.peak_in_flight == 1
    assert report.throughput_qps == pytest.approx(3 / report.makespan)
    table = format_slo_table(report)
    assert "gold" in table and "bronze" in table and "q/s" in table


def test_slo_report_requires_queries():
    with pytest.raises(ValueError):
        slo_report([])


def test_serve_end_to_end_is_deterministic(store):
    tenants = [
        TenantSpec(name="gold", arrivals=ArrivalSpec(rate=0.4),
                   mix=(QueryMixEntry(query="B", dataset="dashcam"),),
                   slo_seconds=8.0, weight=2.0),
        TenantSpec(name="bronze", arrivals=ArrivalSpec(rate=0.4),
                   mix=(QueryMixEntry(query="B", dataset="jackson"),),
                   quota=2),
    ]

    def run():
        report = store.serve(
            tenants, horizon=40.0, seed=9,
            admission=AdmissionConfig(max_in_flight=4, queue_policy="edf"),
            policy="wfair",
            decoder_pool=DecoderPool(1),
        )
        return report

    a, b = run(), run()
    assert [t.tenant for t in a.slo.tenants] == ["bronze", "gold"]
    assert a.slo.overall.n_queries == len(a.outcomes)
    assert a.slo.overall.n_queries > 5
    # Same tenants, same seed: the whole serving run replays bit-equal.
    key = lambda r: [(o.session.qid, o.session.finished_at, o.latency,
                      o.queued_seconds) for o in r.outcomes]
    assert key(a) == key(b)
    assert a.slo == b.slo
    assert a.stats.makespan > 0


def test_serve_phases_account_for_its_host_time(store):
    """RunResult.phases (workload, plan, admit, lower, run, observe) are
    non-negative and add up to within 3% of the host time around a warm
    serve().  The
    least gap of three runs is taken, since a preempted process only
    adds, and each report is dropped before the next serve() so that
    freeing it is not charged to the next run's outer timer."""
    from time import perf_counter

    tenants = [
        TenantSpec(name="gold", arrivals=ArrivalSpec(rate=2.0),
                   mix=(QueryMixEntry(query="B", dataset="dashcam"),
                        QueryMixEntry(query="B", dataset="jackson")),
                   slo_seconds=8.0),
    ]
    serve = lambda: store.serve(tenants, horizon=20.0, seed=4,
                                decoder_pool=DecoderPool(1))
    serve()  # cold planning would dwarf every other phase
    gaps = []
    for _ in range(3):
        wall0 = perf_counter()
        report = serve()
        outer = perf_counter() - wall0
        assert list(report.phases) == ["workload", "plan", "admit",
                                       "lower", "run", "observe"]
        assert all(seconds >= 0.0 for seconds in report.phases.values())
        assert report.phases["workload"] > 0.0
        # No plan outlives a run, so a warm serve() still plans (over
        # the store's warm stage-outcome memo) and lowers.
        assert report.phases["plan"] == report.stats.plan_wall_seconds > 0
        assert report.phases["lower"] == report.stats.lower_wall_seconds > 0
        gaps.append(abs(outer - sum(report.phases.values())) / outer)
        del report
    assert min(gaps) <= 0.03
    store.execute_many([dict(query="B", dataset="dashcam", accuracy=0.9,
                             t0=0.0, t1=16.0)])
    assert store.last_run.phases["workload"] == 0.0


def test_admission_rejects_unknown_spec_keys(store):
    """A spec takes exactly admit()'s parameters; any other key raises."""
    import inspect

    from repro.core.store import _SPEC_KEYS
    from repro.query.scheduler import ConcurrentExecutor

    admit = inspect.signature(ConcurrentExecutor.admit).parameters
    assert _SPEC_KEYS == set(admit) - {"self"}
    spec = dict(query="B", dataset="dashcam", accuracy=0.9, t0=0.0, t1=16.0)
    with pytest.raises(TypeError, match="colour"):
        store.execute_many([spec, dict(spec, colour="red")])


@pytest.fixture(scope="module")
def nn_store(tmp_path_factory):
    s = VStore(workdir=str(tmp_path_factory.mktemp("wfair")),
               library=default_library(names=("Diff", "S-NN", "NN")))
    s.configure()
    s.ingest("jackson", n_segments=8)
    yield s
    s.close()


def test_serve_wfair_applies_tenant_weight(nn_store):
    """``serve(policy="wfair")`` ranks by each TenantSpec's weight.

    Two tenants run query A over 8 segments, each arriving at 1 q/s for
    30 s, on one decoder, one disk channel and two operator contexts.
    Weighting gold 8x moves every outcome and cuts gold's p50 from
    9.53 s to 3.25 s: the numbers the same run gave when the weight had
    to be passed to the policy object, which ``serve`` never did.
    """
    mix = (QueryMixEntry(query="A", dataset="jackson", t0=0.0, t1=64.0),)

    def run(gold_weight):
        tenants = [TenantSpec(name, arrivals=ArrivalSpec(rate=1.0), mix=mix,
                              weight=weight)
                   for name, weight in (("gold", gold_weight),
                                        ("bronze", 1.0))]
        result = nn_store.serve(
            tenants, horizon=30.0, seed=1, policy="wfair",
            disk_pool=DiskBandwidthPool(1), decoder_pool=DecoderPool(1),
            operator_pool=OperatorContextPool(2),
        )
        return ([(o.session.qid, o.session.finished_at)
                 for o in result.outcomes],
                {t.tenant: t.p50_latency for t in result.slo.tenants})

    (flat, flat_p50), (weighted, weighted_p50) = run(1.0), run(8.0)
    assert len(flat) == len(weighted) == 66
    assert flat != weighted
    assert flat_p50["gold"] == pytest.approx(9.5349, abs=1e-4)
    assert weighted_p50["gold"] == pytest.approx(3.2541, abs=1e-4)
    assert weighted_p50["bronze"] > flat_p50["bronze"]


# ---------------------------------------------------------------------------
# Parity with the rescan-loop oracle on open-loop fleets
# ---------------------------------------------------------------------------


POLICIES = ("fifo", "fair", "edf", "wfair")


#: Instants arrivals, job arrivals and failure events are drawn from.
TIMELINE = (0.0, 0.25, 0.5, 1.0, 4.0)

#: Background-job task shapes (disk reads/writes, a decoder transcode).
JOB_TASKS = (
    ResourceTask(kind="read", resource="disk", units=1, duration=0.25,
                 category="disk", operator="reencode"),
    ResourceTask(kind="transcode", resource="decoder", units=1,
                 duration=0.5, category="decode", operator="reencode"),
    ResourceTask(kind="write", resource="disk", units=1, duration=1.0,
                 category="disk", operator="reencode"),
)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_heap_core_matches_reference_on_open_loop_fleets(store, data):
    """Random mixed-tenant open-loop fleet, production executor vs the
    rescan-loop oracle, every trace byte and per-query float equal.

    One property covers every fleet feature at once.  Background jobs
    exercise the scheduling-class-1 priority band, and observational
    failure events the failure timeline; both draw their instants from
    the arrival grid so they collide with arrivals and completions.  A
    cache plane adds single-flight dependency edges, and gangs of 1-3
    operator contexts park on a bounded operator pool.  Gold's weight and
    quota come through its tenant record, which both the ``"wfair"``
    executor key and the admission queue read.
    """
    policy = data.draw(st.sampled_from(POLICIES), label="policy")
    decoder_ctx = data.draw(st.sampled_from((None, 1, 2)), label="decoder")
    op_ctx = data.draw(st.sampled_from((None, 2, 4)), label="operators")
    with_cache = data.draw(st.booleans(), label="cache")
    if data.draw(st.booleans(), label="admission"):
        admission = AdmissionConfig(
            max_in_flight=data.draw(st.sampled_from((1, 2, 4))),
            queue_policy=data.draw(
                st.sampled_from(("arrival", "edf", "wfair"))),
        )
    else:
        admission = None
    tenants = [tenant_spec(
        "gold",
        weight=data.draw(st.sampled_from((1.0, 2.0, 4.0)), label="weight"),
        quota=data.draw(st.sampled_from((None, 1)), label="quota"),
    )]
    n = data.draw(st.integers(1, 5), label="queries")
    admissions = []
    for _ in range(n):
        qname = data.draw(st.sampled_from(("A", "B")))
        dataset = {"A": "jackson", "B": "dashcam"}[qname]
        # Coarse grid so arrivals collide with completions and each other.
        arrival = data.draw(st.sampled_from(TIMELINE))
        tenant = data.draw(st.sampled_from((None, "gold", "bronze")))
        deadline = data.draw(st.sampled_from((None, 2.0, 10.0)))
        contexts = data.draw(st.integers(1, 3))
        admissions.append((qname, dataset, arrival, tenant, deadline,
                           contexts))
    jobs = [
        (BackgroundJob(name=f"job{i}", stream="dashcam", kind="reencode",
                       tasks=tuple(data.draw(st.lists(
                           st.sampled_from(JOB_TASKS), min_size=1,
                           max_size=3)))),
         data.draw(st.sampled_from((None,) + TIMELINE)))
        for i in range(data.draw(st.integers(0, 2), label="jobs"))
    ]
    events = [
        FailureEvent(t=data.draw(st.sampled_from(TIMELINE)),
                     action=data.draw(st.sampled_from(FAILURE_ACTIONS)),
                     shard=0)
        for _ in range(data.draw(st.integers(0, 2), label="events"))
    ]

    def run():
        # A fresh cache plane per run plans identical dedup edges.
        ex = store.executor(
            cache=CachePlane(CacheConfig()) if with_cache else None,
            metrics=None,
            policy=policy,
            decoder_pool=DecoderPool(decoder_ctx) if decoder_ctx else None,
            operator_pool=OperatorContextPool(op_ctx) if op_ctx else None,
            admission=admission,
            tenants=tenants,
        )
        for qname, dataset, arrival, tenant, deadline, contexts in admissions:
            ex.admit(cascade_for(qname), dataset, 0.9, 0.0, 16.0,
                     arrival=arrival, tenant=tenant, deadline=deadline,
                     contexts=contexts)
        for job, arrival in jobs:
            ex.admit_job(job, arrival=arrival)
        ex.schedule_failures(events)  # no array: trace and clock only
        try:
            return ex, ex.run(), None
        except QueryError as err:
            return ex, None, str(err)

    heap_ex, heap_out, heap_err = run()
    with reference_loop():
        ref_ex, ref_out, ref_err = run()

    # Parity covers the error path too.  A cache plane under admission
    # control can deadlock both loops (the known defect pinned by
    # test_single_flight_follower_never_waits_on_a_queued_leader); they
    # must then fail with the same message.
    assert heap_err == ref_err
    if heap_err is not None:
        assert with_cache and admission is not None
        assert heap_err.startswith("deadlock: ")
        return
    assert heap_ex.trace_events == ref_ex.trace_events
    assert heap_ex.admission_timeline == ref_ex.admission_timeline
    if with_cache:
        # Only the production loop counts wakeups: the rescan oracle
        # rediscovers ready followers instead of waking them.
        assert (replace(heap_ex.cache.stats(), single_flight_wakeups=0)
                == ref_ex.cache.stats())
    for h, r in zip(heap_out, ref_out):
        assert h.session.finished_at == r.session.finished_at
        assert h.session.entered_at == r.session.entered_at
        assert h.latency == r.latency
        assert h.queued_seconds == r.queued_seconds
        assert h.session.service_by_resource == r.session.service_by_resource
    heap_stats, ref_stats = heap_ex.stats(), ref_ex.stats()
    assert heap_stats.makespan == ref_stats.makespan
    assert heap_stats.busy_seconds == ref_stats.busy_seconds
    assert heap_stats.events == ref_stats.events
