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

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.slo import format_slo_table, percentile, slo_report
from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.errors import QueryError
from repro.operators.library import default_library
from repro.query.cascade import QUERY_B, cascade_for
from repro.query.scheduler import (
    AdmissionConfig,
    BackgroundJob,
    DeadlinePolicy,
    FIFOPolicy,
    FairSharePolicy,
    ResourceTask,
    WeightedFairSharePolicy,
)
from repro.query.workload import ArrivalSpec, QueryMixEntry, TenantSpec
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
        admission=AdmissionConfig(
            max_in_flight=1, queue_policy="wfair",
            tenant_weights={"gold": 10.0, "bronze": 1.0},
        ),
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


def test_tenant_quota_never_blocks_other_tenants(store):
    ex = make_ex(
        store,
        admission=AdmissionConfig(max_in_flight=4,
                                  tenant_quotas={"gold": 1}),
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


def test_admission_config_validation():
    with pytest.raises(QueryError):
        AdmissionConfig(max_in_flight=0)
    with pytest.raises(QueryError):
        AdmissionConfig(queue_policy="lifo")
    with pytest.raises(QueryError):
        AdmissionConfig(tenant_quotas={"t": 0})
    with pytest.raises(QueryError):
        AdmissionConfig(tenant_weights={"t": 0.0})
    with pytest.raises(QueryError):
        WeightedFairSharePolicy(weights={"t": -1.0})


def test_fastpath_disqualified_for_open_loop_fleets(store):
    """The vectorized core handles only the closed-loop regime; every
    open-loop feature must force the general heap core."""
    def core_for(**kwargs):
        admission = kwargs.pop("admission", None)
        ex = make_ex(store, admission=admission)
        admit_b(ex, **kwargs)
        ex.run()
        return ex.stats().core

    assert core_for() == "fastpath"  # control: this fleet qualifies
    assert core_for(arrival=2.0) == "heap"
    assert core_for(tenant="gold") == "heap"
    assert core_for(admission=AdmissionConfig(max_in_flight=8)) == "heap"


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
            policy=WeightedFairSharePolicy(),
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
    # Quotas/weights flow from the TenantSpec into the admission config.
    assert a.stats.makespan > 0


# ---------------------------------------------------------------------------
# Parity with the rescan-loop oracle on open-loop fleets
# ---------------------------------------------------------------------------


POLICIES = (
    FIFOPolicy,
    FairSharePolicy,
    DeadlinePolicy,
    lambda: WeightedFairSharePolicy(weights={"gold": 2.0}),
)


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

    Background jobs exercise the scheduling-class-1 priority band, and
    observational failure events the failure timeline cursor; both draw
    their instants from the arrival grid so they collide with arrivals
    and completions.
    """
    policy_factory = data.draw(st.sampled_from(POLICIES), label="policy")
    decoder_ctx = data.draw(st.sampled_from((None, 1, 2)), label="decoder")
    if data.draw(st.booleans(), label="admission"):
        admission = AdmissionConfig(
            max_in_flight=data.draw(st.sampled_from((1, 2, 4))),
            queue_policy=data.draw(
                st.sampled_from(("arrival", "edf", "wfair"))),
            tenant_quotas=data.draw(st.sampled_from((None, {"gold": 1}))),
            tenant_weights=data.draw(
                st.sampled_from((None, {"gold": 4.0}))),
        )
    else:
        admission = None
    n = data.draw(st.integers(1, 5), label="queries")
    admissions = []
    for _ in range(n):
        qname = data.draw(st.sampled_from(("A", "B")))
        dataset = {"A": "jackson", "B": "dashcam"}[qname]
        # Coarse grid so arrivals collide with completions and each other.
        arrival = data.draw(st.sampled_from(TIMELINE))
        tenant = data.draw(st.sampled_from((None, "gold", "bronze")))
        deadline = data.draw(st.sampled_from((None, 2.0, 10.0)))
        admissions.append((qname, dataset, arrival, tenant, deadline))
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
        ex = make_ex(
            store,
            policy=policy_factory(),
            decoder_pool=DecoderPool(decoder_ctx) if decoder_ctx else None,
            admission=admission,
        )
        for qname, dataset, arrival, tenant, deadline in admissions:
            ex.admit(cascade_for(qname), dataset, 0.9, 0.0, 16.0,
                     arrival=arrival, tenant=tenant, deadline=deadline)
        for job, arrival in jobs:
            ex.admit_job(job, arrival=arrival)
        ex.schedule_failures(events)  # no array: trace and clock only
        return ex, ex.run()

    heap_ex, heap_out = run()
    with reference_loop():
        ref_ex, ref_out = run()

    assert heap_ex.trace_events == ref_ex.trace_events
    assert heap_ex.admission_timeline == ref_ex.admission_timeline
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
