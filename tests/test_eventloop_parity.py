"""The executor's event loop: parity with the rescan-loop oracle, its
scheduling mechanics pinned at executor level, and plan caching.

The loop's whole contract is *bit-identical outcomes*: the golden traces
pin it against committed bytes, and the Hypothesis property here replays
random fleets — policies x shard widths x pool bounds x cache — through
the production executor and the oracle (``tests/oracles``) and requires
the full trace, every per-query float, and the pool accounting to agree
exactly.  Fleets the retired closed-loop fast path accepted are also
replayed through it (``fastpath_loop``).

The mechanics classes keep the names of the structures the loop's flat
arrays replaced — the ready-heap index, the completion heap, the
dependency counters — and drive each behaviour through hand-built plans
whose durations are chosen so the behaviour decides the schedule, then
require the oracle to produce the same trace.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.plane import CacheConfig, CachePlane
from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.errors import QueryError
from repro.operators.library import default_library
from repro.query.cascade import QUERY_A, QUERY_B, cascade_for
from repro.query.scheduler import (
    BackgroundJob,
    ConcurrentExecutor,
    DeadlinePolicy,
    FIFOPolicy,
    FairSharePolicy,
    OperatorContextPool,
    QueryPlan,
    ResourceTask,
    StagePlan,
    WeightedFairSharePolicy,
)
from repro.storage.disk import DiskBandwidthPool

from oracles import fastpath_loop, reference_loop


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """One fleet per shard width the parity property samples from."""
    lib = default_library(names=("Diff", "S-NN", "NN", "Motion", "License",
                                 "OCR"))
    built = {}
    for shards in (1, 4):
        store = VStore(workdir=str(tmp_path_factory.mktemp(f"par{shards}")),
                       library=lib, shards=shards)
        store.configure()
        store.ingest("jackson", n_segments=4)
        store.ingest("dashcam", n_segments=4)
        built[shards] = store
    yield built
    for store in built.values():
        store.close()


# ---------------------------------------------------------------------------
# The parity property
# ---------------------------------------------------------------------------


POLICIES = (FIFOPolicy, FairSharePolicy, DeadlinePolicy)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_heap_core_matches_reference_on_random_fleets(stores, data):
    """Random fleet, production loop vs the oracles, equal to the last bit.

    Every example runs through the production loop and the rescan-loop
    oracle; a fleet the retired fast path accepts (no cache plane, FIFO
    or EDF, every session single-context) runs through it as well.
    """
    shards = data.draw(st.sampled_from((1, 4)), label="shards")
    store = stores[shards]
    policy_cls = data.draw(st.sampled_from(POLICIES), label="policy")
    with_cache = data.draw(st.booleans(), label="cache")
    disk_channels = data.draw(st.sampled_from((None, 1, 2)), label="disk")
    decoder_ctx = data.draw(st.sampled_from((None, 1, 2)), label="decoder")
    op_ctx = data.draw(st.sampled_from((None, 2, 4)), label="operators")
    n = data.draw(st.integers(1, 5), label="queries")
    admissions = []
    for _ in range(n):
        qname = data.draw(st.sampled_from(("A", "B")))
        dataset = {"A": "jackson", "B": "dashcam"}[qname]
        span = data.draw(st.sampled_from((8.0, 16.0, 32.0)))
        contexts = data.draw(st.integers(1, 3))
        deadline = data.draw(
            st.one_of(st.none(),
                      st.floats(0.5, 10.0, allow_nan=False)))
        admissions.append((qname, dataset, span, contexts, deadline))

    def run():
        # A fresh cache plane per run: single-flight dedup edges are then
        # planned identically for every run (planning only peeks).
        cache = CachePlane(CacheConfig()) if with_cache else None
        ex = ConcurrentExecutor(
            store.configuration, store.library, store.segments,
            policy=policy_cls(),
            disk_pool=(DiskBandwidthPool(disk_channels)
                       if disk_channels else None),
            decoder_pool=DecoderPool(decoder_ctx) if decoder_ctx else None,
            operator_pool=(OperatorContextPool(op_ctx)
                           if op_ctx else None),
            cache=cache,
        )
        for qname, dataset, span, contexts, deadline in admissions:
            ex.admit(cascade_for(qname), dataset, 0.9, 0.0, span,
                     contexts=contexts, deadline=deadline)
        return ex, ex.run()

    runs = [run()]
    with reference_loop():
        ref_ex, ref_out = run()
    if (not with_cache and policy_cls in (FIFOPolicy, DeadlinePolicy)
            and all(a[3] == 1 for a in admissions)):
        with fastpath_loop():
            runs.append(run())
    ref_stats = ref_ex.stats()
    assert ref_stats.core == "reference"
    for ex, out in runs:
        assert ex.trace_events == ref_ex.trace_events
        for o, r in zip(out, ref_out):
            assert o.session.finished_at == r.session.finished_at
            assert o.session.waited_seconds == r.session.waited_seconds
            assert (o.session.service_by_resource
                    == r.session.service_by_resource)
        stats = ex.stats()
        assert stats.makespan == ref_stats.makespan
        assert stats.busy_seconds == ref_stats.busy_seconds
        assert stats.events == ref_stats.events
    assert [ex.stats().core for ex, _ in runs] == (
        ["heap", "fastpath"][:len(runs)])


def test_deep_fifo_fleet_matches_fastpath_per_session(stores):
    """A deep FIFO fleet, production loop vs the retired fast path,
    session by session.

    1,024 single-context queries on six precomputed plans, in seeded
    order, all admitted at t=0 onto bounded pools, so ready queues run
    hundreds of entries deep.  Every session's finish instant, wait and
    per-pool service must agree to the last bit, not just the fleet's
    makespan and totals.
    """
    store = stores[4]
    plans = [(query, span, store.engine(dataset).plan(
                 query, 0.9, store.segments, 0.0, span))
             for query, dataset in ((QUERY_A, "jackson"),
                                    (QUERY_B, "dashcam"))
             for span in (8.0, 16.0, 32.0)]
    rng = random.Random(7)
    fleet = [rng.choice(plans) for _ in range(1024)]

    def run():
        ex = store.executor(
            cache=None, metrics=None, policy=FIFOPolicy(),
            disk_pool=DiskBandwidthPool(1), decoder_pool=DecoderPool(2),
            operator_pool=OperatorContextPool(4),
        )
        for query, span, plan in fleet:
            ex.admit(query, plan.dataset, 0.9, 0.0, span, plan=plan)
        ex.run()
        return ex

    ex = run()
    with fastpath_loop():
        oracle = run()
    assert (ex.stats().core, oracle.stats().core) == ("heap", "fastpath")
    for a, b in zip(ex.sessions, oracle.sessions, strict=True):
        assert a.finished_at == b.finished_at
        assert a.waited_seconds == b.waited_seconds
        assert a.service_by_resource == b.service_by_resource
    assert ex.stats().busy_seconds == oracle.stats().busy_seconds


def test_precomputed_plan_admission_matches_planned(stores):
    """admit(plan=...) must schedule exactly like planning at admission."""
    store = stores[1]
    engine = store.engine("jackson")
    plan = engine.plan(QUERY_A, 0.9, store.segments, 0.0, 16.0)

    def run(**admit_kwargs):
        ex = store.executor(decoder_pool=DecoderPool(1))
        for _ in range(3):
            ex.admit(QUERY_A, "jackson", 0.9, 0.0, 16.0, **admit_kwargs)
        ex.run()
        return ex.trace_events

    assert run() == run(plan=plan)


def test_precomputed_plan_carries_its_context_count(stores):
    """A plan dispatched over 4 contexts must simulate as 4 contexts even
    when admitted with the default ``contexts=1`` — the single-flight
    dedup re-dispatch reads ``session.contexts``, so admit adopts the
    plan's count instead of silently combining the two."""
    from repro.query.engine import QueryEngine

    store = stores[1]
    engine = QueryEngine(store.configuration, store.library, "jackson",
                         cache=CachePlane(CacheConfig()))
    plan = engine.plan(QUERY_A, 0.9, store.segments, 0.0, 32.0, contexts=4)

    def run(**admit_kwargs):
        ex = ConcurrentExecutor(
            store.configuration, store.library, store.segments,
            operator_pool=OperatorContextPool(8),
            cache=CachePlane(CacheConfig()),
        )
        for _ in range(2):  # overlapping queries: dedup re-dispatches
            ex.admit(QUERY_A, "jackson", 0.9, 0.0, 32.0, **admit_kwargs)
        ex.run()
        return ex.stats().makespan

    assert plan.contexts == 4  # the plan records its dispatch width
    planned_at_admit = run(contexts=4)
    precomputed = run(plan=plan)  # contexts left at the default
    assert precomputed == planned_at_admit


def test_precomputed_plan_rejects_oversized_gang(stores):
    """A plan whose gang exceeds the operator pool can never be granted —
    admit must refuse it instead of deadlocking at run()."""
    store = stores[1]
    engine = store.engine("jackson")
    wide = engine.plan(QUERY_A, 0.9, store.segments, 0.0, 32.0, contexts=4)
    ex = store.executor(operator_pool=OperatorContextPool(2))
    with pytest.raises(QueryError, match="re-plan"):
        ex.admit(QUERY_A, "jackson", 0.9, 0.0, 32.0, plan=wide)


@pytest.mark.parametrize("entry", ["plan", "job"])
@pytest.mark.parametrize("duration", [-5.0, float("nan"), float("inf")])
def test_bad_task_duration_rejected_at_admission(stores, duration, entry):
    """A duration the clock cannot charge is refused at admission, the
    same way on both entry points, before any run can act on it."""
    ex = stores[1].executor(metrics=None)
    task = _task("operators", duration)
    with pytest.raises(QueryError, match="finite and non-negative"):
        if entry == "plan":
            ex.admit(QUERY_A, "jackson", 0.9, 0.0, 8.0,
                     plan=_plan(_task("decoder", 1.0), task))
        else:
            ex.admit_job(BackgroundJob(name="j", stream="jackson",
                                       kind="reencode", tasks=(task,)))
    assert ex.sessions == []


def test_precomputed_plan_checked_once_per_executor(stores, monkeypatch):
    """Repeat admissions of one plan skip the per-task checks."""
    from repro.query import scheduler

    checked = []
    real = scheduler._check_duration
    monkeypatch.setattr(scheduler, "_check_duration",
                        lambda task, owner: (checked.append(task),
                                             real(task, owner)))
    plan = _plan(_task("decoder", 1.0), _task("operators", 2.0))
    ex = stores[1].executor(metrics=None)
    for _ in range(5):
        ex.admit(QUERY_A, "jackson", 0.9, 0.0, 8.0, plan=plan)
    assert len(checked) == 2
    other = stores[1].executor(metrics=None)  # pools differ per executor
    other.admit(QUERY_A, "jackson", 0.9, 0.0, 8.0, plan=plan)
    assert len(checked) == 4


def test_wall_seconds_covers_lowering(stores, monkeypatch):
    """``run()``'s timed window starts before the fleet is lowered."""
    lower = ConcurrentExecutor._lower

    def slow_lower(self):
        time.sleep(0.05)
        return lower(self)

    monkeypatch.setattr(ConcurrentExecutor, "_lower", slow_lower)
    ex = stores[1].executor(metrics=None)
    ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 8.0)
    ex.run()
    assert ex.stats().wall_seconds >= 0.05


# ---------------------------------------------------------------------------
# Deadlock diagnostics
# ---------------------------------------------------------------------------


def _inject(ex, core: str, edges):
    """Add dependency edges — runtime task ``(waiter, i)`` waits on ``(qid,
    j)`` for each ``((waiter, i), (qid, j))`` — the way the single-flight
    dedup adds them: to the production lowering, or to the oracle's
    runtime chains.  Returns each session's runtime tasks."""
    if core == "reference":
        chains = ex._runtime_chains()
        for (waiter, i), (qid, j) in edges:
            task = chains[waiter][i]
            task.deps = task.deps + (chains[qid][j].uid,)
        ex._runtime_chains = lambda: chains
        return chains
    fleet = ex._lower()
    for (waiter, i), (qid, j) in edges:
        uid = fleet.base[waiter] + i % fleet.chains[waiter].n
        fleet.pending[uid] = fleet.pending.get(uid, 0) + 1
        fleet.dependents.setdefault(
            fleet.base[qid] + j % fleet.chains[qid].n, []).append(uid)
    ex._lower = lambda: fleet
    return [chain.tasks for chain in fleet.chains]


def _loop(core: str):
    return reference_loop() if core == "reference" else nullcontext()


@pytest.mark.parametrize("core", ["heap", "reference"])
def test_deadlock_error_names_blocked_sessions(stores, core):
    """A stuck run must say *what* is stuck: (qid, resource, units)."""
    store = stores[1]
    ex = store.executor()
    ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 8.0)
    with pytest.raises(QueryError) as err, _loop(core):
        chains = _inject(ex, core, [((0, 0), (0, -1))])
        ex.run()
    first = chains[0][0]
    message = str(err.value)
    assert "deadlock" in message
    assert f"(q0, {first.resource}, {first.units})" in message


def test_blocked_triples_sorted(stores):
    """Two sessions waiting on each other: the message lists both blocked
    tasks, sorted by qid, on the production loop and the oracle alike."""
    for core in ("heap", "reference"):
        ex = stores[1].executor()
        ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 8.0)
        ex.admit(QUERY_A, "jackson", 0.9, 0.0, 8.0)
        with pytest.raises(QueryError) as err, _loop(core):
            chains = _inject(ex, core, [((1, 0), (0, -1)),
                                        ((0, 0), (1, -1))])
            ex.run()
        triples = ", ".join(f"(q{q}, {chains[q][0].resource}, "
                            f"{chains[q][0].units})" for q in (0, 1))
        assert str(err.value).endswith(f"(qid, resource, units): {triples}")


# ---------------------------------------------------------------------------
# Loop mechanics, pinned at executor level against the oracle
# ---------------------------------------------------------------------------


def _task(resource: str, duration: float, units: int = 1) -> ResourceTask:
    category = {"decoder": "decode", "operators": "consume"}[resource]
    kind = "consume" if resource == "operators" else "retrieve"
    return ResourceTask(kind=kind, resource=resource, units=units,
                        duration=duration, category=category, operator="op")


def _plan(*tasks: ResourceTask) -> QueryPlan:
    return QueryPlan(label="synthetic", dataset="jackson", stream="jackson",
                     video_seconds=1.0,
                     stages=(StagePlan(operator="op", tasks=tasks,
                                       touched=len(tasks), positives=0),))


def _replay(store, chains, deps=(), policy=FIFOPolicy, decoder=None,
            operators=None, **admit):
    """Run hand-built chains (one ``_plan`` per session, ``admit``'s
    per-session keyword lists alongside) on the production loop and the
    oracle; require identical traces and per-session floats, and return
    the production executor.  ``deps`` are extra ``((waiter, i), (qid,
    j))`` dependency edges, as the single-flight dedup would add them."""
    def run(core):
        ex = store.executor(
            cache=None, metrics=None, policy=policy(),
            decoder_pool=DecoderPool(decoder) if decoder else None,
            operator_pool=(OperatorContextPool(operators) if operators
                           else None),
        )
        for s, tasks in enumerate(chains):
            kwargs = {k: v[s] for k, v in admit.items()}
            ex.admit(QUERY_A, "jackson", 0.9, 0.0, 8.0, plan=_plan(*tasks),
                     **kwargs)
        with _loop(core):
            if deps:
                _inject(ex, core, deps)
            ex.run()
        return ex

    ex, ref = run("heap"), run("reference")
    assert ex.trace_events == ref.trace_events
    for a, b in zip(ex.sessions, ref.sessions):
        assert (a.finished_at, a.waited_seconds) == (b.finished_at,
                                                     b.waited_seconds)
    assert ex.stats().busy_seconds == ref.stats().busy_seconds
    return ex


def _events(ex, event: str):
    """``(qid, t, resource)`` of every ``event`` record, in trace order."""
    return [(int(e["query"].split(":")[0][1:]), e["t"], e["resource"])
            for e in ex.trace_events if e["event"] == event]


class TestReadyHeapIndex:
    """The per-pool ready heaps: grant order, lazy re-keying, parking."""

    def test_orders_by_priority_then_seq(self, stores):
        """EDF on one decoder: the earliest deadline wins, and equal
        deadlines go in submission (seq) order."""
        ex = _replay(stores[1], [[_task("decoder", 1.0)]] * 3,
                     policy=DeadlinePolicy, decoder=1,
                     deadline=[5.0, 1.0, 1.0])
        assert [q for q, _, _ in _events(ex, "start")] == [1, 2, 0]

    def test_stale_head_is_rekeyed_not_rescanned(self, stores):
        """Weighted fair share: gold's service rises (q3 finishes on the
        operators) while gold's q1 waits on the decoder behind bronze's
        q0.  Keyed at submission, q1 would beat bronze's q2 on seq; the
        re-keyed entry yields to bronze's lower weighted service."""
        ex = _replay(
            stores[1],
            [[_task("decoder", 3.0)], [_task("decoder", 1.0)],
             [_task("decoder", 1.0)], [_task("operators", 2.0)]],
            policy=lambda: WeightedFairSharePolicy(weights={"bronze": 10.0}),
            decoder=1, tenant=["bronze", "gold", "bronze", "gold"],
        )
        decoder = [(q, t) for q, t, r in _events(ex, "start")
                   if r == "decoder"]
        assert decoder == [(0, 0.0), (2, 3.0), (1, 4.0)]

    def test_capacity_parking_and_release(self, stores):
        """A 2-unit gang that does not fit parks; a 1-unit task behind it
        backfills; the gang runs once a release fits it."""
        ex = _replay(
            stores[1],
            [[_task("operators", 2.0)], [_task("operators", 1.0, units=2)],
             [_task("operators", 1.0)]],
            operators=2,
        )
        assert [(q, t) for q, t, _ in _events(ex, "start")] == [
            (0, 0.0), (2, 0.0), (1, 2.0)]

    def test_full_pool_grants_nothing(self, stores):
        """A task waits for as long as its pool is full."""
        ex = _replay(stores[1], [[_task("decoder", 2.0)],
                                 [_task("decoder", 1.0)]], decoder=1)
        assert [s.waited_seconds for s in ex.sessions] == [0.0, 2.0]

    def test_gang_stays_parked_through_partial_release(self, stores):
        """A 3-unit gang waits on a full 3-unit pool.  Releases of one
        unit (t=1, t=2) and two units (first of the t=3 pair) re-park it,
        while q4's 1-unit task backfills the unit freed at t=1; only the
        release that fits it grants the gang."""
        ex = _replay(
            stores[1],
            [[_task("operators", 1.0)], [_task("operators", 3.0)],
             [_task("operators", 3.0)], [_task("operators", 1.0, units=3)],
             [_task("decoder", 1.0), _task("operators", 1.0)]],
            operators=3,
        )
        ops = [(q, t) for q, t, r in _events(ex, "start") if r == "operators"]
        assert ops == [(0, 0.0), (1, 0.0), (2, 0.0), (4, 1.0), (3, 3.0)]

    def test_dirty_resource_restriction_matches_full_scan(self, stores):
        """A completion's grant round scans only the pools it touched.
        Here the urgent q3, arriving at t=0.5, waits on a full decoder
        while operator completions at t=1 and t=2 grant less urgent
        operator work; the oracle rescans every pool on every grant and
        must agree."""
        ex = _replay(
            stores[1],
            [[_task("decoder", 4.0)],
             [_task("operators", 1.0), _task("operators", 1.0)],
             [_task("operators", 1.0), _task("decoder", 1.0)],
             [_task("decoder", 1.0)]],
            policy=DeadlinePolicy, decoder=1, operators=1,
            deadline=[9.0, 8.0, 7.0, 1.0], arrival=[None, None, None, 0.5],
        )
        starts = [(q, t) for q, t, _ in _events(ex, "start")]
        assert starts == [(2, 0.0), (0, 0.0), (1, 1.0), (1, 2.0),
                          (3, 4.0), (2, 5.0)]


class TestDependencyTracker:
    """Dependency counters: single-flight edges park and wake tasks."""

    def test_submit_parks_until_deps_complete(self, stores):
        """Identical cached queries: the followers' RAM-tier reads start
        no earlier than their leaders finish, woken through the counters,
        and the oracle agrees on every event."""
        store = stores[1]

        def run(core):
            ex = ConcurrentExecutor(
                store.configuration, store.library, store.segments,
                decoder_pool=DecoderPool(1), cache=CachePlane(CacheConfig()),
            )
            for _ in range(2):
                ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 16.0)
            with _loop(core):
                ex.run()
            return ex

        ex, ref = run("heap"), run("reference")
        assert ex.trace_events == ref.trace_events
        assert ex.cache.stats().single_flight_wakeups > 0
        follower = [e for e in ex.trace_events
                    if e["query"].startswith("q1") and e["event"] == "start"
                    and e["resource"] == "cache"]
        assert follower
        leader_ends = sorted(e["t"] for e in ex.trace_events
                             if e["query"].startswith("q0")
                             and e["event"] == "finish"
                             and e["kind"] == "retrieve")
        assert all(e["t"] >= leader_ends[0] for e in follower)

    def test_multi_dep_counts_down(self, stores):
        """A task waiting on two others starts when the later finishes."""
        ex = _replay(
            stores[1],
            [[_task("decoder", 1.0)], [_task("decoder", 3.0)],
             [_task("operators", 1.0)]],
            deps=[((2, 0), (0, 0)), ((2, 0), (1, 0))],
        )
        assert _events(ex, "start")[-1] == (2, 3.0, "operators")
        assert ex.sessions[2].waited_seconds == 3.0

    def test_completion_before_submit_clears_counter(self, stores):
        """A dependency that finished before its waiter was submitted
        leaves nothing to wait for."""
        ex = _replay(
            stores[1],
            [[_task("decoder", 1.0)],
             [_task("operators", 2.0), _task("operators", 1.0)]],
            deps=[((1, 1), (0, 0))],
        )
        assert _events(ex, "start")[-1] == (1, 2.0, "operators")
        assert ex.sessions[1].waited_seconds == 0.0

    def test_wakeup_keeps_its_submission_seq_under_fifo(self, stores):
        """A woken task re-enters its pool with the seq of its submission:
        under FIFO, q2 — submitted at t=0 before q3, but parked on q0's
        decode until t=3 — still runs before q3, which has queued since
        t=0.  That push arrives out of push order, so a fleet with
        dependency edges must keep its ready heaps."""
        ex = _replay(
            stores[1],
            [[_task("decoder", 3.0)], [_task("operators", 5.0)],
             [_task("operators", 1.0)], [_task("operators", 1.0)]],
            deps=[((2, 0), (0, 0))], decoder=1, operators=1,
        )
        ops = [(q, t) for q, t, r in _events(ex, "start") if r == "operators"]
        assert ops == [(1, 0.0), (2, 5.0), (3, 6.0)]


class TestCompletionHeap:
    """The completion heap: ``(end, seq)`` order, same-instant batches."""

    def test_pops_by_end_then_seq(self, stores):
        ex = _replay(stores[1], [[_task("decoder", 2.0)],
                                 [_task("decoder", 1.0)],
                                 [_task("decoder", 1.0)]])
        assert [(q, t) for q, t, _ in _events(ex, "finish")] == [
            (1, 1.0), (2, 1.0), (0, 2.0)]

    def test_pop_batch_drains_one_timestamp_in_seq_order(self, stores):
        """Three completions at one instant finish in grant order, so
        their successors queue on the single decoder in that order."""
        ex = _replay(
            stores[1],
            [[_task("operators", 1.0), _task("decoder", 1.0)]] * 3,
            decoder=1,
        )
        assert [q for q, _, r in _events(ex, "finish")
                if r == "operators"] == [0, 1, 2]
        assert [(q, t) for q, t, r in _events(ex, "start")
                if r == "decoder"] == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_pop_batch_leaves_same_end_followups_for_next_batch(self, stores):
        """A zero-duration task granted while the t=1 completions drain
        ends at the same instant, after every already-pending one."""
        ex = _replay(
            stores[1],
            [[_task("operators", 1.0), _task("decoder", 0.0)],
             [_task("operators", 1.0)]],
        )
        assert [(q, r) for q, t, r in _events(ex, "finish")] == [
            (0, "operators"), (1, "operators"), (0, "decoder")]


# ---------------------------------------------------------------------------
# Plan flattening cache
# ---------------------------------------------------------------------------


class TestPlanCaching:
    def test_tasks_and_service_cached(self, stores):
        store = stores[1]
        plan = store.engine("dashcam").plan(QUERY_B, 0.9, store.segments,
                                            0.0, 16.0)
        assert plan.tasks is plan.tasks  # one flattening, then cached
        assert plan.service_seconds == sum(t.duration for t in plan.tasks)

    def test_cache_invalidated_on_stage_swap(self, stores):
        store = stores[1]
        plan = store.engine("dashcam").plan(QUERY_B, 0.9, store.segments,
                                            0.0, 16.0)
        full = plan.tasks
        object.__setattr__(plan, "stages", plan.stages[:1])
        trimmed = plan.tasks
        assert trimmed is not full
        assert len(trimmed) < len(full)
        assert plan.service_seconds == sum(t.duration for t in trimmed)

    def test_single_flight_wakeups_counted_by_heap_core(self, stores):
        """Identical queries share in-flight retrievals; the heap core
        wakes the followers through the event queue and says so."""
        store = stores[1]
        cache = CachePlane(CacheConfig())
        ex = ConcurrentExecutor(
            store.configuration, store.library, store.segments,
            decoder_pool=DecoderPool(1), cache=cache,
        )
        for _ in range(3):
            ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 16.0)
        ex.run()
        stats = cache.stats()
        assert stats.single_flight_hits > 0
        assert stats.single_flight_wakeups > 0
