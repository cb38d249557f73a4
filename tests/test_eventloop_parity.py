"""The event-heap executor core: parity with the rescan-loop oracle, the
ready-heap index mechanics, dependency wakeups, and plan caching.

The heap core's whole contract is *bit-identical outcomes*: the golden
traces pin it against committed bytes, and the Hypothesis property here
replays random fleets — policies x shard widths x pool bounds x cache —
through the production executor and the oracle (``tests/oracles``) and
requires the full trace, every per-query float, and the pool accounting
to agree exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.plane import CacheConfig, CachePlane
from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.errors import QueryError
from repro.operators.library import default_library
from repro.query.cascade import QUERY_A, QUERY_B, cascade_for
from repro.query.eventloop import (
    CompletionHeap,
    DependencyTracker,
    ReadyHeapIndex,
    blocked_triples,
)
from repro.query.scheduler import (
    ConcurrentExecutor,
    DeadlinePolicy,
    FIFOPolicy,
    FairSharePolicy,
    OperatorContextPool,
)
from repro.storage.disk import DiskBandwidthPool

from oracles import no_fastpath, reference_loop


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
    """Random fleet, all three loops, everything equal to the last bit.

    Each example runs through the rescan-loop oracle, the batch-drained
    heap core with fastpath lowering *disabled* (so the general core is
    exercised even on qualifying fleets), and the default dispatch — and
    asserts the dispatch lowered onto the vectorized fast path exactly
    when the fleet qualifies (no cache plane, static FIFO/EDF priorities,
    every session single-context).  Half the examples are *forced* to
    qualify so the fast path sees deep coverage, not just lucky draws.
    """
    shards = data.draw(st.sampled_from((1, 4)), label="shards")
    store = stores[shards]
    qualify = data.draw(st.booleans(), label="force-fastpath-qualifying")
    if qualify:
        policy_cls = data.draw(st.sampled_from((FIFOPolicy, DeadlinePolicy)),
                               label="policy")
        with_cache = False
    else:
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
        contexts = 1 if qualify else data.draw(st.integers(1, 3))
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

    fast_ex, fast_out = run()
    with no_fastpath():
        heap_ex, heap_out = run()
    with reference_loop():
        ref_ex, ref_out = run()

    assert fast_ex.trace_events == ref_ex.trace_events
    assert heap_ex.trace_events == ref_ex.trace_events
    for h, f, r in zip(heap_out, fast_out, ref_out):
        for out in (h, f):
            assert out.session.finished_at == r.session.finished_at
            assert out.session.waited_seconds == r.session.waited_seconds
            assert (out.session.service_by_resource
                    == r.session.service_by_resource)
    fast_stats = fast_ex.stats()
    heap_stats, ref_stats = heap_ex.stats(), ref_ex.stats()
    for stats in (heap_stats, fast_stats):
        assert stats.makespan == ref_stats.makespan
        assert stats.busy_seconds == ref_stats.busy_seconds
        assert stats.events == ref_stats.events
    # The dispatch must take the fast path exactly when the fleet
    # qualifies: any silent fallback (or over-eager lowering) is a bug.
    expect_fast = (not with_cache
                   and policy_cls in (FIFOPolicy, DeadlinePolicy)
                   and all(a[3] == 1 for a in admissions))
    assert fast_stats.core == ("fastpath" if expect_fast else "heap")
    assert heap_stats.core == "heap" and ref_stats.core == "reference"


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


# ---------------------------------------------------------------------------
# Deadlock diagnostics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("core", ["heap", "reference"])
def test_deadlock_error_names_blocked_sessions(stores, core):
    """A stuck run must say *what* is stuck: (qid, resource, units)."""
    store = stores[1]
    ex = store.executor()
    ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 8.0)
    chains = ex._runtime_chains()
    first, last = chains[0][0], chains[0][-1]
    first.deps = (last.uid,)  # an impossible cycle: first waits on last
    ex._runtime_chains = lambda: chains
    # Fastpath lowering off: the injected dependency cycle lives in the
    # runtime chains, which the (dependency-free) fast path never
    # materializes.
    loop = reference_loop() if core == "reference" else no_fastpath()
    with pytest.raises(QueryError) as err, loop:
        ex.run()
    message = str(err.value)
    assert "deadlock" in message
    assert f"(q0, {first.resource}, {first.units})" in message


# ---------------------------------------------------------------------------
# Heap mechanics (exercised directly: the built-in policies cannot
# produce stale entries, but the index must survive policies that do)
# ---------------------------------------------------------------------------


class _FakeSession:
    def __init__(self, qid):
        self.qid = qid
        self.prio_version = 0


class _FakeTask:
    def __init__(self, resource, units=1, uid=0, deps=()):
        self.resource = resource
        self.units = units
        self.uid = uid
        self.deps = deps


class _FakeWaiting:
    def __init__(self, session, task, seq):
        self.session = session
        self.task = task
        self.seq = seq


class TestReadyHeapIndex:
    def _index(self, priorities, free):
        return ReadyHeapIndex(
            priority=lambda w: (priorities[w.seq],),
            version=lambda w: w.session.prio_version,
            free_units=lambda r: free.get(r),
        )

    def test_orders_by_priority_then_seq(self):
        prios = {0: 2.0, 1: 1.0, 2: 1.0}
        index = self._index(prios, {})
        session = _FakeSession(0)
        entries = [_FakeWaiting(session, _FakeTask("r"), seq)
                   for seq in range(3)]
        for w in entries:
            index.push("r", w)
        assert [index.pop_best().seq for _ in range(3)] == [1, 2, 0]
        assert index.pop_best() is None

    def test_stale_head_is_rekeyed_not_rescanned(self):
        """Lazy invalidation: a priority bump (with a version stamp) moves
        the stale head back down the heap instead of granting it."""
        prios = {0: 0.0, 1: 5.0}
        free = {}
        index = self._index(prios, free)
        hot, cold = _FakeSession(0), _FakeSession(1)
        index.push("r", _FakeWaiting(hot, _FakeTask("r"), 0))
        index.push("r", _FakeWaiting(cold, _FakeTask("r"), 1))
        # hot's attained service grows past cold's before the next grant
        prios[0] = 9.0
        hot.prio_version += 1
        assert index.pop_best().seq == 1
        assert index.pop_best().seq == 0

    def test_capacity_parking_and_release(self):
        """An entry too big for the pool parks; freeing capacity re-admits
        it without disturbing smaller backfilled entries."""
        prios = {0: 0.0, 1: 1.0}
        free = {"r": 1}
        index = self._index(prios, free)
        session = _FakeSession(0)
        gang = _FakeWaiting(session, _FakeTask("r", units=2), 0)
        small = _FakeWaiting(session, _FakeTask("r", units=1), 1)
        index.push("r", gang)
        index.push("r", small)
        # the gang (better priority) does not fit: the small task backfills
        assert index.pop_best() is small
        assert index.pop_best() is None
        assert [w.seq for w in index.pending()] == [0]
        free["r"] = 2
        index.release("r")
        assert index.pop_best() is gang

    def test_full_pool_grants_nothing(self):
        free = {"r": 0}
        index = self._index({0: 0.0}, free)
        index.push("r", _FakeWaiting(_FakeSession(0), _FakeTask("r"), 0))
        assert index.pop_best() is None
        assert len(index) == 1

    def test_gang_stays_parked_through_partial_release(self):
        """A multi-unit gang parks, and a release that frees *some* units
        — but still fewer than the gang needs — must re-park it; only the
        release that actually fits the gang grants it.  This is the exact
        ordering batch-drain must preserve: releases are applied one
        completion at a time, so a batch's partial releases can each wake
        (and re-park) the gang before the final one fits it."""
        prios = {0: 0.0, 1: 1.0, 2: 2.0}
        free = {"r": 0}
        index = self._index(prios, free)
        session = _FakeSession(0)
        gang = _FakeWaiting(session, _FakeTask("r", units=3), 0)
        small = _FakeWaiting(session, _FakeTask("r", units=1), 1)
        index.push("r", gang)
        assert index.pop_best() is None  # full pool: nothing moves
        free["r"] = 1  # partial release: 1 of the 3 units the gang needs
        index.release("r")
        assert index.pop_best() is None  # gang re-parks, does not grant
        index.push("r", small)
        assert index.pop_best() is small  # backfill overtakes the gang
        free["r"] = 0
        assert index.pop_best() is None
        free["r"] = 3  # full release: now the gang fits
        index.release("r")
        assert index.pop_best() is gang
        assert index.pop_best() is None

    def test_dirty_resource_restriction_matches_full_scan(self):
        """pop_best(resources) must return the full scan's pick whenever
        the skipped pools are grant-stable (no fitting head)."""
        prios = {0: 5.0, 1: 1.0}
        free = {"a": 1, "b": 0}
        index = self._index(prios, free)
        session = _FakeSession(0)
        worse = _FakeWaiting(session, _FakeTask("a"), 0)
        better = _FakeWaiting(session, _FakeTask("b"), 1)
        index.push("a", worse)
        index.push("b", better)  # better priority, but pool "b" is full
        # Pool "b" has no fitting head, so restricting the scan to the
        # dirty pool {"a"} grants exactly what the full scan would.
        assert index.pop_best(["a"]) is worse
        free["b"] = 1
        assert index.pop_best(["b"]) is better


class TestDependencyTracker:
    def test_submit_parks_until_deps_complete(self):
        t0 = _FakeTask("r", uid=0)
        t1 = _FakeTask("r", uid=1, deps=(0,))
        tracker = DependencyTracker([[t0, t1]])
        s = _FakeSession(0)
        w0 = _FakeWaiting(s, t0, 0)
        w1 = _FakeWaiting(s, t1, 1)
        assert tracker.submit(w0) is True
        assert tracker.submit(w1) is False
        assert tracker.parked() == [w1]
        assert tracker.complete(0) == [w1]
        assert tracker.parked() == []

    def test_multi_dep_counts_down(self):
        t2 = _FakeTask("r", uid=2, deps=(0, 1))
        tracker = DependencyTracker([[_FakeTask("r", uid=0)],
                                     [_FakeTask("r", uid=1)], [t2]])
        w = _FakeWaiting(_FakeSession(0), t2, 0)
        assert tracker.submit(w) is False
        assert tracker.complete(0) == []
        assert tracker.complete(1) == [w]

    def test_completion_before_submit_clears_counter(self):
        t1 = _FakeTask("r", uid=1, deps=(0,))
        tracker = DependencyTracker([[_FakeTask("r", uid=0), t1]])
        assert tracker.complete(0) == []
        assert tracker.submit(_FakeWaiting(_FakeSession(0), t1, 0)) is True


class TestCompletionHeap:
    def test_pops_by_end_then_seq(self):
        heap = CompletionHeap()
        heap.push(2.0, 1, "late")
        heap.push(1.0, 3, "tie-b")
        heap.push(1.0, 2, "tie-a")
        assert [heap.pop() for _ in range(3)] == ["tie-a", "tie-b", "late"]
        assert len(heap) == 0

    def test_pop_batch_drains_one_timestamp_in_seq_order(self):
        heap = CompletionHeap()
        heap.push(1.0, 5, "t1-c")
        heap.push(2.0, 1, "t2-a")
        heap.push(1.0, 2, "t1-a")
        heap.push(1.0, 4, "t1-b")
        assert heap.pop_batch() == ["t1-a", "t1-b", "t1-c"]
        assert len(heap) == 1  # the t=2.0 entry stays for the next batch
        assert heap.pop_batch() == ["t2-a"]
        assert len(heap) == 0

    def test_pop_batch_leaves_same_end_followups_for_next_batch(self):
        # A zero-duration task granted while draining a batch lands at the
        # *same* end timestamp but with a larger grant seq.  It must form
        # its own follow-up batch, exactly as the one-at-a-time reference
        # pops it after the already-pending same-end completions.
        heap = CompletionHeap()
        heap.push(1.0, 2, "first")
        heap.push(1.0, 3, "second")
        assert heap.pop_batch() == ["first", "second"]
        heap.push(1.0, 7, "zero-dur follow-up")
        assert heap.pop_batch() == ["zero-dur follow-up"]

    def test_pop_batch_requires_a_pending_completion(self):
        # The drain loop guards with ``while completions:``, so an empty
        # pop_batch is a caller bug, not a silent no-op.
        with pytest.raises(IndexError):
            CompletionHeap().pop_batch()


def test_blocked_triples_sorted():
    s3, s1 = _FakeSession(3), _FakeSession(1)
    triples = blocked_triples([
        _FakeWaiting(s3, _FakeTask("disk", units=1), 0),
        _FakeWaiting(s1, _FakeTask("operators", units=2), 1),
    ])
    assert triples == [(1, "operators", 2), (3, "disk", 1)]


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
