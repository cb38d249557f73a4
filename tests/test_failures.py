"""Replicated shards under failure: campaigns, routing, rebuild, SLOs.

The PR-4 sharding tests pinned placement and rebalance; these pin the
resilience layer on top of it: k-way replica placement, shard
fail/degrade/recover semantics, typed error paths, the executor's
failure timeline, background re-replication, and the availability
numbers ``VStore.serve(failures=...)`` reports.
"""

import pytest

from repro.clock import SimClock
from repro.core.store import VStore
from repro.errors import (
    QueryError,
    ReplicaUnavailableError,
    ShardFailedError,
    StorageError,
)
from repro.operators.library import default_library
from repro.query.workload import ArrivalSpec, QueryMixEntry, TenantSpec
from repro.storage.failures import (
    FailureCampaign,
    FailureEvent,
    apply_event,
    plan_rebuilds,
    rebuild_jobs,
)
from repro.storage.disk import DiskModel
from repro.storage.kvstore import KVStore
from repro.storage.segment_store import SegmentStore
from repro.storage.sharding import ShardedDiskArray

from oracles import reference_loop


def _array(shards=4, replication=2, **kw):
    kw.setdefault("placement", "round-robin")
    return ShardedDiskArray(shards, replication=replication,
                            clock=SimClock(), **kw)


def _fill(array, n=8, nbytes=1000.0):
    for i in range(n):
        array.place("cam", "fmt", i, nbytes)
    return array


# ---------------------------------------------------------------------------
# Campaign data model
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_event_validation(self):
        with pytest.raises(StorageError):
            FailureEvent(t=1.0, action="explode", shard=0)
        for t in (-1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(StorageError):
                FailureEvent(t=t, action="fail", shard=0)
        with pytest.raises(StorageError):
            FailureCampaign.parse("fail@inf:0")
        with pytest.raises(StorageError):
            FailureEvent(t=1.0, action="fail", shard=-1)
        with pytest.raises(StorageError):
            FailureEvent(t=1.0, action="degrade", shard=0, factor=0.5)

    def test_campaign_sorts_events(self):
        c = FailureCampaign(events=(
            FailureEvent(t=30.0, action="recover", shard=0),
            FailureEvent(t=10.0, action="fail", shard=0),
        ))
        assert [e.t for e in c] == [10.0, 30.0]

    def test_parse_round_trip(self):
        c = FailureCampaign.parse("fail@10:0, degrade@5:1:8 ,recover@60:0")
        assert [(e.action, e.t, e.shard) for e in c] == [
            ("degrade", 5.0, 1), ("fail", 10.0, 0), ("recover", 60.0, 0)
        ]
        assert c.events[0].factor == 8.0
        assert c.fail_events == (FailureEvent(t=10.0, action="fail", shard=0),)

    def test_parse_rejects_garbage(self):
        for bad in ("", "fail@", "fail@x:0", "fail@1", "boom@1:0"):
            with pytest.raises(StorageError):
                FailureCampaign.parse(bad)

    def test_max_concurrent_failures(self):
        c = FailureCampaign.parse(
            "fail@1:0,fail@2:1,recover@3:0,fail@4:2,recover@5:1,recover@6:2"
        )
        assert c.max_concurrent_failures() == 2

    def test_random_is_deterministic_and_valid(self):
        a = FailureCampaign.random(4, 100.0, seed=3)
        b = FailureCampaign.random(4, 100.0, seed=3)
        assert a == b
        a.validate_for(_array())
        assert a.max_concurrent_failures() <= 1

    def test_validate_for_rejects_unknown_shard(self):
        with pytest.raises(StorageError):
            FailureCampaign.parse("fail@1:9").validate_for(_array())


# ---------------------------------------------------------------------------
# Replica placement
# ---------------------------------------------------------------------------


class TestReplicaPlacement:
    def test_replicas_land_on_distinct_shards(self):
        array = _fill(_array(shards=4, replication=3))
        for key, replicas in array.replica_assignments().items():
            assert len(replicas) == 3
            assert len(set(replicas)) == 3
            assert replicas[0] == array.locate(*key)

    def test_replication_factor_bounds(self):
        with pytest.raises(StorageError):
            ShardedDiskArray(2, replication=3)
        with pytest.raises(StorageError):
            ShardedDiskArray(2, replication=0)

    def test_bytes_charged_on_every_replica(self):
        array = _fill(_array(shards=4, replication=2), n=8, nbytes=100.0)
        assert sum(array.shard_bytes) == pytest.approx(2 * 8 * 100.0)
        assert sum(array.shard_keys) == 16

    def test_unreplicated_path_untouched(self):
        array = _fill(_array(shards=4, replication=1))
        assert all(len(r) == 1 for r in array.replica_assignments().values())
        assert array.replicas("cam", "fmt", 0) == (array.locate("cam", "fmt", 0),)

    def test_overwrite_refreshes_all_replicas(self):
        array = _array(shards=4, replication=2)
        array.place("cam", "fmt", 0, 100.0)
        array.place("cam", "fmt", 0, 250.0)
        assert sum(array.shard_bytes) == pytest.approx(2 * 250.0)

    def test_forget_drops_all_replicas(self):
        array = _fill(_array(shards=4, replication=2), n=4, nbytes=10.0)
        for i in range(4):
            array.forget("cam", "fmt", i)
        assert sum(array.shard_bytes) == pytest.approx(0.0)
        assert sum(array.shard_keys) == 0
        assert array.replica_assignments() == {}


# ---------------------------------------------------------------------------
# Failure semantics on the array
# ---------------------------------------------------------------------------


class TestFailureSemantics:
    def test_fail_promotes_survivor_and_returns_rebuild_work(self):
        array = _fill(_array(shards=4, replication=2), nbytes=10.0)
        victim = array.locate("cam", "fmt", 0)
        work = array.fail_shard(victim)
        assert array.failed_shards == (victim,)
        assert work, "keys on the failed shard become rebuild work"
        for key, nbytes, source in work:
            assert source != victim
            assert array.locate(*key) != victim
            assert nbytes == 10.0
        assert array.lost_keys() == {}

    def test_promoted_survivor_leads_the_copy_set(self):
        """Rebalance planning and reopen take a copy set's first shard as
        the primary, so promotion must keep it first."""
        array = _fill(_array(shards=4, replication=3))
        assert array.replicas("cam", "fmt", 2) == (2, 3, 0)
        array.fail_shard(2)  # promotes shard 0, the fastest survivor
        assert array.replicas("cam", "fmt", 2) == (0, 3)
        for key, copies in array.replica_assignments().items():
            assert copies[0] == array.locate(*key)

    def test_fail_is_idempotent(self):
        array = _fill(_array())
        victim = array.locate("cam", "fmt", 0)
        first = array.fail_shard(victim)
        assert first
        assert array.fail_shard(victim) == []
        assert array.failures_injected == 1

    def test_fail_conserves_bytes_as_loss_or_survivors(self):
        array = _fill(_array(shards=4, replication=2), n=8, nbytes=10.0)
        before = sum(array.shard_bytes)
        victim = 0
        lost_copies = array.shard_bytes[victim]
        array.fail_shard(victim)
        assert sum(array.shard_bytes) + lost_copies == pytest.approx(before)
        assert array.lost_bytes == 0.0

    def test_double_fault_at_k2_loses_data(self):
        array = _fill(_array(shards=4, replication=2), nbytes=10.0)
        replicas = array.replicas("cam", "fmt", 0)
        for shard in replicas:
            array.fail_shard(shard)
        assert ("cam", "fmt", 0) in array.lost_keys()
        with pytest.raises(ReplicaUnavailableError):
            array.effective_read_shard("cam", "fmt", 0)

    def test_recover_returns_empty_shard(self):
        array = _fill(_array(shards=4, replication=2), nbytes=10.0)
        array.fail_shard(0)
        array.recover_shard(0)
        assert array.shard_state(0) == "up"
        assert array.shard_bytes[0] == pytest.approx(0.0)
        # New placements may use it again.
        array.place("cam2", "fmt", 0, 10.0)

    def test_degrade_then_recover(self):
        array = _array()
        array.degrade_shard(1, 6.0)
        assert array.shard_state(1) == "degraded"
        assert array.degrade_factor(1) == 6.0
        bw, ovh = array.read_params_at(1)
        assert bw == pytest.approx(array.shard(1).read_bandwidth / 6.0)
        array.recover_shard(1)
        assert array.degrade_factor(1) == 1.0

    def test_degraded_read_charges_extra_time(self):
        # A degraded shard streams at 1/factor of its bandwidth: reading
        # the same bytes off it takes factor x the transfer time.
        array = _array()
        bandwidth, overhead = array.read_params_at(1)
        array.degrade_shard(1, 4.0)
        slow_bandwidth, slow_overhead = array.read_params_at(1)
        assert 1e9 / slow_bandwidth == pytest.approx(4.0 * 1e9 / bandwidth)
        assert slow_overhead == overhead

    def test_reads_route_around_failed_primary(self):
        array = _fill(_array(shards=4, replication=2), nbytes=10.0)
        primary, secondary = array.replicas("cam", "fmt", 0)
        array.fail_shard(primary)
        assert array.effective_read_shard("cam", "fmt", 0) == secondary

    def test_reads_avoid_degraded_primary(self):
        array = _fill(_array(shards=4, replication=2), nbytes=10.0)
        primary, secondary = array.replicas("cam", "fmt", 0)
        array.degrade_shard(primary, 10.0)
        assert array.effective_read_shard("cam", "fmt", 0) == secondary
        # ... unless the detour is even slower.
        array.degrade_shard(secondary, 100.0)
        assert array.effective_read_shard("cam", "fmt", 0) == primary

    def test_placement_routes_around_failed_shard(self):
        array = _array(shards=2, replication=1)
        array.fail_shard(0)
        assert array.place("cam", "fmt", 0, 10.0) == 1

    def test_reassign_and_migrate_refuse_failed_shards(self):
        array = _fill(_array(shards=4, replication=1), nbytes=10.0)
        array.fail_shard(3)
        key = ("cam", "fmt", 0)
        src = array.locate(*key)
        with pytest.raises(ShardFailedError):
            array.reassign(*key, dst=3)
        with pytest.raises(ShardFailedError):
            array.migrate(src, 3, 10.0)

    def test_reassign_refuses_replica_collision(self):
        array = _fill(_array(shards=4, replication=2), nbytes=10.0)
        primary, secondary = array.replicas("cam", "fmt", 0)
        with pytest.raises(StorageError):
            array.reassign("cam", "fmt", 0, dst=secondary)


# ---------------------------------------------------------------------------
# Typed error paths (satellite: ShardFailedError / ReplicaUnavailableError)
# ---------------------------------------------------------------------------


class TestTypedErrors:
    def test_io_on_failed_shard_raises_shard_failed(self):
        array = _array()
        array.fail_shard(2)
        with pytest.raises(ShardFailedError):
            array.write_at(2, 100.0)
        with pytest.raises(ShardFailedError):
            array.migrate(2, 0, 100.0)

    def test_every_replica_failed_raises_shard_failed(self):
        # reset_health resurrects the *flags* but not dropped bookkeeping,
        # so build the situation directly: a replicated key whose entire
        # replica set is flagged failed before fail_shard pruned it.
        array = _fill(_array(shards=4, replication=2), nbytes=10.0)
        replicas = array.replicas("cam", "fmt", 0)
        array._failed.update(replicas)  # flags only, bookkeeping intact
        with pytest.raises(ShardFailedError):
            array.effective_read_shard("cam", "fmt", 0)

    def test_lost_key_raises_replica_unavailable(self):
        array = _fill(_array(shards=2, replication=1), nbytes=10.0)
        victim = array.locate("cam", "fmt", 0)
        array.fail_shard(victim)
        with pytest.raises(ReplicaUnavailableError):
            array.effective_read_shard("cam", "fmt", 0)

    def test_both_are_storage_errors(self):
        assert issubclass(ShardFailedError, StorageError)
        assert issubclass(ReplicaUnavailableError, StorageError)

    def test_degrade_of_failed_shard_refused(self):
        array = _array()
        array.fail_shard(0)
        with pytest.raises(ShardFailedError):
            array.degrade_shard(0, 2.0)


# ---------------------------------------------------------------------------
# apply_event / rebuild planning
# ---------------------------------------------------------------------------


class TestApplyAndPlan:
    def test_apply_event_dispatch(self):
        array = _fill(_array(shards=4, replication=2), nbytes=10.0)
        work = apply_event(array, FailureEvent(t=1.0, action="fail", shard=0))
        assert all(src != 0 for _, _, src in work)
        apply_event(array, FailureEvent(t=2.0, action="degrade", shard=1,
                                        factor=3.0))
        assert array.degrade_factor(1) == 3.0
        apply_event(array, FailureEvent(t=3.0, action="recover", shard=0))
        assert array.shard_state(0) == "up"
        with pytest.raises(StorageError):
            apply_event(array, FailureEvent(t=4.0, action="fail", shard=9))

    def test_degrade_of_failed_shard_is_skipped(self):
        array = _array()
        array.fail_shard(0)
        apply_event(array, FailureEvent(t=1.0, action="degrade", shard=0))
        assert array.shard_state(0) == "failed"

    def test_plan_rebuilds_picks_distinct_healthy_destinations(self):
        array = _fill(_array(shards=4, replication=2), n=8, nbytes=10.0)
        work = array.fail_shard(0)
        plans = plan_rebuilds(array, work)
        assert len(plans) == len(work)
        for plan in plans:
            assert not array.is_failed(plan.destination)
            assert plan.destination not in array.replicas(*plan.key)
            assert plan.source in array.replicas(*plan.key)

    def test_rebuild_reads_a_degraded_source_as_served(self, tmp_path):
        """A rebuild read off a degraded source costs exactly what a served
        read of the same bytes costs (``read_params_at``).  The shards run
        at 1e9 B/s: at a power-of-two bandwidth the two float
        associations of ``n / bw * f`` and ``n / (bw / f)`` agree."""
        array = ShardedDiskArray(
            disks=[DiskModel(read_bandwidth=1e9) for _ in range(3)],
            placement="round-robin", replication=2, clock=SimClock(),
        )
        nbytes = 9_017_032.0
        array.place("cam", "fmt", 0, nbytes)
        assert array.replicas("cam", "fmt", 0) == (0, 1)
        array.degrade_shard(1, 3.0)
        work = array.fail_shard(0)
        kv = KVStore(str(tmp_path / "segments.log"))
        (job,) = rebuild_jobs(SegmentStore(kv, array), work)
        kv.close()
        read = job.tasks[0]
        assert read.shard == 1
        bandwidth, overhead = array.read_params_at(1)
        assert read.duration == nbytes / bandwidth + overhead

    def test_plan_rebuilds_skips_when_no_destination(self):
        array = _fill(_array(shards=2, replication=2), n=2, nbytes=10.0)
        work = array.fail_shard(0)
        # Only shard 1 survives and it already holds the other copy.
        assert plan_rebuilds(array, work) == []


# ---------------------------------------------------------------------------
# Executor timeline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    lib = default_library(names=("Diff", "S-NN", "NN", "Motion", "License",
                                 "OCR"))
    s = VStore(workdir=str(tmp_path_factory.mktemp("failures")),
               library=lib, shards=4, replication=2)
    s.configure()
    s.ingest("jackson", n_segments=4)
    yield s
    s.close()


TENANTS = [
    TenantSpec(name="t", arrivals=ArrivalSpec(rate=0.5),
               mix=(QueryMixEntry(query="B", dataset="jackson"),),
               slo_seconds=10.0),
]

CAMPAIGN = "fail@5:0,degrade@5:1:6,recover@40:0,recover@40:1"


class TestExecutorTimeline:
    def test_schedule_failures_rejects_past_events(self, store):
        ex = store.executor(cache=None, metrics=None)
        ex.clock.charge(5.0, "idle")
        with pytest.raises(QueryError):
            ex.schedule_failures([FailureEvent(t=1.0, action="fail", shard=0)])

    def test_schedule_failures_rejects_started_executor(self, store):
        from repro.query.cascade import cascade_for

        ex = store.executor(cache=None, metrics=None)
        ex.admit(cascade_for("B"), "jackson", 0.9, 0.0, 16.0)
        ex.run()
        with pytest.raises(QueryError):
            ex.schedule_failures([FailureEvent(t=ex.clock.now + 1.0,
                                               action="fail", shard=0)])

    def test_trailing_events_extend_makespan(self, store):
        from repro.query.cascade import cascade_for

        ex = store.executor(cache=None, metrics=None)
        t = ex.clock.now + 50.0
        ex.schedule_failures([FailureEvent(t=t, action="recover", shard=0)])
        ex.admit(cascade_for("B"), "jackson", 0.9, 0.0, 16.0)
        ex.run()
        assert ex.clock.now == pytest.approx(t)

    def test_failure_events_appear_in_trace_both_cores(self, store):
        def run():
            ex = store.executor(cache=None, metrics=None, trace=True)
            from repro.query.cascade import cascade_for
            ex.admit(cascade_for("B"), "jackson", 0.9, 0.0, 16.0)
            ex.schedule_failures([
                FailureEvent(t=ex.clock.now + 1.0, action="degrade", shard=1),
                FailureEvent(t=ex.clock.now + 2.0, action="recover", shard=1),
            ])
            ex.run()
            return [e for e in ex.trace_events if e["query"] == "failures"]

        heap = run()
        with reference_loop():
            ref = run()
        assert heap == ref
        assert [e["kind"] for e in heap] == ["degrade", "degrade",
                                             "recover", "recover"]
        assert {e["event"] for e in heap} == {"start", "finish"}

    def test_admit_job_arrival_validated(self, store):
        from repro.query.scheduler import BackgroundJob, ResourceTask

        ex = store.executor(cache=None, metrics=None)
        job = BackgroundJob(name="j", stream="s", kind="rebuild", tasks=(
            ResourceTask(kind="read", resource="disk", units=1, duration=1.0,
                         category="disk", operator="rebuild"),
        ))
        with pytest.raises(QueryError):
            ex.admit_job(job, arrival=ex.clock.now - 5.0)


# ---------------------------------------------------------------------------
# End-to-end: serve under a campaign
# ---------------------------------------------------------------------------


class TestServeWithFailures:
    @pytest.fixture(autouse=True)
    def _fresh(self, store):
        # Destructive campaigns drop replica bookkeeping; a reopen
        # rebuilds the placement map (replica sets included) from the
        # persisted metadata, isolating each test's damage.
        store.reopen()

    def test_no_data_loss_below_replication_factor(self, store):
        report = store.serve(TENANTS, horizon=30.0, seed=5,
                             failures=CAMPAIGN)
        try:
            avail = report.availability
            assert avail is not None
            assert avail.max_concurrent_failures < avail.replication
            assert not avail.data_lost
            assert avail.lost_keys == 0
            assert avail.replicas_rebuilt == avail.rebuild_jobs > 0
            assert avail.rebuilt_bytes > 0
            assert avail.rebuild_done_at is not None
            assert avail.rebuild_seconds >= 0.0
            assert report.slo.overall.n_queries > 0
        finally:
            store.disk_array.reset_health()

    def test_rebuild_restores_full_redundancy(self, store):
        report = store.serve(TENANTS, horizon=30.0, seed=6,
                             failures="fail@5:2,recover@25:2")
        try:
            assert not report.availability.data_lost
            # Every key is back to k distinct live replicas.
            array = store.disk_array
            for key, replicas in array.replica_assignments().items():
                live = [r for r in replicas if not array.is_failed(r)]
                assert len(set(live)) >= array.replication
        finally:
            store.disk_array.reset_health()

    def test_serve_campaign_replays_bit_equal(self, store):
        def run():
            r = store.serve(TENANTS, horizon=25.0, seed=7,
                            failures="degrade@4:1:8,recover@20:1")
            store.disk_array.reset_health()
            return [(o.session.qid, o.session.finished_at, o.latency)
                    for o in r.outcomes]

        assert run() == run()

    def test_serve_cores_agree_under_campaign(self, store):
        def run():
            r = store.serve(TENANTS, horizon=25.0, seed=8,
                            failures="degrade@4:0:8,recover@20:0")
            store.disk_array.reset_health()
            return [(o.session.qid, o.session.finished_at, o.latency)
                    for o in r.outcomes]

        heap = run()
        with reference_loop():
            assert run() == heap

    def test_availability_none_without_campaign(self, store):
        report = store.serve(TENANTS, horizon=10.0, seed=9)
        assert report.availability is None

    def test_inject_failures_returns_rebuild_jobs(self, store):
        jobs = store.inject_failures("fail@0:3")
        try:
            assert jobs
            assert all(j.kind == "rebuild" for j in jobs)
            assert all(len(j.tasks) == 2 for j in jobs)
            reads, writes = zip(*[(j.tasks[0], j.tasks[1]) for j in jobs])
            assert all(t.kind == "read" for t in reads)
            assert all(t.kind == "replicate" for t in writes)
        finally:
            store.disk_array.recover_shard(3)


# ---------------------------------------------------------------------------
# Availability analysis
# ---------------------------------------------------------------------------


class TestAvailabilityAnalysis:
    def test_impairment_windows(self):
        from repro.analysis.availability import impairment_windows

        c = FailureCampaign.parse("degrade@2:1,fail@4:1,recover@8:1,fail@9:0")
        windows = impairment_windows(c, end=12.0)
        assert (2.0, 4.0, 1, "degrade") in windows
        assert (4.0, 8.0, 1, "fail") in windows
        assert (9.0, 12.0, 0, "fail") in windows

    def test_degraded_slowdown_defaults_to_one(self):
        from repro.analysis.availability import AvailabilityReport

        r = AvailabilityReport(
            replication=2, n_events=0, n_failures=0,
            max_concurrent_failures=0, lost_keys=0, lost_bytes=0.0,
            replicas_rebuilt=0, rebuilt_bytes=0.0, rebuild_jobs=0,
            rebuild_done_at=None, rebuild_seconds=None,
            degraded_queries=0, healthy_queries=5,
            degraded_mean_latency=0.0, healthy_mean_latency=1.0,
        )
        assert r.degraded_slowdown == 1.0
        assert not r.data_lost

    def test_format_availability_table(self, store):
        from repro.analysis.availability import format_availability_table

        store.reopen()
        report = store.serve(TENANTS, horizon=20.0, seed=11,
                             failures="fail@3:1,recover@15:1")
        store.disk_array.reset_health()
        text = format_availability_table(report.availability)
        assert "data lost          no" in text
        assert "replication k      2" in text
        assert "rebuild window" in text


# ---------------------------------------------------------------------------
# Persistence of failure damage across reopen
# ---------------------------------------------------------------------------


@pytest.mark.xfail(strict=True, reason=(
    "known defect, ROADMAP item 6: fail_shard drops the failed shard's "
    "copies from the array's books only; the segment metadata still lists "
    "them, so reopen() books them again"))
def test_reopen_keeps_replicas_a_shard_failure_destroyed(tmp_path):
    with VStore(workdir=str(tmp_path / "store"),
                library=default_library(names=("Diff", "S-NN", "NN")),
                shards=4, replication=2) as s:
        s.configure()
        s.ingest("jackson", n_segments=4)

        def on_shard_1():
            return [key for key, copies
                    in s.disk_array.replica_assignments().items()
                    if 1 in copies]

        s.inject_failures("fail@0:1")
        assert len(s.disk_array.replica_assignments()) == 16
        assert on_shard_1() == []
        s.flush()
        s.reopen()
        assert on_shard_1() == []  # 8 of the 16 keys have a copy there again
