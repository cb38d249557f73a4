"""The concurrent multi-query executor: degenerate parity, contention,
policies, and shared-resource accounting."""

import pytest

from repro.clock import SimClock
from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.errors import QueryError
from repro.operators.library import default_library
from repro.query.alternatives import one_to_one_scheme
from repro.query.cascade import QUERY_A, QUERY_B
from repro.query.scheduler import OperatorContextPool
from repro.storage.disk import DiskBandwidthPool

from oracles import _execute_sequential


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    lib = default_library(names=("Diff", "S-NN", "NN", "Motion", "License",
                                 "OCR"))
    with VStore(workdir=str(tmp_path_factory.mktemp("vstore")),
                library=lib) as s:
        s.configure()
        s.ingest("dashcam", n_segments=8)
        s.ingest("jackson", n_segments=8)
        s.ingest("jackson", n_segments=8, stream="cam01")
        yield s


def _run_one(store, **spec):
    """One query run alone through the store's one run path."""
    return store.execute_many([spec])[0].result


class TestDegenerateParity:
    """execute is the N=1 case of the concurrent path — and must be
    bit-identical to the original sequential loop."""

    @pytest.mark.parametrize("contexts", [1, 4])
    def test_execute_matches_sequential_reference(self, store, contexts):
        engine = store.engine("dashcam")
        new = _run_one(store, query=QUERY_B, dataset="dashcam",
                       accuracy=0.9, t0=0.0, t1=64.0, contexts=contexts)
        ref = _execute_sequential(engine, QUERY_B, 0.9, store.segments,
                                  0.0, 64.0, contexts=contexts)
        assert new.compute_seconds == ref.compute_seconds  # bit-identical
        assert new.speed == ref.speed
        assert new.positives_per_stage == ref.positives_per_stage
        assert new.segments_per_stage == ref.segments_per_stage

    def test_parity_under_alternative_scheme(self, store):
        engine = store.engine("jackson")
        scheme = one_to_one_scheme(store.configuration)
        new = _run_one(store, query=QUERY_A, dataset="jackson",
                       accuracy=0.8, t0=0.0, t1=32.0, scheme=scheme)
        ref = _execute_sequential(engine, QUERY_A, 0.8, store.segments,
                                  0.0, 32.0, scheme=scheme)
        assert new.compute_seconds == ref.compute_seconds
        assert new.positives_per_stage == ref.positives_per_stage

    def test_executor_n1_matches_execute(self, store):
        direct = store.execute("B", "dashcam", 0.9, 0.0, 64.0)
        ex = store.executor()
        ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 64.0)
        outcome = ex.run()[0]
        assert outcome.result.compute_seconds == direct.compute_seconds
        assert outcome.slowdown == 1.0  # nothing to contend with
        assert outcome.waited_seconds == 0.0

    def test_clock_categories_cover_all_time(self, store):
        """Every simulated second is attributed to a charge category."""
        clock = SimClock()
        store.execute_many([dict(query=QUERY_B, dataset="dashcam",
                                 accuracy=0.9, t0=0.0, t1=64.0)],
                           clock=clock)
        assert sum(clock.by_category.values()) == pytest.approx(clock.now)


class TestContention:
    def test_constrained_decoder_slows_queries_down(self, store):
        ex = store.executor(decoder_pool=DecoderPool(1))
        for _ in range(4):
            ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 64.0)
        outcomes = ex.run()
        assert all(o.slowdown > 1.0 for o in outcomes)
        assert all(o.latency > o.service_seconds for o in outcomes)
        # the pool still parallelizes non-decoder work: the whole run is
        # faster than running the four queries back to back
        stats = ex.stats()
        assert stats.makespan < sum(o.service_seconds for o in outcomes)

    def test_uncontended_pools_do_not_slow_down(self, store):
        ex = store.executor()  # all pools unbounded
        for _ in range(4):
            ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 64.0)
        outcomes = ex.run()
        assert all(o.slowdown == pytest.approx(1.0) for o in outcomes)

    def test_resource_accounting_conserved(self, store):
        ex = store.executor(decoder_pool=DecoderPool(2),
                            operator_pool=OperatorContextPool(2))
        for _ in range(3):
            ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 64.0)
        outcomes = ex.run()
        stats = ex.stats()
        # busy seconds per resource equal the admitted plans' task durations
        for resource in ("disk", "decoder", "operators"):
            planned = sum(
                t.duration * t.units
                for o in outcomes
                for t in o.session.plan.tasks
                if t.resource == resource
            )
            assert stats.busy_seconds[resource] == pytest.approx(planned)
        util = stats.utilization("decoder")
        assert util is not None and 0.0 < util <= 1.0
        assert stats.utilization("disk") is None or stats.utilization("disk") <= 1.0

    def test_gang_contexts_clamped_to_pool(self, store):
        ex = store.executor(operator_pool=OperatorContextPool(2))
        session = ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 64.0, contexts=8)
        assert session.contexts == 2
        consume_units = {t.units for t in session.plan.tasks
                        if t.kind == "consume"}
        assert consume_units == {2}

    def test_consume_units_never_exceed_stage_work(self, store):
        """A stage with fewer surviving segments than contexts cannot use
        the extra contexts; it must not gang-reserve them either."""
        ex = store.executor(operator_pool=OperatorContextPool(8))
        session = ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 64.0, contexts=8)
        for stage in session.plan.stages:
            consume = stage.tasks[-1]
            assert consume.kind == "consume"
            assert consume.units == max(1, min(8, stage.touched))

    def test_multi_stream_fleet(self, store):
        """Queries over distinct streams contend only on shared hardware."""
        ex = store.executor(decoder_pool=DecoderPool(1),
                            disk_pool=DiskBandwidthPool(1))
        ex.admit(QUERY_A, "jackson", 0.8, 0.0, 32.0)
        ex.admit(QUERY_A, "jackson", 0.8, 0.0, 32.0, stream="cam01")
        a, b = ex.run()
        # aliased footage is the same content: identical isolated cost
        assert a.service_seconds == b.service_seconds
        assert a.result.positives_per_stage == b.result.positives_per_stage


class TestStreamAlias:
    def test_conflicting_dataset_for_stream_rejected(self, store):
        """One stream has one content model: re-ingesting an existing
        stream name with a different dataset must fail loudly instead of
        silently reusing the cached pipeline's content."""
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            store.ingest("dashcam", n_segments=1, stream="cam01")
        with pytest.raises(ConfigurationError):
            store.ingest("dashcam", n_segments=1, stream="jackson")

    def test_slash_in_stream_name_rejected(self, store):
        """Keys are '/'-structured: a '/' in a stream alias would leak it
        into other streams' prefix scans."""
        with pytest.raises(ValueError):
            store.ingest("dashcam", n_segments=1, stream="cam/front")

    def test_ingestion_report_for_aliased_stream(self, store):
        report = store.ingestion_report("jackson", stream="cam01")
        assert report.stream == "cam01"
        plain = store.ingestion_report("jackson")
        assert report.bytes_per_day == pytest.approx(plain.bytes_per_day)

    def test_alias_executes_identically_to_dataset_stream(self, store):
        direct = store.execute("A", "jackson", 0.8, 0.0, 32.0)
        aliased = _run_one(store, query=QUERY_A, dataset="jackson",
                           accuracy=0.8, t0=0.0, t1=32.0, stream="cam01")
        assert aliased.compute_seconds == direct.compute_seconds
        assert aliased.positives_per_stage == direct.positives_per_stage


class TestPolicies:
    def test_fifo_finishes_identical_queries_in_admit_order(self, store):
        ex = store.executor(decoder_pool=DecoderPool(1), policy="fifo")
        for _ in range(4):
            ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 64.0)
        outcomes = ex.run()
        finishes = [o.session.finished_at for o in outcomes]
        assert finishes == sorted(finishes)

    def _last_light_latency(self, store, policy):
        ex = store.executor(decoder_pool=DecoderPool(1), policy=policy)
        for _ in range(3):
            ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 64.0)
        light = ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 8.0)
        outcomes = ex.run()
        return next(o for o in outcomes if o.session is light).latency

    def test_fair_share_protects_the_light_query(self, store):
        fifo = self._last_light_latency(store, "fifo")
        fair = self._last_light_latency(store, "fair")
        assert fair <= fifo

    def test_deadline_policy_prioritizes_dated_query(self, store):
        def run(policy):
            ex = store.executor(decoder_pool=DecoderPool(1), policy=policy)
            for _ in range(3):
                ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 64.0)
            dated = ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 32.0,
                             deadline=2.0)
            outcomes = ex.run()
            return next(o for o in outcomes if o.session is dated)

        fifo = run("fifo")
        edf = run("edf")
        assert edf.latency < fifo.latency
        assert edf.deadline_met is not None

    @pytest.mark.parametrize("policy", ["lifo", "FIFO", None])
    def test_unknown_policy_name_is_rejected(self, store, policy):
        with pytest.raises(QueryError, match="unknown scheduling policy"):
            store.executor(policy=policy)

    def test_deadline_outcome_reported(self, store):
        ex = store.executor()
        ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 8.0, deadline=1e9)
        ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 8.0)
        met, undated = ex.run()
        assert met.deadline_met is True
        assert undated.deadline_met is None


class TestAdmissionErrors:
    @pytest.mark.parametrize("t0, t1", [
        (8.0, 8.0),
        (0.0, float("nan")),
        (float("nan"), 8.0),
        (0.0, float("inf")),
        (-16.0, 8.0),
    ])
    def test_empty_range_rejected_at_admit(self, store, t0, t1):
        ex = store.executor()
        with pytest.raises(QueryError):
            ex.admit(QUERY_B, "dashcam", 0.9, t0, t1)

    def test_admit_after_run_rejected(self, store):
        ex = store.executor()
        ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 8.0)
        ex.run()
        with pytest.raises(QueryError):
            ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 8.0)
        with pytest.raises(QueryError):
            ex.run()

    def test_invalid_contexts_rejected(self, store):
        ex = store.executor()
        with pytest.raises(QueryError):
            ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 8.0, contexts=0)


class TestFacade:
    def test_execute_many_round_trip(self, store):
        outcomes = store.execute_many(
            [
                dict(query="B", dataset="dashcam", accuracy=0.9,
                     t0=0.0, t1=32.0),
                dict(query="A", dataset="jackson", accuracy=0.8,
                     t0=0.0, t1=32.0, stream="cam01"),
            ],
            decoder_pool=DecoderPool(1),
        )
        assert len(outcomes) == 2
        assert outcomes[0].session.dataset == "dashcam"
        assert outcomes[1].session.stream == "cam01"
        assert all(o.latency > 0 for o in outcomes)

    def test_executor_requires_workdir(self):
        lib = default_library(names=("Motion", "License", "OCR"))
        store = VStore(library=lib)
        store.configure()
        with pytest.raises(QueryError):
            store.executor()

    def test_no_executor_core_option(self, store):
        """One production loop: neither a core nor the fast path is a
        caller's choice (the parity oracles live in tests/oracles)."""
        for option in ({"core": "heap"}, {"fastpath": False}):
            with pytest.raises(TypeError):
                store.executor(**option)
        with pytest.raises(TypeError):
            store.execute("A", "jackson", 0.9, 0.0, 8.0, core="heap")


class TestReports:
    def test_concurrency_report_and_table(self, store):
        from repro.analysis import (
            concurrency_report,
            format_concurrency_table,
            jain_index,
        )

        ex = store.executor(decoder_pool=DecoderPool(1))
        for _ in range(3):
            ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 32.0)
        outcomes = ex.run()
        report = concurrency_report(outcomes, ex.stats())
        assert report.n_queries == 3
        assert len(report.rows) == 3
        assert report.mean_slowdown >= 1.0
        assert 1.0 / 3 <= report.fairness <= 1.0
        assert report.makespan == pytest.approx(
            max(o.session.finished_at for o in outcomes)
        )
        text = format_concurrency_table(report)
        assert "fairness (Jain)" in text
        assert "q0:B@dashcam" in text

        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3)
        assert jain_index([]) == 1.0


class TestTraceOptIn:
    """Per-event trace recording is opt-in past TRACE_AUTO_QUERIES.

    ``stats().events`` must stay honest either way — the counter always
    runs; only the per-event dict allocation is skipped."""

    def _run(self, store, n, **kwargs):
        ex = store.executor(**kwargs)
        for _ in range(n):
            ex.admit(QUERY_A, "jackson", 0.9, 0.0, 8.0)
        ex.run()
        return ex

    def test_small_fleet_traces_by_default(self, store):
        ex = self._run(store, 2)
        assert ex.trace_events
        assert len(ex.trace_events) == ex.stats().events

    def test_forced_off_keeps_event_count(self, store):
        traced = self._run(store, 2)
        silent = self._run(store, 2, trace=False)
        assert silent.trace_events == []
        assert silent.stats().events == traced.stats().events > 0

    def test_auto_threshold_is_inclusive(self, store):
        from repro.query.scheduler import TRACE_AUTO_QUERIES

        at = self._run(store, TRACE_AUTO_QUERIES)
        assert at.trace_events  # 64 queries still trace by default
        over = self._run(store, TRACE_AUTO_QUERIES + 1)
        assert over.trace_events == []
        assert over.stats().events > at.stats().events

    def test_forced_on_overrides_threshold(self, store):
        from repro.query.scheduler import TRACE_AUTO_QUERIES

        ex = self._run(store, TRACE_AUTO_QUERIES + 1, trace=True)
        assert len(ex.trace_events) == ex.stats().events

    def test_cli_flag_parses_three_ways(self):
        from repro.cli import build_parser

        parser = build_parser()
        base = ["execute", "A", "--workdir", "w"]
        assert parser.parse_args(base).trace is None
        assert parser.parse_args(base + ["--trace"]).trace is True
        assert parser.parse_args(base + ["--no-trace"]).trace is False
