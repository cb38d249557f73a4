"""Multi-core fleet execution: determinism, isolation rules, merging.

The parallel path's contract is that forking changes *nothing* about the
simulated results — ``run_fleets`` with ``parallel=N`` must produce
reports bit-equal to the in-process ``parallel=1`` run, fleet by fleet.
These tests pin that, plus the refusal of cross-fleet state (shared
cache, shared clock) and of a closed store, the worker-failure
propagation, and the report-merging arithmetic.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.concurrency import ConcurrencyReport
from repro.core.store import VStore
from repro.errors import QueryError, StorageError
from repro.operators.library import default_library
from repro.query.parallel import merge_reports, run_fleets


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    lib = default_library(names=("Diff", "S-NN", "NN", "Motion", "License",
                                 "OCR"))
    with VStore(workdir=str(tmp_path_factory.mktemp("vstore")),
                library=lib) as s:
        s.configure()
        s.ingest("dashcam", n_segments=8)
        s.ingest("jackson", n_segments=8)
        yield s


FLEETS = [
    [dict(query="A", dataset="jackson", accuracy=0.9, t0=0.0, t1=16.0),
     dict(query="B", dataset="dashcam", accuracy=0.9, t0=0.0, t1=16.0)],
    [dict(query="B", dataset="jackson", accuracy=0.8, t0=0.0, t1=16.0)],
    [dict(query="A", dataset="dashcam", accuracy=0.9, t0=8.0, t1=24.0),
     dict(query="A", dataset="jackson", accuracy=0.9, t0=0.0, t1=16.0)],
    [dict(query="B", dataset="dashcam", accuracy=0.8, t0=0.0, t1=32.0)],
]


def _no_wall(report):
    # wall_seconds is real (host) time — the one field allowed to differ
    # between a serial and a forked run of the same fleet.
    return dataclasses.replace(report, wall_seconds=0.0)


class TestDeterminism:
    def test_parallel_reports_bit_equal_to_serial(self, store):
        serial = run_fleets(store, FLEETS, 1)
        forked = run_fleets(store, FLEETS, 2)
        assert len(serial) == len(forked) == len(FLEETS)
        for s, f in zip(serial, forked):
            assert _no_wall(s) == _no_wall(f)

    def test_more_workers_than_fleets(self, store):
        # Workers are capped at the fleet count; order is preserved.
        serial = run_fleets(store, FLEETS[:2], 1)
        forked = run_fleets(store, FLEETS[:2], 16)
        for s, f in zip(serial, forked):
            assert _no_wall(s) == _no_wall(f)

    def test_executor_kwargs_reach_the_workers(self, store):
        reports = run_fleets(store, FLEETS[:2], 2, policy="fair")
        assert all(r.policy == "fair" for r in reports)

    def test_store_survives_the_forks(self, store):
        # The parent's backing log must stay usable after flush + forks.
        run_fleets(store, FLEETS[:2], 2)
        outcome = store.execute_many(
            [dict(query="A", dataset="jackson", accuracy=0.9,
                  t0=0.0, t1=8.0)]
        )
        assert outcome[0].result.speed > 0


class TestIsolationRules:
    def test_refuses_zero_workers(self, store):
        with pytest.raises(QueryError, match="at least one worker"):
            run_fleets(store, FLEETS, 0)

    def test_refuses_shared_cache(self, store):
        with pytest.raises(QueryError, match="cache"):
            run_fleets(store, FLEETS, 2, cache=object())

    def test_refuses_shared_clock(self, store):
        with pytest.raises(QueryError, match="clock"):
            run_fleets(store, FLEETS, 2, clock=object())

    def test_worker_failure_propagates(self, store):
        bad = [
            [dict(query="A", dataset="jackson", accuracy=0.9,
                  t0=0.0, t1=16.0)],
            [dict(query="A", dataset="no-such-dataset", accuracy=0.9,
                  t0=0.0, t1=16.0)],
        ]
        with pytest.raises(QueryError, match="fleet workers failed"):
            run_fleets(store, bad, parallel=2)

    def test_execute_many_takes_no_fleets(self, store):
        """Fleets fan out through run_fleets only: execute_many runs one
        fleet and returns its outcomes, whatever it is passed."""
        with pytest.raises(TypeError):
            store.execute_many(FLEETS, parallel=2)

    def test_closed_store_refused_before_forking(self, tmp_path,
                                                 monkeypatch):
        import multiprocessing

        def no_fork(*args, **kwargs):
            raise AssertionError("run_fleets forked for a closed store")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        closed = VStore(workdir=str(tmp_path / "w"))
        closed.close()
        with pytest.raises(StorageError, match="closed"):
            run_fleets(closed, FLEETS, 2)


class TestMergeReports:
    def _report(self, makespan, util, events=10, wall=1.0, core="heap",
                n_queries=1):
        return ConcurrencyReport(
            policy="fifo", n_queries=n_queries, makespan=makespan,
            rows=(), utilization=util, core=core, events=events,
            wall_seconds=wall,
        )

    def test_sums_and_maxima(self):
        merged = merge_reports([
            self._report(2.0, {}, events=10, wall=1.0, n_queries=3),
            self._report(5.0, {}, events=20, wall=2.0, n_queries=4),
        ])
        assert merged.n_queries == 7
        assert merged.events == 30
        assert merged.makespan == 5.0  # fleets are concurrent: slowest wins
        assert merged.wall_seconds == 3.0  # default: serial-equivalent sum

    def test_wall_override_for_measured_elapsed(self):
        merged = merge_reports(
            [self._report(1.0, {}), self._report(1.0, {})],
            wall_seconds=0.5,
        )
        assert merged.wall_seconds == 0.5
        assert merged.events_per_second == 20 / 0.5

    def test_utilization_weighted_by_makespan(self):
        merged = merge_reports([
            self._report(1.0, {"disk": 0.5}),
            self._report(3.0, {"disk": 1.0}),
        ])
        # total busy over total simulated time: (0.5*1 + 1.0*3) / 4
        assert merged.utilization["disk"] == pytest.approx(0.875)

    def test_unbounded_pool_stays_unbounded(self):
        merged = merge_reports([
            self._report(1.0, {"decoder": None}),
            self._report(1.0, {"decoder": 0.25}),
        ])
        assert merged.utilization["decoder"] is None

    def test_core_label_mixed_when_fleets_disagree(self):
        same = merge_reports([self._report(1.0, {}, core="fastpath"),
                              self._report(1.0, {}, core="fastpath")])
        assert same.core == "fastpath"
        mixed = merge_reports([self._report(1.0, {}, core="fastpath"),
                               self._report(1.0, {}, core="heap")])
        assert mixed.core == "mixed"

    def test_refuses_empty(self):
        with pytest.raises(ValueError, match="no reports"):
            merge_reports([])


class TestForkSafety:
    def test_reopen_after_fork_in_process(self, store):
        # Callable without an actual fork: flush, drop the inherited
        # handle, reopen — the store must stay fully readable.
        store.flush()
        store.reopen_after_fork()
        outcome = store.execute_many(
            [dict(query="B", dataset="dashcam", accuracy=0.9,
                  t0=0.0, t1=8.0)]
        )
        assert outcome[0].result.speed > 0
