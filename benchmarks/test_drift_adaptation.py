"""Drift-adaptation smoke benchmark: online evolution under query-mix drift.

Two BENCH.json cells back the CI drift-smoke job:

* ``drift_adaptation/smoke_scenario`` — the full three-arm regret scenario
  (:func:`repro.analysis.drift.drift_regret_report`).  The recovery
  fraction is the PR acceptance bar (>= 60% of the oracle's advantage) and
  is asserted here, so a planner or detector regression fails CI even
  though the cell's wall clock does not gate.
* ``drift_adaptation/smoke_evolve`` — one shared evolution run (foreground
  queries racing re-encode jobs on tight pools) whose scheduling
  throughput (``events_per_second``) is gated by ``bench-diff`` against
  the committed baseline, like the executor-scale smoke cell.
"""

from __future__ import annotations

import time

from repro.analysis.drift import (
    drift_regret_report,
    format_drift_table,
)
from repro.codec.decoder import DecoderPool
from repro.core.evolve import decide_consumers, legacy_configuration
from repro.core.store import VStore
from repro.operators.library import Consumer, default_library
from repro.query.scheduler import OperatorContextPool
from repro.storage.disk import DiskBandwidthPool
from repro.units import SEGMENT_SECONDS

RECOVERY_FLOOR = 0.60
#: Hard real-time budget for each smoke cell; the whole scenario runs in
#: about a second on a laptop, so a minute means something is badly wrong.
SMOKE_WALL_BUDGET = 60.0

PHASE1 = (Consumer("Motion", 0.9), Consumer("License", 0.9),
          Consumer("OCR", 0.9))
PHASE2 = (Consumer("Diff", 0.9), Consumer("S-NN", 0.9), Consumer("NN", 0.9))
N_SEGMENTS = 4
T1 = N_SEGMENTS * SEGMENT_SECONDS - 1.0


def _specs(query: str, count: int):
    return [{"query": query, "dataset": "jackson", "accuracy": 0.9,
             "t0": 0.0, "t1": T1} for _ in range(count)]


def test_drift_smoke_recovery(record, bench_metrics):
    """The acceptance scenario, timed: regret vs oracle on the 2-phase mix."""
    t0 = time.perf_counter()
    report = drift_regret_report()
    wall = time.perf_counter() - t0

    assert report.drifted
    assert report.recovery is not None
    assert report.recovery >= RECOVERY_FLOOR
    assert wall < SMOKE_WALL_BUDGET

    bench_metrics(
        "drift_adaptation/smoke_scenario",
        wall_seconds=round(wall, 4),
        recovery=round(report.recovery, 4),
        frozen_seconds=round(report.frozen_seconds, 4),
        online_seconds=round(report.online_seconds, 4),
        oracle_seconds=round(report.oracle_seconds, 4),
        drift_score=round(report.drift_score, 4),
        wall_budget_seconds=SMOKE_WALL_BUDGET,
    )
    record("Drift adaptation (regret vs oracle)", format_drift_table(report))


def test_drift_smoke_evolution_throughput(bench_metrics, tmp_path_factory):
    """Gated cell: event throughput of one contended evolution run."""
    lib = default_library(names=tuple(c.operator for c in PHASE1 + PHASE2))
    workdir = tmp_path_factory.mktemp("drift-smoke")
    with VStore(workdir=str(workdir), library=lib) as store:
        store.configure(consumers=list(PHASE1))
        store.ingest("jackson", n_segments=N_SEGMENTS)
        store.execute_many(_specs("B", 4))
        decisions = decide_consumers(
            store.library, PHASE2, clock=store.clock,
            known={d.consumer: d for d in store.configuration.decisions},
        )
        store.adopt(legacy_configuration(store.configuration, decisions))
        store.execute_many(_specs("A", 4))
        assert store.drift.drifted

        report = store.evolve_online(
            foreground=_specs("A", 2),
            disk_pool=DiskBandwidthPool(1),
            decoder_pool=DecoderPool(1),
            operator_pool=OperatorContextPool(2),
        )
        stats = report.stats

    assert report.replan.changed
    assert stats.events > 0
    assert stats.wall_seconds < SMOKE_WALL_BUDGET
    bench_metrics(
        "drift_adaptation/smoke_evolve",
        core=stats.core,
        shards=1,
        queries=stats.n_queries,
        events=stats.events,
        events_per_second=round(stats.events_per_second),
        wall_seconds=round(stats.wall_seconds, 4),
        sim_makespan=round(stats.makespan, 3),
        reencoded_segments=report.reencoded_segments,
        wall_budget_seconds=SMOKE_WALL_BUDGET,
    )
