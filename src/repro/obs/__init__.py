"""The unified observability plane.

Three modules, one contract:

* :mod:`repro.obs.trace` — the locked task-event schema, its single
  shared constructor (used by the executor's event loop), and the
  typed interval/span views built on the raw stream;
* :mod:`repro.obs.metrics` — the always-on counters/gauges/log-bucket
  histograms registry the executor, cache plane, sharded disks and
  drift detector feed;
* :mod:`repro.obs.export` — deterministic Chrome trace-event JSON (for
  Perfetto / ``chrome://tracing``) and the analytics tier, one
  deterministic JSONL file per table (DuckDB reads them as-is).

:class:`Observability` is the store-level facade ``VStore.observability()``
returns: the last run's trace plus the store's registry, with one-call
exports and critical-path/queue analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
    QuerySpan,
    TaskInterval,
    intervals_from_events,
    query_spans,
    task_event,
    validate_events,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.store import RunResult

__all__ = [
    "Observability",
    "MetricsRegistry",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "QuerySpan",
    "TaskInterval",
    "intervals_from_events",
    "query_spans",
    "task_event",
    "validate_events",
]


@dataclass
class Observability:
    """Store-level observability facade (``VStore.observability()``).

    Bundles the always-on metrics registry with the most recent run's
    trace so one object answers "what happened and where did time go":

    * :meth:`export` writes the whole bundle (Chrome trace + JSONL
      tables) into a directory;
    * :meth:`critical_paths` / :meth:`queue_depths` analyze the last
      trace; :meth:`spans` returns the typed per-query spans;
    * :meth:`summary` renders the CLI-facing text report.

    Traces are recorded when the executor traced the run (automatic up
    to 64 queries, forced via ``trace=True``); metrics aggregate always.
    """

    metrics: MetricsRegistry
    last_run: Optional["RunResult"] = None

    def _events(self) -> List[Dict[str, object]]:
        if self.last_run is None or not self.last_run.events:
            raise ValueError(
                "no traced run recorded; run a fleet first (fleets over 64 "
                "queries need trace=True to record events)"
            )
        return self.last_run.events

    # -- typed views -------------------------------------------------------

    def intervals(self) -> List[TaskInterval]:
        record = self.last_run
        return intervals_from_events(self._events(), record.started_at)

    def spans(self) -> List[QuerySpan]:
        record = self.last_run
        return query_spans(self._events(), record.started_at)

    # -- analysis ----------------------------------------------------------

    def critical_paths(self):
        from repro.analysis.obs import critical_paths

        record = self.last_run
        return critical_paths(self._events(), record.started_at)

    def queue_depths(self):
        from repro.analysis.obs import queue_depth_series

        record = self.last_run
        return queue_depth_series(self._events(), record.started_at)

    # -- export ------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        from repro.obs.export import chrome_trace

        record = self.last_run
        return chrome_trace(self._events(), record.started_at)

    def export(self, outdir: str,
               bench_path: Optional[str] = None) -> Dict[str, str]:
        """Write the full bundle; returns ``{table: path}``.

        Exports whatever exists: the last traced run (if any), the
        metrics snapshot, and optionally a BENCH.json history.
        """
        from repro.obs.export import export_run

        events: List[Dict[str, object]] = []
        start = None
        if self.last_run is not None and self.last_run.events:
            events = self.last_run.events
            start = self.last_run.started_at
        return export_run(
            outdir,
            events=events,
            metrics_rows=self.metrics.rows(),
            bench_path=bench_path,
            start_time=start,
        )

    # -- reporting ---------------------------------------------------------

    def summary(self) -> str:
        """Critical-path + queue-depth + metrics text report."""
        from repro.analysis.obs import (
            format_critical_path_table,
            format_metrics_table,
            format_queue_depth_table,
        )

        parts: List[str] = []
        if self.last_run is not None and self.last_run.events:
            parts.append(format_critical_path_table(self.critical_paths()))
            parts.append(format_queue_depth_table(self.queue_depths()))
        parts.append(format_metrics_table(self.metrics.snapshot()))
        return "\n\n".join(p for p in parts if p)
