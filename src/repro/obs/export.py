"""Exporters: Chrome trace-event JSON and the JSONL analytics tier.

Two evidence formats, two audiences:

* :func:`chrome_trace` / :func:`write_chrome_trace` render a run's task
  intervals as Chrome trace-event JSON — open the file in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing`` and *see* where
  simulated time went: one process lane per query with its serial task
  slices, plus per-resource occupancy counter tracks.  The output is
  deterministic byte-for-byte (sorted keys, canonical float rounding),
  so it is golden-testable like the raw traces;
* the analytics tier (:func:`write_rows` / :func:`read_rows` /
  :func:`export_run`) persists trace events, per-task intervals,
  utilization timelines, per-query spans, metrics snapshots, and bench
  history as deterministic JSONL tables, one sorted-keys object per row.
  DuckDB reads them as-is (``SELECT ... FROM 'trace_events.jsonl'``),
  which turns cross-commit regression diffing into a query instead of an
  eyeball pass.

Nothing here imports the executor: exporters consume the locked trace
schema (:mod:`repro.obs.trace`) and plain row dicts, so they work on a
live run, a golden file, or a BENCH.json equally.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional, Sequence

from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    intervals_from_events,
    phase_of,
    query_spans,
)

__all__ = [
    "chrome_trace",
    "export_run",
    "bench_history_rows",
    "read_rows",
    "write_chrome_trace",
    "write_rows",
]


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------

#: pid reserved for the per-resource occupancy counter tracks; query
#: lanes start at pid 1 in first-submission order.
_RESOURCE_PID = 0


def _us(seconds: float) -> float:
    """Canonical microsecond timestamp: rounded so output is stable."""
    return round(seconds * 1e6, 3)


def chrome_trace(
    events: Sequence[Mapping[str, object]],
    start_time: Optional[float] = None,
) -> Dict[str, object]:
    """Render one executor trace as a Chrome trace-event payload.

    Layout: one *process* per query (named lane in Perfetto), one ``X``
    complete-slice per task (``args`` carry resource, phase and queueing
    delay), and per-resource ``C`` counter tracks plotting how many
    tasks each pool is running over simulated time.  Deterministic for a
    given event stream.
    """
    intervals = intervals_from_events(events, start_time)
    trace_events: List[Dict[str, object]] = []

    queries: List[str] = []
    for iv in intervals:
        if iv.query not in queries:
            queries.append(iv.query)
    pid_of = {q: i + 1 for i, q in enumerate(queries)}

    trace_events.append({
        "ph": "M", "pid": _RESOURCE_PID, "tid": 0,
        "name": "process_name", "args": {"name": "resources"},
    })
    for q in queries:
        trace_events.append({
            "ph": "M", "pid": pid_of[q], "tid": 0,
            "name": "process_name", "args": {"name": q},
        })

    for iv in intervals:
        trace_events.append({
            "ph": "X",
            "pid": pid_of[iv.query],
            "tid": 0,
            "ts": _us(iv.start),
            "dur": _us(iv.duration),
            "name": f"{iv.kind}:{iv.operator}",
            "cat": iv.phase,
            "args": {
                "resource": iv.resource,
                "wait_us": _us(iv.wait),
                "background": iv.background,
            },
        })

    # Occupancy counters: +1 at each start, -1 at each end, one track
    # per resource, emitted at every change point.
    deltas: Dict[str, List] = {}
    for iv in intervals:
        deltas.setdefault(iv.resource, []).append((iv.start, 1))
        deltas.setdefault(iv.resource, []).append((iv.end, -1))
    for resource in sorted(deltas):
        running = 0
        last_t = None
        for t, delta in sorted(deltas[resource]):
            if last_t is not None and t != last_t:
                trace_events.append({
                    "ph": "C", "pid": _RESOURCE_PID, "tid": 0,
                    "ts": _us(last_t), "name": f"occupancy:{resource}",
                    "args": {"running": running},
                })
            running += delta
            last_t = t
        if last_t is not None:
            trace_events.append({
                "ph": "C", "pid": _RESOURCE_PID, "tid": 0,
                "ts": _us(last_t), "name": f"occupancy:{resource}",
                "args": {"running": running},
            })

    return {
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.export",
            "trace_schema_version": TRACE_SCHEMA_VERSION,
        },
        "traceEvents": trace_events,
    }


def write_chrome_trace(
    path: str,
    events: Sequence[Mapping[str, object]],
    start_time: Optional[float] = None,
) -> str:
    """Write the Chrome trace to ``path``; bytes are deterministic."""
    payload = chrome_trace(events, start_time)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, ensure_ascii=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# The JSONL analytics tier
# ---------------------------------------------------------------------------


def _normalize_rows(rows: Sequence[Mapping[str, object]]) -> List[Dict]:
    """Uniform key-set across rows (None-filled), keys sorted, so every
    row of a table has one schema."""
    keys = sorted({k for row in rows for k in row})
    return [{k: row.get(k) for k in keys} for row in rows]


def write_rows(path: str, rows: Sequence[Mapping[str, object]]) -> str:
    """Write one analytics table to a ``.jsonl`` path: one sorted-keys
    JSON object per line, bit-deterministic for a given row sequence."""
    if not path.endswith(".jsonl"):
        raise ValueError(f"analytics tables are .jsonl, not {path!r}")
    with open(path, "w") as fh:
        for row in _normalize_rows(rows):
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=True))
            fh.write("\n")
    return path


def read_rows(path: str) -> List[Dict]:
    """Reload an analytics table written by :func:`write_rows`."""
    if not path.endswith(".jsonl"):
        raise ValueError(f"analytics tables are .jsonl, not {path!r}")
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def bench_history_rows(path: str) -> List[Dict]:
    """Flatten one BENCH.json into analytics rows (one per metric cell)."""
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != 1:
        raise ValueError(f"{path}: unsupported BENCH schema "
                         f"{data.get('schema')!r}")
    rows: List[Dict] = []
    for cell in sorted(data.get("metrics", {})):
        rows.append({"cell": cell, **data["metrics"][cell]})
    return rows


def export_run(
    outdir: str,
    events: Sequence[Mapping[str, object]] = (),
    metrics_rows: Sequence[Mapping[str, object]] = (),
    bench_path: Optional[str] = None,
    start_time: Optional[float] = None,
) -> Dict[str, str]:
    """Export one run's full observability bundle into ``outdir``.

    Writes (when the corresponding input is non-empty):

    * ``chrome_trace.json`` — the Perfetto-loadable trace;
    * ``trace_events.*`` — the raw locked-schema event stream;
    * ``intervals.*`` — per-task intervals with submit/wait;
    * ``queries.*`` — per-query spans (critical resource, phase split);
    * ``utilization.*`` — per-resource running/waiting timeline;
    * ``metrics.*`` — the registry snapshot, flattened;
    * ``bench_history.*`` — flattened BENCH.json cells.

    Returns ``{table name: written path}``.  ``*`` is ``.jsonl``; every
    table reloads bit-equal through :func:`read_rows`.
    """
    os.makedirs(outdir, exist_ok=True)
    written: Dict[str, str] = {}

    def _table(name: str, rows: Sequence[Mapping[str, object]]) -> None:
        if rows:
            written[name] = write_rows(
                os.path.join(outdir, name + ".jsonl"), rows
            )

    if events:
        written["chrome_trace"] = write_chrome_trace(
            os.path.join(outdir, "chrome_trace.json"), events, start_time
        )
        _table("trace_events", list(events))
        intervals = intervals_from_events(events, start_time)
        _table("intervals", [
            {
                "query": iv.query, "kind": iv.kind, "operator": iv.operator,
                "resource": iv.resource, "phase": phase_of(iv.resource),
                "submit": iv.submit, "start": iv.start, "end": iv.end,
                "duration": iv.duration, "wait": iv.wait,
                "background": iv.background,
            }
            for iv in intervals
        ])
        spans = query_spans(events, start_time)
        _table("queries", [
            {
                "query": s.query, "admitted": s.admitted,
                "finished": s.finished, "latency": s.latency,
                "n_tasks": s.n_tasks, "service": s.service_seconds,
                "waited": s.waited_seconds,
                "bound_resource": s.bound_resource,
                "background": s.background,
                "single_flight": s.single_flight,
            }
            for s in spans
        ])
        from repro.analysis.obs import utilization_rows

        _table("utilization", utilization_rows(events, start_time))
    _table("metrics", list(metrics_rows))
    if bench_path is not None:
        _table("bench_history", bench_history_rows(bench_path))
    return written
