"""Observability analysis: critical paths, queue depths, utilization.

The trace stream says what happened; these tables say what it *means*:

* :func:`critical_paths` attributes each query's latency to the resource
  that bound it — service plus queueing per resource, dominant one named
  — which is the per-query version of the paper's "where does simulated
  time go" argument (retrieval-bound vs decode-bound vs
  consumption-bound under contention);
* :func:`queue_depth_series` / :func:`utilization_rows` reconstruct, for
  every resource, how many tasks were running and how many were waiting
  at each change point of simulated time.  Waiting is recovered from the
  chain rule (a serial chain submits its next task the instant the
  previous one finishes), so no extra events are recorded;
* the ``format_*`` helpers render the fixed-width tables the CLI verbs
  (``trace export`` / ``metrics``) print.

Everything consumes the locked schema of :mod:`repro.obs.trace`; pass
``executor.trace_events``, a golden file's ``events`` list, or rows
reloaded from the JSONL tier interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.trace import QuerySpan, intervals_from_events, query_spans

__all__ = [
    "CriticalPath",
    "critical_paths",
    "format_critical_path_table",
    "format_metrics_table",
    "format_queue_depth_table",
    "queue_depth_series",
    "utilization_rows",
]


@dataclass(frozen=True)
class CriticalPath:
    """Latency attribution of one query: which resource bound it."""

    span: QuerySpan

    @property
    def query(self) -> str:
        return self.span.query

    @property
    def bound_resource(self) -> str:
        return self.span.bound_resource

    @property
    def bound_seconds(self) -> float:
        r = self.span.bound_resource
        return (self.span.service_by_resource.get(r, 0.0)
                + self.span.wait_by_resource.get(r, 0.0))

    @property
    def bound_fraction(self) -> float:
        """Share of the query's latency spent on the binding resource."""
        latency = self.span.latency
        return self.bound_seconds / latency if latency > 0 else 0.0


def critical_paths(
    events: Sequence[Mapping[str, object]],
    start_time: Optional[float] = None,
) -> List[CriticalPath]:
    """Per-query critical-path attribution, in first-submission order."""
    return [CriticalPath(span) for span in query_spans(events, start_time)]


def queue_depth_series(
    events: Sequence[Mapping[str, object]],
    start_time: Optional[float] = None,
) -> Dict[str, List[Tuple[float, int, int]]]:
    """Per-resource ``(t, running, waiting)`` change points over sim time.

    ``running`` counts tasks holding the resource at ``t``; ``waiting``
    counts tasks submitted to it but not yet granted.  Both step only at
    change points, so the series is exact and compact.
    """
    deltas: Dict[str, Dict[float, List[int]]] = {}

    def bump(resource: str, t: float, running: int, waiting: int) -> None:
        slot = deltas.setdefault(resource, {}).setdefault(t, [0, 0])
        slot[0] += running
        slot[1] += waiting

    for iv in intervals_from_events(events, start_time):
        bump(iv.resource, iv.submit, 0, 1)
        bump(iv.resource, iv.start, 1, -1)
        bump(iv.resource, iv.end, -1, 0)

    series: Dict[str, List[Tuple[float, int, int]]] = {}
    for resource in sorted(deltas):
        running = waiting = 0
        points: List[Tuple[float, int, int]] = []
        for t in sorted(deltas[resource]):
            d_run, d_wait = deltas[resource][t]
            running += d_run
            waiting += d_wait
            points.append((t, running, waiting))
        series[resource] = points
    return series


def utilization_rows(
    events: Sequence[Mapping[str, object]],
    start_time: Optional[float] = None,
) -> List[Dict[str, object]]:
    """The queue-depth series flattened to columnar analytics rows."""
    rows: List[Dict[str, object]] = []
    for resource, points in queue_depth_series(events, start_time).items():
        for t, running, waiting in points:
            rows.append({
                "resource": resource, "t": t,
                "running": running, "waiting": waiting,
            })
    return rows


# ---------------------------------------------------------------------------
# Fixed-width tables for the CLI
# ---------------------------------------------------------------------------


def format_critical_path_table(paths: Sequence[CriticalPath]) -> str:
    """One row per query: latency, waits, and the binding resource."""
    lines = [f"{'query':<28} {'latency':>10} {'service':>10} {'waited':>10} "
             f"{'bound by':>10} {'share':>6}"]
    lines.append("-" * len(lines[0]))
    for cp in paths:
        s = cp.span
        tag = " [bg]" if s.background else ""
        lines.append(
            f"{(s.query + tag):<28} {s.latency:>9.3f}s "
            f"{s.service_seconds:>9.3f}s {s.waited_seconds:>9.3f}s "
            f"{cp.bound_resource:>10} {cp.bound_fraction * 100:>5.0f}%"
        )
    return "\n".join(lines)


def format_queue_depth_table(
    series: Dict[str, List[Tuple[float, int, int]]],
) -> str:
    """Per-resource peak/mean queue depth and peak concurrency summary."""
    lines = [f"{'resource':<12} {'peak run':>8} {'peak wait':>9} "
             f"{'mean wait':>9} {'points':>7}"]
    lines.append("-" * len(lines[0]))
    for resource, points in series.items():
        if not points:
            continue
        peak_run = max(r for _, r, _ in points)
        peak_wait = max(w for _, _, w in points)
        # Time-weighted mean waiting depth over the observed span.
        total = 0.0
        span = points[-1][0] - points[0][0]
        for (t0, _, w), (t1, _, _) in zip(points, points[1:]):
            total += w * (t1 - t0)
        mean_wait = total / span if span > 0 else 0.0
        lines.append(
            f"{resource:<12} {peak_run:>8} {peak_wait:>9} "
            f"{mean_wait:>9.2f} {len(points):>7}"
        )
    return "\n".join(lines)


def format_metrics_table(snapshot: Dict[str, Dict]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as a fixed-width table."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    if counters or gauges:
        header = f"{'metric':<38} {'type':>9} {'value':>14}"
        lines.append(header)
        lines.append("-" * len(header))
        for name, value in counters.items():
            lines.append(f"{name:<38} {'counter':>9} {value:>14,.0f}")
        for name, value in gauges.items():
            lines.append(f"{name:<38} {'gauge':>9} {value:>14.4f}")
    if histograms:
        if lines:
            lines.append("")
        header = (f"{'histogram':<38} {'count':>7} {'mean':>10} "
                  f"{'p50':>10} {'p95':>10} {'p99':>10}")
        lines.append(header)
        lines.append("-" * len(header))
        for name, h in histograms.items():
            lines.append(
                f"{name:<38} {h['count']:>7} {h['mean']:>10.4f} "
                f"{h['p50']:>10.4f} {h['p95']:>10.4f} {h['p99']:>10.4f}"
            )
    return "\n".join(lines)
