"""Multi-tenant query analysis: per-query latency, fairness, utilization.

The concurrent executor returns per-query :class:`~repro.query.scheduler.
QueryOutcome` objects and aggregate :class:`~repro.query.scheduler.
ExecutorStats`; this module turns them into the report a store operator
reads — who waited, how unfair the run was, and how busy each shared
resource got.

A query's *service time* (its task chain run serially) equals its
uncontended latency, so ``slowdown = latency / service`` measures the cost
of contention without rerunning anything in isolation.  Fairness over the
slowdowns uses Jain's index: 1.0 means every query was slowed equally, and
``1/n`` means one query absorbed the entire penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.query.scheduler import ExecutorStats, QueryOutcome


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 when all values are equal, 1/n at worst.

    Non-finite values are excluded — a zero-service query's slowdown is
    ``inf`` (pure queueing), which no ratio-of-sums can fold in.  With
    nothing finite left the index is 1.0 by the all-equal convention.
    """
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return 1.0
    total = sum(finite)
    squares = sum(v * v for v in finite)
    if squares <= 0:
        return 1.0
    return (total * total) / (len(finite) * squares)


@dataclass(frozen=True)
class QueryLatencyRow:
    """One query's end-to-end outcome under contention."""

    label: str
    stream: str
    latency: float  # simulated seconds, admit to finish
    service: float  # uncontended serial time of the query's own tasks
    waited: float  # time spent queued for busy resources
    slowdown: float  # latency / service
    speed: float  # x realtime over the contended latency
    deadline_met: Optional[bool]  # None when no deadline was set


@dataclass(frozen=True)
class ConcurrencyReport:
    """Aggregate view of one concurrent run."""

    policy: str
    n_queries: int
    makespan: float
    rows: Tuple[QueryLatencyRow, ...]
    utilization: Dict[str, Optional[float]]  # per resource; None = unbounded
    core: str = "heap"  # executor core that produced the run
    events: int = 0  # task start/finish events processed
    wall_seconds: float = 0.0  # real seconds the executor core spent

    @property
    def events_per_second(self) -> float:
        """Real-time scheduling throughput of the executor core."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    @property
    def mean_latency(self) -> float:
        return sum(r.latency for r in self.rows) / len(self.rows)

    @property
    def mean_slowdown(self) -> float:
        """Mean over the finite slowdown rows (zero-service outcomes with
        positive latency report ``inf`` and are excluded; an all-infinite
        run reports 1.0 by convention — its harm lives in the latencies)."""
        finite = [r.slowdown for r in self.rows if math.isfinite(r.slowdown)]
        if not finite:
            return 1.0
        return sum(finite) / len(finite)

    @property
    def max_slowdown(self) -> float:
        return max(r.slowdown for r in self.rows)

    @property
    def fairness(self) -> float:
        """Jain's index over per-query slowdowns."""
        return jain_index([r.slowdown for r in self.rows])

    @property
    def deadline_misses(self) -> int:
        return sum(1 for r in self.rows if r.deadline_met is False)


def concurrency_report(
    outcomes: Sequence[QueryOutcome], stats: ExecutorStats
) -> ConcurrencyReport:
    """Build the operator-facing report of one concurrent run."""
    if not outcomes:
        raise ValueError("no outcomes: admit and run queries first")
    rows = tuple(
        QueryLatencyRow(
            label=o.session.label,
            stream=o.session.stream,
            latency=o.latency,
            service=o.service_seconds,
            waited=o.waited_seconds,
            slowdown=o.slowdown,
            speed=o.result.speed,
            deadline_met=o.deadline_met,
        )
        for o in outcomes
    )
    utilization = {
        name: stats.utilization(name) for name in stats.capacities
    }
    return ConcurrencyReport(
        policy=stats.policy,
        n_queries=stats.n_queries,
        makespan=stats.makespan,
        rows=rows,
        utilization=utilization,
        core=stats.core,
        events=stats.events,
        wall_seconds=stats.wall_seconds,
    )


def format_concurrency_table(report: ConcurrencyReport) -> str:
    """Render a concurrent run the way the paper renders its tables."""
    lines: List[str] = []
    lines.append(
        f"Concurrent run: {report.n_queries} queries, policy={report.policy}, "
        f"makespan={report.makespan:.3f}s"
    )
    header = (f"{'query':<28} {'stream':<12} {'latency':>9} {'service':>9} "
              f"{'waited':>9} {'slowdn':>7} {'speed':>9} {'dline':>6}")
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.rows:
        deadline = "-" if r.deadline_met is None else ("ok" if r.deadline_met else "MISS")
        lines.append(
            f"{r.label:<28} {r.stream:<12} {r.latency:>9.3f} {r.service:>9.3f} "
            f"{r.waited:>9.3f} {r.slowdown:>6.2f}x {r.speed:>8.1f}x {deadline:>6}"
        )
    util = ", ".join(
        f"{name}={'--' if frac is None else f'{frac:.0%}'}"
        for name, frac in sorted(report.utilization.items())
    )
    lines.append(
        f"mean slowdown {report.mean_slowdown:.2f}x, fairness (Jain) "
        f"{report.fairness:.3f}, utilization: {util}"
    )
    if report.events:
        lines.append(
            f"executor [{report.core}]: {report.events} events in "
            f"{report.wall_seconds:.3f}s real "
            f"({report.events_per_second:,.0f} events/s)"
        )
    return "\n".join(lines)
