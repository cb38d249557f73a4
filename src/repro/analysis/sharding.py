"""Sharded-storage analysis: per-shard occupancy, utilization, imbalance.

The sharded disk array (:mod:`repro.storage.sharding`) tracks what every
shard stores and how many simulated seconds it spent serving writes and
migrations; reads are the concurrent executor's retrieve tasks, which it
reports as per-shard channel-pool busy time.  This module folds both into
the report a store operator reads — how even the placement is, how busy
each spindle got, and how much parallel-retrieval speedup the sharding
actually delivered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.query.scheduler import ExecutorStats
from repro.storage.segment_store import SegmentStore
from repro.units import fmt_bytes


@dataclass(frozen=True)
class ShardRow:
    """One shard's occupancy and simulated service time."""

    shard: int
    stored_bytes: float
    stored_keys: int
    busy_write_seconds: float
    busy_migrate_seconds: float
    #: Executor channel-pool busy seconds ("disk:i" pool) — the run's
    #: reads and background I/O on this shard — when a run's stats were
    #: supplied; None otherwise.
    pool_busy_seconds: Optional[float] = None
    pool_utilization: Optional[float] = None


@dataclass(frozen=True)
class ShardingReport:
    """Aggregate view of a sharded store (optionally: of one run on it)."""

    placement: str
    n_shards: int
    rows: Tuple[ShardRow, ...]
    makespan: Optional[float] = None  # the run's simulated wall time

    @property
    def total_bytes(self) -> float:
        return sum(r.stored_bytes for r in self.rows)

    @property
    def byte_imbalance(self) -> float:
        """Max-minus-min stored bytes across shards (0 = perfectly even)."""
        loads = [r.stored_bytes for r in self.rows]
        return max(loads) - min(loads) if loads else 0.0

    @property
    def imbalance_ratio(self) -> float:
        """Max shard load over the mean load (1.0 = perfectly even)."""
        total = self.total_bytes
        if total <= 0 or not self.rows:
            return 1.0
        return max(r.stored_bytes for r in self.rows) / (total / len(self.rows))

    @property
    def retrieval_speedup(self) -> Optional[float]:
        """Achieved parallel-retrieval speedup over a one-shard array.

        The run's disk-pool busy seconds summed across shards, over the
        busiest single shard — the factor by which sharding compressed
        the retrieval-bound part of the run.  None without run stats or
        when no disk retrieval ran.
        """
        busy = [r.pool_busy_seconds for r in self.rows
                if r.pool_busy_seconds is not None]
        if not busy or max(busy) <= 0:
            return None
        return sum(busy) / max(busy)


def sharding_report(
    store: SegmentStore, stats: Optional[ExecutorStats] = None
) -> ShardingReport:
    """Build the per-shard report for one store."""
    array = store.array
    rows: List[ShardRow] = []
    shard_bytes = array.shard_bytes
    shard_keys = array.shard_keys
    for i in range(array.n_shards):
        pool_busy = pool_util = None
        if stats is not None:
            pool = array.io_resource(i)
            if pool in stats.busy_seconds:
                pool_busy = stats.busy_seconds[pool]
                pool_util = stats.utilization(pool)
        rows.append(ShardRow(
            shard=i,
            stored_bytes=shard_bytes[i],
            stored_keys=shard_keys[i],
            busy_write_seconds=array.busy_write_seconds[i],
            busy_migrate_seconds=array.busy_migrate_seconds[i],
            pool_busy_seconds=pool_busy,
            pool_utilization=pool_util,
        ))
    return ShardingReport(
        placement=array.placement.name,
        n_shards=array.n_shards,
        rows=tuple(rows),
        makespan=stats.makespan if stats else None,
    )


def format_sharding_table(report: ShardingReport) -> str:
    """Render the per-shard report the way the paper renders its tables."""
    lines: List[str] = []
    lines.append(
        f"Sharded storage: {report.n_shards} shards, "
        f"placement={report.placement}, {fmt_bytes(report.total_bytes)} "
        f"stored, imbalance {report.imbalance_ratio:.2f}x "
        f"(spread {fmt_bytes(report.byte_imbalance)})"
    )
    header = (f"{'shard':>5} {'stored':>10} {'keys':>6} "
              f"{'write':>9} {'migrate':>9} {'pool busy':>10} {'util':>6}")
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.rows:
        busy = "--" if r.pool_busy_seconds is None else f"{r.pool_busy_seconds:.3f}s"
        util = "--" if r.pool_utilization is None else f"{r.pool_utilization:.0%}"
        lines.append(
            f"{r.shard:>5} {fmt_bytes(r.stored_bytes):>10} {r.stored_keys:>6} "
            f"{r.busy_write_seconds:>8.3f}s {r.busy_migrate_seconds:>8.3f}s "
            f"{busy:>10} {util:>6}"
        )
    speedup = report.retrieval_speedup
    if speedup is not None:
        lines.append(f"parallel retrieval speedup: {speedup:.2f}x "
                     f"over a single shard")
    return "\n".join(lines)
