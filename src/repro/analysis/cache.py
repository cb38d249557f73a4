"""Cache-plane analysis: hit rates, savings, tier migration, warm-vs-cold.

The cache plane keeps raw counters; this module turns a
:class:`~repro.cache.plane.CacheStats` snapshot into the table a store
operator reads — per-tier hit rates, bytes and simulated seconds the cache
kept off the disk/decoder/operators, eviction pressure, and the state of
the hot-segment promotion loop — plus a warm-vs-cold comparison of two
concurrent runs (the headline number of the cache benchmark: how much of
the multi-tenant contention penalty a warm cache removes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.concurrency import ConcurrencyReport
from repro.cache.plane import CacheStats, TierCounters
from repro.units import fmt_bytes


@dataclass(frozen=True)
class WarmColdComparison:
    """The same workload against the same store, cold cache vs warm."""

    cold: ConcurrencyReport
    warm: ConcurrencyReport

    @property
    def slowdown_reduction(self) -> float:
        """Fraction of the mean contention slowdown the warm cache removed."""
        cold_excess = self.cold.mean_slowdown - 1.0
        warm_excess = self.warm.mean_slowdown - 1.0
        if cold_excess <= 0:
            return 0.0
        return max(0.0, 1.0 - warm_excess / cold_excess)

    @property
    def makespan_speedup(self) -> float:
        if self.warm.makespan <= 0:
            return float("inf")
        return self.cold.makespan / self.warm.makespan


def _tier_row(name: str, tier: TierCounters) -> str:
    return (
        f"{name:<10} {tier.hits:>8} {tier.misses:>8} {tier.hit_rate:>8.1%} "
        f"{tier.evictions:>7} {tier.rejections:>7} "
        f"{fmt_bytes(tier.occupancy_bytes):>10} / {fmt_bytes(tier.capacity_bytes):<10} "
        f"{fmt_bytes(tier.bytes_saved):>10} {tier.seconds_saved:>9.3f}s"
    )


def format_cache_table(stats: CacheStats) -> str:
    """Render a cache-plane snapshot the way the paper renders its tables."""
    lines: List[str] = []
    # Savings are resource work-seconds (a 4-context stage saved on all 4
    # counts 4x), not wall time — contention removed can exceed makespan.
    lines.append(
        f"Retrieval cache (policy={stats.policy}): "
        f"{stats.seconds_saved:.3f} resource-seconds of simulated work "
        f"avoided, {fmt_bytes(stats.bytes_saved)} kept off disk/decoder"
    )
    header = (f"{'tier':<10} {'hits':>8} {'misses':>8} {'hit rate':>8} "
              f"{'evict':>7} {'reject':>7} {'occupancy':>23} "
              f"{'bytes saved':>10} {'sec saved':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    lines.append(_tier_row("frames", stats.frames))
    lines.append(_tier_row("results", stats.results))
    lines.append(
        f"single-flight: {stats.single_flight_hits} in-flight retrievals "
        f"deduplicated, {stats.single_flight_seconds_saved:.3f}s saved"
    )
    if stats.tiering is not None:
        t = stats.tiering
        lines.append(
            f"tiering: {t.promoted_segments} segments on the fast tier "
            f"({fmt_bytes(t.fast_occupancy_bytes)} / "
            f"{fmt_bytes(t.fast_capacity_bytes)}), "
            f"{t.promotions} promotions, {t.demotions} demotions, "
            f"{fmt_bytes(t.migrated_bytes)} migrated in "
            f"{t.migration_seconds:.3f}s"
        )
    return "\n".join(lines)


def format_warm_cold_table(comparison: WarmColdComparison) -> str:
    """Cold-vs-warm contention summary of one repeated workload."""
    cold, warm = comparison.cold, comparison.warm
    lines = [
        f"{'run':<6} {'queries':>8} {'makespan':>10} {'mean slowdn':>12} "
        f"{'max slowdn':>11} {'fairness':>9}",
    ]
    for name, report in (("cold", cold), ("warm", warm)):
        lines.append(
            f"{name:<6} {report.n_queries:>8} {report.makespan:>9.3f}s "
            f"{report.mean_slowdown:>11.2f}x {report.max_slowdown:>10.2f}x "
            f"{report.fairness:>9.3f}"
        )
    lines.append(
        f"warm cache removes {comparison.slowdown_reduction:.0%} of the "
        f"contention slowdown ({comparison.makespan_speedup:.1f}x makespan "
        f"speedup)"
    )
    return "\n".join(lines)
