"""Programmatic figure data: the series behind the paper's plots.

The benchmarks print human-readable tables; downstream users who want to
*plot* Table 4 or Figure 12 need the raw series.  Each function here
returns plain dictionaries of lists, ready for any plotting library.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.clock import SimClock
from repro.core.config import (
    Configuration,
    build_operator_profilers,
    derive_configuration,
    mean_profile_activity,
    resolve_profile_datasets,
)
from repro.ingest.budget import IngestBudget
from repro.operators.library import (
    OperatorLibrary,
    TABLE2_ORDER,
    default_library,
)
from repro.profiler.coding_profiler import CodingProfiler
from repro.profiler.profiler import OperatorProfiler


def _memo_delta(
    profiler: CodingProfiler, since: Tuple[int, int]
) -> Tuple[float, Tuple[int, int]]:
    """Cache-reuse rate since the last snapshot, plus the new snapshot.

    Reuse counts both profiler-memo and planner adequacy-cache hits (the
    Section 6.4 examined-format metric).
    """
    runs = profiler.stats.runs
    hits = profiler.stats.memo_hits + profiler.stats.adequacy_hits
    d_runs, d_hits = runs - since[0], hits - since[1]
    rate = d_hits / (d_runs + d_hits) if (d_runs + d_hits) else 0.0
    return rate, (runs, hits)


def budget_sweep_series(
    library: OperatorLibrary,
    fractions: Sequence[float] = (0.8, 0.55, 0.4),
    floor: float = 0.35,
    profile_datasets: Optional[Mapping[str, str]] = None,
) -> Dict[str, List]:
    """Table 4 series: one configuration per ingestion budget.

    A single operator-profiler set and one :class:`CodingProfiler` (hence
    one shared :class:`~repro.codec.tables.ProfileTable` memo) are threaded
    through every sweep point — re-deriving per point would re-profile the
    identical formats from scratch.  ``memo_hit_rate`` reports, per point,
    the fraction of profiler lookups served from the memo (the paper's
    Section 6.4 metric; 92% in the paper's measurement).
    """
    clock = SimClock()
    consumers = list(library.consumers())
    profilers = build_operator_profilers(
        library, consumers, profile_datasets, clock
    )
    coding_profiler = CodingProfiler(
        activity=mean_profile_activity(profilers), clock=clock
    )
    out: Dict[str, List] = {
        "budget": [], "ingest_cores": [], "storage_bytes_per_second": [],
        "codings": [], "memo_hit_rate": [], "profiler_runs": [],
    }
    snapshot = (0, 0)

    def derive(cores: Optional[float]) -> Configuration:
        return derive_configuration(
            library,
            consumers=consumers,
            profile_datasets=profile_datasets,
            ingest_budget=IngestBudget(cores),
            clock=clock,
            profilers=profilers,
            coding_profiler=coding_profiler,
        )

    baseline = derive(None)
    budgets: List[Optional[float]] = [None] + [
        max(floor, baseline.plan.ingest_cores * f) for f in fractions
    ]
    for cores in budgets:
        config = baseline if cores is None else derive(cores)
        rate, snapshot = _memo_delta(coding_profiler, snapshot)
        out["budget"].append(cores)
        out["ingest_cores"].append(config.plan.ingest_cores)
        out["storage_bytes_per_second"].append(
            config.plan.storage_bytes_per_second
        )
        out["codings"].append(
            [sf.fmt.coding.label for sf in config.plan.formats]
        )
        out["memo_hit_rate"].append(rate)
        out["profiler_runs"].append(coding_profiler.stats.runs)
    return out


def operator_scaling_series(
    operator_order: Sequence[str] = TABLE2_ORDER,
    profile_datasets: Optional[Mapping[str, str]] = None,
) -> Dict[str, List]:
    """Figure 12 series: ingest cost and SF count as operators are added.

    Operator profilers are shared across sweep points (an operator's
    profile does not depend on which other operators are deployed), and
    coding profilers are shared per content-activity value, so each point
    only profiles the formats its new operator demands.
    """
    full_library = default_library(names=tuple(operator_order))
    clock = SimClock()
    profilers: Dict[str, OperatorProfiler] = {}
    coding_profilers: Dict[float, CodingProfiler] = {}
    snapshots: Dict[float, Tuple[int, int]] = {}
    out: Dict[str, List] = {
        "n_operators": [], "added": [], "ingest_cores": [],
        "n_formats": [], "memo_hit_rate": [],
    }
    for n in range(1, len(operator_order) + 1):
        library = default_library(names=tuple(operator_order[:n]))
        consumers = list(library.consumers())
        build_operator_profilers(
            full_library, consumers, profile_datasets, clock, profilers
        )
        datasets = resolve_profile_datasets(profile_datasets)
        needed = {datasets[c.operator] for c in consumers}
        point_profilers = {ds: profilers[ds] for ds in needed}
        activity = mean_profile_activity(point_profilers)
        coding_profiler = coding_profilers.get(activity)
        if coding_profiler is None:
            coding_profiler = CodingProfiler(activity=activity, clock=clock)
            coding_profilers[activity] = coding_profiler
            snapshots[activity] = (0, 0)
        config = derive_configuration(
            library,
            consumers=consumers,
            profile_datasets=profile_datasets,
            clock=clock,
            profilers=dict(point_profilers),
            coding_profiler=coding_profiler,
        )
        rate, snapshots[activity] = _memo_delta(
            coding_profiler, snapshots[activity]
        )
        out["n_operators"].append(n)
        out["added"].append(operator_order[n - 1])
        out["ingest_cores"].append(config.plan.ingest_cores)
        out["n_formats"].append(len(config.plan.formats))
        out["memo_hit_rate"].append(rate)
    return out

