"""The global configuration object and the backward-derivation driver.

``derive_configuration`` runs the three steps of Figure 7 in order:
consumers -> consumption formats -> storage formats -> erosion plan,
collecting the profiling accounting along the way (Figure 14 and
Section 6.4 report overheads from these counters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.clock import SimClock
from repro.core.coalesce import CoalescePlan, SFPlan, StorageFormatPlanner
from repro.core.consumption import ConsumptionDecision, ConsumptionPlanner
from repro.core.erosion import ErosionPlan, ErosionPlanner
from repro.errors import ConfigurationError
from repro.ingest.budget import IngestBudget
from repro.operators.library import Consumer, OperatorLibrary
from repro.profiler.coding_profiler import CodingProfiler
from repro.profiler.profiler import OperatorProfiler
from repro.video.format import StorageFormat

#: Default mapping from operator to the dataset it is profiled on
#: (Section 6.1: Query A operators on jackson, Query B on dashcam).
DEFAULT_PROFILE_DATASETS: Dict[str, str] = {
    "Diff": "jackson",
    "S-NN": "jackson",
    "NN": "jackson",
    "Motion": "dashcam",
    "License": "dashcam",
    "OCR": "dashcam",
    "Opflow": "jackson",
    "Color": "jackson",
    "Contour": "jackson",
}


@dataclass
class ConfigStats:
    """Profiling-overhead accounting for one configuration round."""

    operator_runs: int = 0
    operator_seconds: float = 0.0
    coding_runs: int = 0
    coding_memo_hits: int = 0
    coding_seconds: float = 0.0
    coalesce_rounds: int = 0

    @property
    def total_seconds(self) -> float:
        return self.operator_seconds + self.coding_seconds


@dataclass
class Configuration:
    """The derived global set of video formats (Table 3)."""

    consumers: List[Consumer]
    decisions: List[ConsumptionDecision]
    plan: CoalescePlan
    erosion: Optional[ErosionPlan] = None
    stats: ConfigStats = field(default_factory=ConfigStats)
    #: The coding profiler (with its ProfileTable memos) that derived the
    #: plan; incremental re-planning threads it through so evolution
    #: warm-starts from the memoized surfaces instead of re-profiling.
    coding_profiler: Optional[CodingProfiler] = field(default=None,
                                                      repr=False)

    # -- lookups ---------------------------------------------------------------

    def decision_for(self, consumer: Consumer) -> ConsumptionDecision:
        for d in self.decisions:
            if d.consumer == consumer:
                return d
        raise ConfigurationError(f"no decision for consumer {consumer}")

    def storage_plan_for(self, consumer: Consumer) -> SFPlan:
        return self.plan.subscription(consumer)

    def storage_format(self, consumer: Consumer) -> StorageFormat:
        return self.storage_plan_for(consumer).fmt

    @property
    def storage_formats(self) -> List[StorageFormat]:
        return [sf.fmt for sf in self.plan.formats]

    @property
    def unique_cf_count(self) -> int:
        return len({d.fidelity for d in self.decisions})

    @property
    def knob_count(self) -> int:
        """Knobs set by this configuration: 4 per unique CF, 4 fidelity + 2
        coding knobs per encoded SF, 5 per raw SF (the paper's "109 knobs")."""
        cf_knobs = 4 * self.unique_cf_count
        sf_knobs = sum(5 if sf.fmt.is_raw else 6 for sf in self.plan.formats)
        return cf_knobs + sf_knobs


def resolve_profile_datasets(
    profile_datasets: Optional[Mapping[str, str]] = None,
) -> Dict[str, str]:
    """The operator -> profiling-dataset assignment actually in effect."""
    return dict(profile_datasets if profile_datasets is not None
                else DEFAULT_PROFILE_DATASETS)


def build_operator_profilers(
    library: OperatorLibrary,
    consumers: Sequence[Consumer],
    profile_datasets: Optional[Mapping[str, str]] = None,
    clock: Optional[SimClock] = None,
    profilers: Optional[Dict[str, OperatorProfiler]] = None,
) -> Dict[str, OperatorProfiler]:
    """Operator profilers for every dataset the consumers profile on.

    Extends (and returns) ``profilers`` in place when given, so sweeps can
    thread one shared profiler set through every sweep point instead of
    re-profiling per point.
    """
    datasets = resolve_profile_datasets(profile_datasets)
    if profilers is None:
        profilers = {}
    for consumer in consumers:
        dataset = datasets.get(consumer.operator)
        if dataset is None:
            raise ConfigurationError(
                f"no profiling dataset assigned for operator "
                f"{consumer.operator!r}"
            )
        if dataset not in profilers:
            profilers[dataset] = OperatorProfiler(library, dataset, clock=clock)
    return profilers


def derive_configuration(
    library: OperatorLibrary,
    consumers: Optional[Sequence[Consumer]] = None,
    profile_datasets: Optional[Mapping[str, str]] = None,
    ingest_budget: IngestBudget = IngestBudget(),
    storage_budget_bytes: Optional[float] = None,
    lifespan_days: int = 10,
    clock: Optional[SimClock] = None,
    profilers: Optional[Dict[str, OperatorProfiler]] = None,
    coding_profiler: Optional[CodingProfiler] = None,
) -> Configuration:
    """Backward derivation: the full Section 4 pipeline.

    ``profilers`` maps dataset name to an :class:`OperatorProfiler`; when
    omitted, profilers are created for every dataset named in
    ``profile_datasets`` (defaulting to the paper's assignment).
    """
    clock = clock or SimClock()
    consumers = list(consumers if consumers is not None
                     else library.consumers())
    if not consumers:
        raise ConfigurationError("cannot configure a store with no consumers")
    if profile_datasets is None:
        profile_datasets = DEFAULT_PROFILE_DATASETS
    datasets = dict(profile_datasets)

    profilers = build_operator_profilers(
        library, consumers, datasets, clock, profilers
    )

    # Step 1 (Section 4.2): consumption formats.
    decisions: List[ConsumptionDecision] = []
    for consumer in consumers:
        profiler = profilers[datasets[consumer.operator]]
        decisions.append(ConsumptionPlanner(profiler).derive(consumer))

    # Step 2 (Section 4.3): storage formats.
    if coding_profiler is None:
        activity = mean_profile_activity(profilers)
        coding_profiler = CodingProfiler(activity=activity, clock=clock)
    planner = StorageFormatPlanner(coding_profiler, ingest_budget)
    plan = planner.heuristic_coalesce(decisions)

    # Step 3 (Section 4.4): erosion plan.
    rates = {
        sf.label: coding_profiler.profile(sf.fmt).bytes_per_second
        for sf in plan.formats
    }
    erosion = ErosionPlanner(
        plan.formats, rates, lifespan_days
    ).plan(storage_budget_bytes)

    stats = ConfigStats(
        operator_runs=sum(p.stats.runs for p in profilers.values()),
        operator_seconds=sum(p.stats.seconds for p in profilers.values()),
        coding_runs=coding_profiler.stats.runs,
        coding_memo_hits=coding_profiler.stats.memo_hits,
        coding_seconds=coding_profiler.stats.seconds,
        coalesce_rounds=plan.rounds,
    )
    return Configuration(
        consumers=consumers,
        decisions=decisions,
        plan=plan,
        erosion=erosion,
        stats=stats,
        coding_profiler=coding_profiler,
    )


def mean_profile_activity(profilers: Mapping[str, OperatorProfiler]) -> float:
    """Mean content activity across profiling clips (size-model input)."""
    activities = [p.clip.mean_activity() for p in profilers.values()]
    return sum(activities) / len(activities) if activities else 0.35
