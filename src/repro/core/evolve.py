"""Adapting to changes in operators and hardware (Section 7).

VStore works with any queries composed from its pre-defined library.  When
the library *changes*, the paper prescribes incremental adaptation rather
than wholesale reconfiguration:

* **adding an operator (or accuracy level)**: profile the newcomer and
  derive its consumption formats.  For *forthcoming* videos the storage
  formats are re-derived; for *existing* videos — transcoding old footage
  is too expensive — each new CF subscribes to the cheapest existing SF
  with satisfiable fidelity (R1 holds, so accuracy is met; retrieval may be
  slower than optimal until that footage ages out).
* **hardware changes** (e.g. a new GPU): all operators are re-profiled,
  which this module models by rebuilding the configuration with fresh
  profilers under the new cost model.

Since the online-evolution refactor this module also hosts the *live*
adaptation path: :func:`replan_incremental` hill-climbs a new configuration
from the current plan (Mode-3 style, warm-started via the coding profiler's
memo tables), :func:`legacy_configuration` lets frozen stores keep answering
drifted queries from existing formats, and the job builders at the bottom
(:func:`reencode_jobs`, :func:`retirement_jobs`) turn the plan diff into
:class:`~repro.query.scheduler.BackgroundJob` chains that contend with
foreground queries on the executor's shared pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.clock import SimClock
from repro.codec.encoder import Encoder
from repro.codec.model import DEFAULT_CODEC
from repro.core.coalesce import (
    CoalescePlan,
    Demand,
    SFPlan,
    StorageFormatPlanner,
)
from repro.core.config import (
    ConfigStats,
    Configuration,
    DEFAULT_PROFILE_DATASETS,
    build_operator_profilers,
    derive_configuration,
    mean_profile_activity,
    resolve_profile_datasets,
)
from repro.core.consumption import ConsumptionDecision, ConsumptionPlanner
from repro.core.erosion import ErosionPlanner
from repro.errors import ConfigurationError
from repro.ingest.budget import IngestBudget
from repro.operators.library import Consumer, OperatorLibrary
from repro.profiler.coding_profiler import CodingProfiler
from repro.profiler.profiler import OperatorProfiler
from repro.retrieval.speed import retrieval_speed
from repro.storage.segment_store import SegmentStore
from repro.video.format import StorageFormat


@dataclass(frozen=True)
class LegacySubscription:
    """A new consumer bound to an *existing* storage format.

    ``optimal`` is False when the legacy format satisfies fidelity (R1) but
    cannot match the consumer's consumption speed (R2) — the paper's
    "operators run with designated accuracies, albeit slower than optimal".
    """

    consumer: Consumer
    decision: ConsumptionDecision
    storage: SFPlan
    effective_speed: float
    optimal: bool


@dataclass
class EvolvedConfiguration:
    """Outcome of adding operators to a configured store."""

    #: Configuration applied to forthcoming videos (SFs re-derived).
    forthcoming: Configuration
    #: Subscriptions of the *new* consumers on already-stored videos.
    legacy: List[LegacySubscription]


def subscribe_to_existing(
    decision: ConsumptionDecision, formats: Sequence[SFPlan]
) -> LegacySubscription:
    """Bind a new consumer to the cheapest existing SF with satisfiable
    fidelity (Section 7's rule for footage already on disk)."""
    candidates = [
        sf for sf in formats if sf.fidelity.richer_equal(decision.fidelity)
    ]
    if not candidates:
        raise ConfigurationError(
            f"no existing storage format can supply {decision.fidelity.label}"
            " — the golden format should always qualify"
        )

    def cost_key(sf: SFPlan) -> Tuple[float, float]:
        # Cheapest to retrieve from, then fewest pixels (cheapest to hold).
        speed = retrieval_speed(sf.fmt, decision.fidelity.sampling)
        return (-speed, sf.fidelity.pixels)

    best = min(candidates, key=cost_key)
    speed = retrieval_speed(best.fmt, decision.fidelity.sampling)
    effective = min(speed, decision.consumption_speed)
    return LegacySubscription(
        consumer=decision.consumer,
        decision=decision,
        storage=best,
        effective_speed=effective,
        optimal=speed >= decision.consumption_speed,
    )


def add_operators(
    config: Configuration,
    library: OperatorLibrary,
    new_consumers: Sequence[Consumer],
    profile_datasets: Optional[Dict[str, str]] = None,
    clock: Optional[SimClock] = None,
) -> EvolvedConfiguration:
    """Admit new consumers into a configured store (Section 7).

    ``library`` must already contain the new operators.  Existing consumers
    keep their decisions; only the newcomers are profiled, which keeps the
    adaptation cost at O(new operators) rather than a full round.
    """
    clock = clock or SimClock()
    datasets = dict(profile_datasets or DEFAULT_PROFILE_DATASETS)
    existing = {c for c in config.consumers}
    added = [c for c in new_consumers if c not in existing]
    if not added:
        raise ConfigurationError("no new consumers to add")

    profilers: Dict[str, OperatorProfiler] = {}
    new_decisions: List[ConsumptionDecision] = []
    for consumer in added:
        dataset = datasets.get(consumer.operator)
        if dataset is None:
            raise ConfigurationError(
                f"no profiling dataset assigned for {consumer.operator!r}"
            )
        if dataset not in profilers:
            profilers[dataset] = OperatorProfiler(library, dataset,
                                                  clock=clock)
        planner = ConsumptionPlanner(profilers[dataset])
        new_decisions.append(planner.derive(consumer))

    # Existing videos: bind each new CF to the cheapest satisfiable SF.
    legacy = [
        subscribe_to_existing(d, config.plan.formats) for d in new_decisions
    ]

    # Forthcoming videos: re-derive the configuration over the full
    # consumer set, reusing the already-built profilers.
    forthcoming = derive_configuration(
        library,
        consumers=list(config.consumers) + added,
        profile_datasets=datasets,
        clock=clock,
        profilers=profilers,
    )
    return EvolvedConfiguration(forthcoming=forthcoming, legacy=legacy)


def reprofile_for_hardware(
    library: OperatorLibrary,
    config: Configuration,
    speedup: float,
    profile_datasets: Optional[Dict[str, str]] = None,
) -> Configuration:
    """Re-derive the configuration after a hardware change (Section 7).

    ``speedup`` scales every operator's consumption speed (e.g. 2.0 for a
    GPU twice as fast).  All operators are re-profiled; the caller applies
    the new SFs to forthcoming videos only, exactly as with operator
    additions.
    """
    if speedup <= 0:
        raise ConfigurationError(f"speedup must be positive: {speedup}")
    for op in library:
        # Faster hardware divides the per-frame costs.
        op.cost_base = op.cost_base / speedup
        op.cost_per_mp = op.cost_per_mp / speedup
    try:
        return derive_configuration(
            library,
            consumers=config.consumers,
            profile_datasets=profile_datasets,
        )
    finally:
        for op in library:
            op.cost_base = op.cost_base * speedup
            op.cost_per_mp = op.cost_per_mp * speedup


# -- incremental re-planning (online evolution) ------------------------------


def decide_consumers(
    library: OperatorLibrary,
    consumers: Sequence[Consumer],
    profile_datasets: Optional[Mapping[str, str]] = None,
    clock: Optional[SimClock] = None,
    known: Optional[Mapping[Consumer, ConsumptionDecision]] = None,
    profilers: Optional[Dict[str, OperatorProfiler]] = None,
) -> List[ConsumptionDecision]:
    """Consumption decisions for ``consumers``, profiling only the unknown.

    ``known`` carries decisions from the current configuration; consumers
    found there are returned as-is, so a stationary mix costs zero profiler
    runs and a drifted mix costs O(new consumers) — the same property
    :func:`add_operators` has, packaged for the re-planner.
    """
    clock = clock or SimClock()
    datasets = resolve_profile_datasets(profile_datasets)
    known = dict(known or {})
    missing = [c for c in consumers if c not in known]
    if missing:
        profilers = build_operator_profilers(
            library, missing, datasets, clock, profilers
        )
    decisions: List[ConsumptionDecision] = []
    for consumer in consumers:
        decision = known.get(consumer)
        if decision is None:
            planner = ConsumptionPlanner(
                profilers[datasets[consumer.operator]]
            )
            decision = planner.derive(consumer)
            known[consumer] = decision
        decisions.append(decision)
    return decisions


@dataclass
class ReplanResult:
    """An incrementally re-derived configuration, diffed against the old."""

    configuration: Configuration
    #: Formats in the new plan that the old plan did not hold (must be
    #: materialized by re-encode jobs before the plan can serve queries).
    added: List[SFPlan]
    #: Old formats the new plan dropped (retired once the plan commits).
    removed: List[SFPlan]
    #: Formats present in both plans (their stored segments carry over).
    kept: List[SFPlan]

    @property
    def changed(self) -> bool:
        return bool(self.added or self.removed)


def replan_incremental(
    config: Configuration,
    library: OperatorLibrary,
    consumers: Sequence[Consumer],
    profile_datasets: Optional[Mapping[str, str]] = None,
    ingest_budget: IngestBudget = IngestBudget(),
    storage_budget_bytes: Optional[float] = None,
    lifespan_days: int = 10,
    clock: Optional[SimClock] = None,
) -> ReplanResult:
    """Re-derive the configuration for a drifted mix, warm from the old.

    The paper's Mode-3 planner: instead of re-running the full backward
    derivation, the hill-climb restarts from the *current* plan
    (:meth:`StorageFormatPlanner.incremental_coalesce
    <repro.core.coalesce.StorageFormatPlanner.incremental_coalesce>`) and
    only the consumers the old configuration never decided are profiled.
    The old configuration's coding profiler — with its ProfileTable memos —
    is threaded through, so every (fidelity, coding) surface point the old
    derivation already paid for is a memo hit here.
    """
    clock = clock or SimClock()
    consumers = list(consumers)
    if not consumers:
        raise ConfigurationError("cannot re-plan with no consumers")
    known = {d.consumer: d for d in config.decisions}
    profilers: Dict[str, OperatorProfiler] = {}
    decisions = decide_consumers(
        library, consumers, profile_datasets, clock,
        known=known, profilers=profilers,
    )

    coding_profiler = config.coding_profiler
    if coding_profiler is None:
        # A configuration built without the warm-start channel (hand-rolled
        # in tests, or loaded from an older store) re-plans cold.
        coding_profiler = CodingProfiler(
            activity=mean_profile_activity(profilers), clock=clock
        )
    planner = StorageFormatPlanner(coding_profiler, ingest_budget)
    plan = planner.incremental_coalesce(decisions, config.plan.formats)

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
    configuration = Configuration(
        consumers=consumers,
        decisions=decisions,
        plan=plan,
        erosion=erosion,
        stats=stats,
        coding_profiler=coding_profiler,
    )

    old_labels = {sf.label for sf in config.plan.formats}
    new_labels = {sf.label for sf in plan.formats}
    return ReplanResult(
        configuration=configuration,
        added=[sf for sf in plan.formats if sf.label not in old_labels],
        removed=[sf for sf in config.plan.formats
                 if sf.label not in new_labels],
        kept=[sf for sf in plan.formats if sf.label in old_labels],
    )


def legacy_configuration(
    config: Configuration,
    new_decisions: Sequence[ConsumptionDecision],
) -> Configuration:
    """A *frozen* store's answer to a drifted mix: subscribe, don't evolve.

    Consumers already in ``config`` keep their subscriptions; every new
    decision binds to the cheapest existing SF with satisfiable fidelity
    (:func:`subscribe_to_existing` — the golden format always qualifies).
    The returned configuration shares the frozen plan's format set (demand
    lists are copied, stored segments are untouched), so the query engine
    can plan and execute the drifted queries against the unchanged store.
    This is the baseline online evolution is measured against in
    :mod:`repro.analysis.drift`.
    """
    formats = [
        SFPlan(sf.fidelity, sf.coding, list(sf.demands), golden=sf.golden)
        for sf in config.plan.formats
    ]
    decisions = list(config.decisions)
    known = {d.consumer for d in decisions}
    for decision in new_decisions:
        if decision.consumer in known:
            continue
        sub = subscribe_to_existing(decision, formats)
        sub.storage.demands.append(
            Demand(decision.consumer, decision.fidelity,
                   decision.consumption_speed, legacy=True)
        )
        decisions.append(decision)
        known.add(decision.consumer)
    plan = CoalescePlan(
        formats=formats,
        storage_bytes_per_second=config.plan.storage_bytes_per_second,
        ingest_cores=config.plan.ingest_cores,
        rounds=config.plan.rounds,
    )
    return Configuration(
        consumers=[d.consumer for d in decisions],
        decisions=decisions,
        plan=plan,
        erosion=config.erosion,
        stats=config.stats,
        coding_profiler=config.coding_profiler,
    )


# -- background-job builders -------------------------------------------------
#
# Each builder turns one piece of an adopted plan diff into
# :class:`~repro.query.scheduler.BackgroundJob` chains.  The tasks charge
# the executor's pools (disk channels, decoder, operator contexts) with the
# modeled cost of the physical work, and each chain's *final* task carries
# the ``on_done`` hook that commits the store mutation at the simulated
# completion instant — so a mutation lands only after its I/O and compute
# were actually paid for under contention.  The scheduler is imported
# inside the builders: ``repro.core`` loads before ``repro.query`` in the
# package graph, so a module-level import would cycle.


def reencode_jobs(
    store: SegmentStore,
    stream: str,
    targets: Sequence[StorageFormat],
    source: StorageFormat,
    *,
    epoch: int,
) -> List["BackgroundJob"]:  # noqa: F821 - imported in the function body
    """One re-encode job per new format: read golden, decode, encode, write.

    Every stored segment of ``source`` (the golden format — the only one
    guaranteed to satisfy any new format's fidelity) becomes a four-task
    chain: a shard-routed disk read, a decode on the decoder pool (skipped
    for raw sources), a transcode on the operator pool whose cost is
    exactly the ingest encoder's, and a disk write whose ``on_done``
    commits the segment via :meth:`SegmentStore.put` with ``charge=False``
    (the write time was already paid on the channel pool) tagged with the
    in-flight ``epoch``.  The write is charged to the *source* segment's
    shard — a locality approximation; the placement policy assigns the
    committed segment's real shard at put time.
    """
    from repro.query.scheduler import BackgroundJob, ResourceTask

    jobs: List[BackgroundJob] = []
    if not targets:
        return jobs
    # Each golden segment is looked up and routed once, for every target.
    metas = store.meta_many(stream, source, store.indices(stream, source))
    for target in targets:
        tasks: List[ResourceTask] = []
        for meta in metas:
            # Read from the serving shard as a foreground read would, with
            # any degrade factor folded into the bandwidth.
            tasks.append(ResourceTask(
                kind="read", resource="disk", units=1,
                duration=store.array.read_seconds(meta.shard,
                                                  meta.size_bytes),
                category="disk", operator="reencode", shard=meta.shard,
            ))
            if not source.coding.raw:
                tasks.append(ResourceTask(
                    kind="decode", resource="decoder", units=1,
                    duration=meta.n_frames * DEFAULT_CODEC.decode_frame_seconds(
                        source.fidelity, source.coding
                    ),
                    category="decode", operator="reencode",
                ))
            # A scratch-clock encoder reproduces the ingest pipeline's
            # exact cost and size floats for the re-encoded segment.
            scratch = SimClock()
            encoded = Encoder(scratch).encode(
                meta.segment, target, meta.activity
            )
            tasks.append(ResourceTask(
                kind="transcode", resource="operators", units=1,
                duration=scratch.by_category.get("ingest", 0.0),
                category="ingest", operator="reencode",
            ))
            tasks.append(ResourceTask(
                kind="write", resource="disk", units=1,
                duration=store.array.write_seconds(meta.shard,
                                                   encoded.size_bytes),
                category="disk", operator="reencode", shard=meta.shard,
                on_done=(lambda e=encoded:
                         store.put(e, epoch=epoch, charge=False)),
            ))
        if tasks:
            jobs.append(BackgroundJob(
                name=f"reencode:{target.label}", stream=stream,
                kind="reencode", tasks=tuple(tasks),
            ))
    return jobs


def retirement_jobs(
    store: SegmentStore,
    stream: str,
    retired: Sequence[StorageFormat],
) -> List["BackgroundJob"]:  # noqa: F821
    """Delete every stored segment of the formats the new plan dropped.

    Deletes are metadata operations: each is a zero-byte write (one
    request overhead) on the segment's shard channel, and the ``on_done``
    hook performs the actual :meth:`SegmentStore.delete` at the simulated
    instant.
    """
    from repro.query.scheduler import BackgroundJob, ResourceTask

    jobs: List[BackgroundJob] = []
    for fmt in retired:
        tasks: List[ResourceTask] = []
        for index in store.indices(stream, fmt):
            shard = store.shard_of(stream, fmt, index)
            tasks.append(ResourceTask(
                kind="delete", resource="disk", units=1,
                duration=store.array.write_seconds(shard, 0.0),
                category="disk", operator="retire", shard=shard,
                on_done=(lambda s=stream, f=fmt, i=index:
                         store.delete(s, f, i)),
            ))
        if tasks:
            jobs.append(BackgroundJob(
                name=f"retire:{fmt.label}", stream=stream,
                kind="retire", tasks=tuple(tasks),
            ))
    return jobs


@dataclass
class EvolutionReport:
    """Outcome of one ``VStore.evolve_online`` round."""

    replan: ReplanResult
    epoch: int
    #: Every outcome of the shared run (foreground queries, then re-encode
    #: jobs), followed by the retirement run's; tell queries and jobs
    #: apart by ``session.klass``.  ``stats.n_queries`` is the split.
    outcomes: List
    stats: object  # ExecutorStats of the shared run
    reencoded_segments: int
    retired_segments: int

    @property
    def foreground(self) -> List:
        return [o for o in self.outcomes if o.session.klass == 0]

    @property
    def jobs(self) -> List:
        return [o for o in self.outcomes if o.session.klass != 0]
