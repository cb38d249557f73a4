"""The VStore facade: configure, ingest, query, age — one object.

This is the public entry point a downstream user works with::

    store = VStore(workdir="/tmp/vstore")
    config = store.configure()
    store.ingest("jackson", n_segments=8)
    report = store.query("A", dataset="jackson", accuracy=0.9,
                         duration=3600.0)
    print(report.speed)  # x realtime

Everything underneath — profiling, backward derivation, transcoding fan-out,
segment storage, retrieval, cascade execution, erosion — is reachable through
the subpackages, but the facade covers the common paths.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.analysis.availability import AvailabilityReport
    from repro.analysis.slo import SLOReport
    from repro.query.scheduler import (
        ConcurrentExecutor,
        ExecutorStats,
        QueryOutcome,
    )

from repro.cache.plane import CacheConfig, CachePlane, CacheStats
from repro.clock import SimClock
from repro.core.config import (
    Configuration,
    DEFAULT_PROFILE_DATASETS,
    derive_configuration,
)
from repro.core.drift import DriftDetector
from repro.core.evolve import (
    EvolutionReport,
    reencode_jobs,
    replan_incremental,
    retirement_jobs,
)
from repro.errors import ConfigurationError, QueryError, StorageError
from repro.ingest.budget import IngestBudget
from repro.obs import MetricsRegistry, Observability
from repro.ingest.pipeline import IngestionPipeline, IngestionReport
from repro.operators.library import OperatorLibrary, default_library
from repro.query.cascade import cascade_for
from repro.query.engine import ExecutionResult, QueryEngine, QueryReport
from repro.storage.kvstore import KVStore
from repro.storage.lifespan import apply_erosion_step
from repro.storage.segment_store import SegmentStore
from repro.storage.sharding import (
    PlacementPolicy,
    RebalanceReport,
    ShardedDiskArray,
)


@dataclass
class RunResult:
    """One executor run of the store (:meth:`VStore._run`).

    :meth:`VStore.serve` returns it and :attr:`VStore.last_run` holds the
    latest one, whichever entry point made it.
    """

    #: Every session's outcome in admission order: queries and background
    #: jobs (tell them apart by ``session.klass``).
    outcomes: List["QueryOutcome"]
    stats: "ExecutorStats"
    #: Task start/finish trace events; empty when the run was not traced.
    events: List[Dict[str, object]]
    #: Simulated instant the run began — the trace's time origin.
    started_at: float
    #: ``(t, queued, in_flight)`` admission-control samples.
    admission_timeline: List[Tuple[float, int, int]]
    #: Resilience numbers when the run carried a failure campaign;
    #: ``None`` for failure-free runs.
    availability: Optional["AvailabilityReport"] = None

    @cached_property
    def slo(self) -> "SLOReport":
        """Latency quantiles, deadline-miss rates, tenant fairness and the
        queue-depth timeline, built on first access: over a large fleet
        the report is costly, and most runs are never asked for it."""
        from repro.analysis.slo import slo_report

        return slo_report(self.outcomes,
                          queue_timeline=self.admission_timeline,
                          makespan=self.stats.makespan)


class VStore:
    """A data store for analytics on large videos."""

    def __init__(
        self,
        workdir: Optional[str] = None,
        library: Optional[OperatorLibrary] = None,
        profile_datasets: Optional[Dict[str, str]] = None,
        ingest_budget: IngestBudget = IngestBudget(),
        storage_budget_bytes: Optional[float] = None,
        lifespan_days: int = 10,
        cache_config: Optional[CacheConfig] = None,
        shards: int = 1,
        placement: "str | PlacementPolicy" = "hash",
        replication: int = 1,
    ):
        self.library = library or default_library()
        self.profile_datasets = dict(profile_datasets or DEFAULT_PROFILE_DATASETS)
        self.ingest_budget = ingest_budget
        self.storage_budget_bytes = storage_budget_bytes
        self.lifespan_days = lifespan_days
        self.clock = SimClock()
        self._config: Optional[Configuration] = None
        self._pipelines: Dict[str, IngestionPipeline] = {}
        self._closed = False
        self._shards = shards
        self._placement = placement
        self._replication = replication
        self._cache_config = cache_config

        #: Sliding-window demand estimator over executed queries; fed by
        #: every store run (:meth:`_run`) and read by :meth:`evolve_online`
        #: to decide whether (and toward which consumer mix) to evolve.
        self.drift = DriftDetector()

        #: The always-on metrics registry every in-process concurrent run
        #: feeds (executor aggregates, cache plane, sharded disks, drift).
        #: A run passed ``metrics=None`` feeds it nothing —
        #: :meth:`observability` keeps working either way.
        self.metrics = MetricsRegistry()
        #: The most recent in-process run (:meth:`_run`, whichever entry
        #: point made it); None before the first and after :meth:`close`.
        self.last_run: Optional[RunResult] = None
        #: Stage outcomes (positive frames, output bytes) per dataset, keyed
        #: by (operator, segment index, fidelity label), shared by every
        #: engine the store builds — see :meth:`engine`.
        self._stage_outcomes: Dict[str, Dict[tuple, Tuple[int, float]]] = {}

        # The tiered retrieval cache spans the whole store; passing any
        # CacheConfig enables it (None keeps the uncached read path).
        self.cache: Optional[CachePlane] = (
            CachePlane(cache_config) if cache_config is not None else None
        )

        # The storage plane every segment store runs on.  One shard
        # charges exactly its one DiskModel's arithmetic; more shards
        # spread segments by ``placement`` ("round-robin" | "hash" |
        # "locality" or a policy instance) and let concurrent retrievals
        # overlap.
        # ``replication=k`` keeps every segment on k distinct shards, so
        # the store survives shard failures (see repro.storage.failures).
        self.disk_array = ShardedDiskArray(shards, placement=placement,
                                           clock=self.clock,
                                           replication=replication)

        self.workdir = workdir
        self.segments: Optional[SegmentStore] = None
        self._kv: Optional[KVStore] = None
        if workdir is not None:
            os.makedirs(workdir, exist_ok=True)
            self._kv = KVStore(os.path.join(workdir, "segments.vstore"))
            self.segments = SegmentStore(self._kv, self.disk_array)
            # Writes and deletes (re-ingest, erosion) invalidate the cache.
            self.segments.cache = self.cache

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the backing store.  Safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        self.last_run = None  # its outcomes must not outlive the store
        self._stage_outcomes.clear()
        if self._kv is not None:
            self._kv.close()

    def flush(self) -> None:
        """Push buffered segment-log writes to the OS."""
        if self._kv is not None:
            self._kv.flush()

    def reopen(self) -> None:
        """Close and reopen the backing store (a simulated restart).

        Re-handles the segment log, rebuilds the sharded placement map
        from persisted metadata, and rolls back any format epoch that
        never committed — the crash-recovery path an interrupted
        :meth:`evolve_online` relies on.  A fresh cache plane is installed
        (cached artifacts do not survive a restart); the derived
        configuration, the simulated clock and the stage-outcome memo
        (host-side planning state, see :meth:`engine`) are kept.
        """
        if self.workdir is None:
            raise StorageError("reopen requires a workdir-backed store")
        if self._kv is not None:
            self._kv.close()
        self._closed = False
        self.disk_array = ShardedDiskArray(
            self._shards, placement=self._placement, clock=self.clock,
            replication=self._replication,
        )
        self._kv = KVStore(os.path.join(self.workdir, "segments.vstore"))
        self.segments = SegmentStore(self._kv, self.disk_array)
        self.cache = (
            CachePlane(self._cache_config)
            if self._cache_config is not None else None
        )
        self.segments.cache = self.cache
        self._pipelines.clear()

    def reopen_after_fork(self) -> None:
        """Re-handle the backing log in a forked worker process.

        Forked children share the parent's file offset; a worker running
        queries must call this once before reading (see
        :mod:`repro.query.parallel`, which does so automatically).
        """
        if self._kv is not None:
            self._kv.reopen_after_fork()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(
                "this VStore is closed; create a new instance (close() "
                "released the backing segment store)"
            )

    def __enter__(self) -> "VStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- configuration -------------------------------------------------------------

    def configure(self, force: bool = False,
                  consumers: Optional[List] = None) -> Configuration:
        """Derive (or return the cached) video-format configuration.

        ``consumers`` restricts the derivation to an explicit consumer set
        (defaults to every consumer the library declares) — drift scenarios
        configure phase-1 consumers here and let :meth:`evolve_online`
        admit the rest later.
        """
        if self._config is None or force or consumers is not None:
            self._config = derive_configuration(
                self.library,
                consumers=consumers,
                profile_datasets=self.profile_datasets,
                ingest_budget=self.ingest_budget,
                storage_budget_bytes=self.storage_budget_bytes,
                lifespan_days=self.lifespan_days,
                clock=self.clock,
            )
            self.drift.rebase(self._config.consumers)
        return self._config

    @property
    def configuration(self) -> Configuration:
        if self._config is None:
            raise ConfigurationError("call configure() before using the store")
        return self._config

    # -- ingestion ------------------------------------------------------------------

    def _pipeline(self, dataset: str,
                  stream: Optional[str] = None) -> IngestionPipeline:
        key = stream or dataset
        if key not in self._pipelines:
            self._pipelines[key] = IngestionPipeline(
                dataset,
                self.configuration.storage_formats,
                store=self.segments,
                clock=self.clock,
                budget=self.ingest_budget,
                stream=stream,
            )
        pipeline = self._pipelines[key]
        if pipeline.dataset != dataset:
            # One stream has one content model; silently reusing the cached
            # pipeline would ingest the wrong dataset's statistics.
            raise ConfigurationError(
                f"stream {key!r} already ingests dataset "
                f"{pipeline.dataset!r}, not {dataset!r}"
            )
        return pipeline

    def ingest(self, dataset: str, n_segments: int,
               start_index: int = 0, stream: Optional[str] = None) -> None:
        """Transcode and store ``n_segments`` of a stream in every SF.

        ``stream`` stores the segments under an alias (defaults to the
        dataset name), so one content model can back many fleet cameras.
        """
        self._check_open()
        if self.segments is None:
            raise ConfigurationError("ingestion requires a workdir-backed store")
        self._pipeline(dataset, stream).ingest_segments(n_segments, start_index)

    def ingestion_report(self, dataset: str,
                         stream: Optional[str] = None) -> IngestionReport:
        """Analytic per-stream storage and transcode cost (Figure 11b/c).

        For an aliased stream, pass the same ``stream`` used at ingest.
        """
        return self._pipeline(dataset, stream).report()

    # -- queries ------------------------------------------------------------------------

    def engine(self, dataset: str) -> QueryEngine:
        """A query engine for ``dataset`` under the current configuration.

        Every engine the store builds, here or inside an executor, reads
        and fills the store's one stage-outcome memo for the dataset, so
        an operator runs at most once per (operator, segment, fidelity)
        over the store's life.  That is sound across :meth:`adopt`,
        :meth:`evolve_online`, :meth:`set_cache` and :meth:`reopen`: the
        key carries the fidelity, the content is a pure function of the
        dataset and the time, and the library only gains operators.  The
        memo is released at :meth:`close`.
        """
        self._check_open()
        return QueryEngine(
            self.configuration, self.library, dataset, cache=self.cache,
            stage_outcomes=self._stage_outcomes.setdefault(dataset, {}),
        )

    def query(self, query: str, dataset: str, accuracy: float,
              duration: float) -> QueryReport:
        """Analytic end-to-end speed of a benchmark query ("A" or "B")."""
        return self.engine(dataset).estimate(
            cascade_for(query), accuracy, duration
        )

    def execute(self, query: str, dataset: str, accuracy: float,
                t0: float, t1: float,
                trace: Optional[bool] = None) -> ExecutionResult:
        """Actually run one query over stored segments.

        The one-spec case of :meth:`execute_many`: the query runs alone on
        uncontended pools through :meth:`_run`, so it feeds the drift
        detector and the metrics and becomes :attr:`last_run`, whose one
        outcome's ``result`` this returns.  ``trace`` forces per-event
        trace recording on or off (``None`` = automatic by fleet size).
        """
        spec = dict(query=query, dataset=dataset, accuracy=accuracy,
                    t0=t0, t1=t1)
        return self._run((spec,), trace=trace).outcomes[0].result

    # -- concurrent queries ---------------------------------------------------------

    def executor(self, **kwargs) -> "ConcurrentExecutor":
        """A fresh concurrent executor over this store's segments.

        Keyword arguments (``policy``, ``disk_pool``, ``decoder_pool``,
        ``operator_pool``, ``clock``, ``admission``, ``tenants``) pass
        through to :class:`~repro.query.scheduler.ConcurrentExecutor`;
        pools left unset are uncontended.  The executor's engines share
        the store's stage-outcome memo (see :meth:`engine`), so planning
        re-runs no operator an earlier run of this store already ran.
        """
        from repro.query.scheduler import ConcurrentExecutor

        self._check_open()
        if self.segments is None:
            raise QueryError("concurrent execution requires a workdir-backed store")
        kwargs.setdefault("cache", self.cache)
        kwargs.setdefault("stage_outcomes", self._stage_outcomes)
        kwargs.setdefault("metrics", self.metrics)
        return ConcurrentExecutor(
            self.configuration, self.library, self.segments, **kwargs
        )

    def serve(self, tenants, horizon: float, *, seed: object = 0,
              admission=None, failures=None, **kwargs):
        """Serve an open-loop multi-tenant workload against this store.

        Builds each tenant's deterministic arrival stream and query mix
        (:func:`~repro.query.workload.build_workload`), admits the whole
        timeline up front — every query carrying its ``arrival``,
        ``tenant`` and SLO ``deadline`` — and runs one executor that
        processes arrivals as simulated-time events.  ``admission``
        (an :class:`~repro.query.scheduler.AdmissionConfig`) bounds the
        in-flight set.  Each :class:`~repro.query.workload.TenantSpec`'s
        ``weight`` and ``quota`` become its tenant's record in the
        executor (``ConcurrentExecutor(tenants=...)``): the weight orders
        the ``"wfair"`` policy and admission queue, and the quota caps the
        tenant's in-flight queries under ``admission``.  Remaining keyword
        arguments configure the executor (``policy``, pools — see
        :meth:`executor`).

        ``failures`` injects a failure campaign into the run: a
        :class:`~repro.storage.failures.FailureCampaign`, a sequence of
        :class:`~repro.storage.failures.FailureEvent`, or a CLI-style
        spec string (``"fail@10:0,recover@60:0"``), with event times on
        the workload timeline.  Each arrival is planned under the shard
        health prevailing at its instant — reads route to the fastest
        surviving replica, degraded shards cost their slowdown factor —
        queries already in flight when a shard dies complete with their
        planned reads, and every replica a ``fail`` destroys becomes a
        background re-replication job (scheduling class 1, arriving at
        the failure instant) contending with foreground queries for the
        per-shard I/O channels.

        Returns the run's :class:`RunResult`: the per-query outcomes,
        the :class:`~repro.analysis.slo.SLOReport` as ``slo`` (latency
        quantiles, deadline-miss rates, tenant fairness, queue-depth
        timeline), the run's :class:`~repro.query.scheduler.ExecutorStats`,
        and — for campaign runs — the
        :class:`~repro.analysis.availability.AvailabilityReport`
        (data-loss check, degraded-window slowdown, rebuild time).
        """
        from repro.query.workload import build_workload, workload_specs

        self._check_open()
        arrivals = build_workload(tenants, horizon, seed)
        campaign = None if failures is None else self._as_campaign(failures)
        return self._run(workload_specs(arrivals), campaign=campaign,
                         admission=admission, tenants=tenants, **kwargs)

    def _as_campaign(self, failures):
        """Coerce ``failures`` into a FailureCampaign valid for this array."""
        from repro.storage.failures import FailureCampaign

        campaign = failures
        if isinstance(failures, str):
            campaign = FailureCampaign.parse(failures)
        elif not isinstance(failures, FailureCampaign):
            campaign = FailureCampaign(events=tuple(failures))
        campaign.validate_for(self.disk_array)
        return campaign

    def inject_failures(self, failures):
        """Apply a failure campaign to the storage plane immediately.

        The event times are ignored (everything lands "now"); returns
        the background re-replication jobs
        (:class:`~repro.query.scheduler.BackgroundJob`) that would
        restore full redundancy, for the caller to admit into an
        executor.  :meth:`serve` with ``failures=`` is the timeline-true
        flow; this is the direct hook for tests and consoles.
        """
        from repro.storage.failures import apply_event, rebuild_jobs

        self._check_open()
        jobs = []
        for event in self._as_campaign(failures).events:
            work = apply_event(self.disk_array, event)
            if work and self.segments is not None:
                jobs.extend(rebuild_jobs(self.segments, work))
        return jobs

    def execute_many(self, specs, **kwargs):
        """Admit and run many queries at once against shared resources.

        Each spec is a mapping with ``query`` ("A"/"B" or a cascade),
        ``dataset``, ``accuracy``, ``t0``, ``t1``, plus the optional
        ``stream``, ``scheme``, ``contexts`` and ``deadline`` admission
        knobs.  Remaining keyword arguments configure the executor (see
        :meth:`executor`); outcomes come back in admission order.
        Independent fleets fan out across worker processes through
        :func:`repro.query.parallel.run_fleets` instead.
        """
        return self._run(specs, **kwargs).outcomes

    def _run(self, specs=(), *, jobs=(), campaign=None,
             **executor_kwargs) -> RunResult:
        """The store's one executor run: admit, run, observe.

        Builds an executor (``executor_kwargs`` as for :meth:`executor`),
        admits ``specs`` through the plan memo with ``campaign``'s events
        applied in time order (:meth:`_admit_specs`), then the background
        ``jobs``, and runs them.  The finished run feeds the drift
        detector and the store-level metric planes — observation only, it
        cannot change the outcomes — and becomes :attr:`last_run`.  The
        previous run is released before anything is admitted, so its
        outcomes never stay alive through this one.
        """
        self.last_run = None
        executor = self.executor(**executor_kwargs)
        self._admit_specs(executor, specs, campaign)
        for job in jobs:
            executor.admit_job(job)
        outcomes = executor.run()
        self.drift.observe_run(outcomes)
        # Executor aggregates were folded in by run() itself; the store
        # adds what the executor cannot see.
        metrics = executor.metrics
        if metrics is not None:
            if self.cache is not None:
                metrics.observe_cache(self.cache.stats())
            metrics.observe_disks(self.disk_array)
            if self._kv is not None:
                metrics.observe_kvstore(self._kv)
            metrics.observe_drift(self.drift)
        availability = None
        if campaign is not None:
            from repro.analysis.availability import availability_report

            availability = availability_report(
                campaign, self.disk_array, outcomes
            )
        self.last_run = RunResult(
            outcomes=outcomes,
            stats=executor.stats(),
            events=executor.trace_events,
            started_at=executor.started_at,
            admission_timeline=executor.admission_timeline,
            availability=availability,
        )
        return self.last_run

    def observability(self) -> Observability:
        """The store's observability facade: last trace + metrics.

        One object answers "what happened and where did time go": typed
        spans, critical paths, queue depths, Chrome-trace and JSONL
        exports over the most recent concurrent run, plus the always-on
        metrics registry (see :mod:`repro.obs`).
        """
        return Observability(metrics=self.metrics, last_run=self.last_run)

    def _admit_specs(self, executor: "ConcurrentExecutor", specs,
                     campaign=None) -> None:
        """Admit specs, planning each distinct one once per health epoch.

        A plan depends on what a spec asks for and on the store's state,
        never on when it arrives, who sent it or its deadline, so repeats
        of a spec admit the first one's plan (``admit(plan=...)``).  The
        memo is keyed by (cascade, dataset, accuracy, t0, t1, stream,
        contexts, scheme identity); specs that carry a ``plan`` bypass it.

        With a failure ``campaign`` the specs carry arrivals, and since
        plans are fixed at admission, replica-aware routing happens here:
        each event is applied to the array *before* planning the specs
        that arrive after it (events win ties — a query arriving as the
        shard dies sees it dead), and clears the memo.  A ``fail``'s lost
        replicas become re-replication jobs admitted at the failure
        instant.  The events then go onto the executor timeline
        observationally (:meth:`ConcurrentExecutor.schedule_failures`) —
        the mutations already happened here, replaying them would
        double-apply.
        """
        from repro.storage.failures import apply_event, rebuild_jobs

        pending = list(campaign.events) if campaign is not None else []
        plans: dict = {}

        def fire_until(t: float) -> None:
            while pending and pending[0].t <= t:
                event = pending.pop(0)
                work = apply_event(self.disk_array, event)
                plans.clear()
                if work:
                    for job in rebuild_jobs(self.segments, work):
                        executor.admit_job(job, arrival=event.t)

        for spec in specs:
            if pending:
                fire_until(float(spec["arrival"]))
            spec = dict(spec)
            query = spec.pop("query")
            if isinstance(query, str):
                query = cascade_for(query)
            key = None
            if spec.get("plan") is None:
                # AlternativeScheme holds a list, so it is keyed by
                # identity; the memo keeps it alive so the id stays unique.
                scheme = spec.get("scheme")
                key = (query, spec["dataset"], spec["accuracy"], spec["t0"],
                       spec["t1"], spec.get("stream"),
                       spec.get("contexts", 1), id(scheme))
                if key in plans:
                    spec["plan"] = plans[key][1]
            session = executor.admit(
                query, spec.pop("dataset"), spec.pop("accuracy"),
                spec.pop("t0"), spec.pop("t1"), **spec
            )
            if key is not None:
                plans[key] = (scheme, session.plan)
        if campaign is not None:
            fire_until(float("inf"))
            executor.schedule_failures(campaign.events)

    # -- online evolution -----------------------------------------------------------

    def adopt(self, configuration: Configuration) -> None:
        """Swap in an externally built configuration without re-deriving.

        The Section-7 stopgap path: a frozen store answering a drifted mix
        adopts :func:`~repro.core.evolve.legacy_configuration`'s result —
        same format set as what is on disk, new consumers subscribed to
        existing formats.  Cached ingestion pipelines are dropped.  The
        drift baseline is deliberately *not* re-pinned: a stopgap adoption
        is exactly the situation where the detector must keep measuring
        the live mix against what the plan was actually derived for.
        """
        self._config = configuration
        self._pipelines.clear()

    def evolve_online(self, consumers: Optional[List] = None,
                      foreground=(), **executor_kwargs) -> EvolutionReport:
        """Evolve the configuration toward a drifted mix, without downtime.

        The incremental planner (:func:`~repro.core.evolve.replan_incremental`)
        hill-climbs a new plan from the current one — warm-started via the
        configuration's coding-profiler memos — for ``consumers``
        (defaulting to the drift detector's observed mix).  New storage
        formats are materialized by background re-encode jobs that contend
        honestly with any ``foreground`` query specs (same format as
        :meth:`execute_many`) on one shared executor, in scheduling class 1
        so foreground work always wins ties.  Writes are tagged with an
        uncommitted format epoch; the epoch commits only after every job
        finished, so a crash mid-evolution rolls back cleanly at reopen
        (see :meth:`reopen`).  Only then is the new configuration adopted,
        dropped formats are retired, and the drift baseline is re-pinned.
        """
        self._check_open()
        if self.segments is None:
            raise ConfigurationError(
                "online evolution requires a workdir-backed store"
            )
        config = self.configuration
        if consumers is None:
            consumers = self.drift.demanded_consumers() or list(config.consumers)
        replan = replan_incremental(
            config, self.library, consumers,
            profile_datasets=self.profile_datasets,
            ingest_budget=self.ingest_budget,
            storage_budget_bytes=self.storage_budget_bytes,
            lifespan_days=self.lifespan_days,
            clock=self.clock,
        )

        epoch = self.segments.begin_epoch()
        golden = config.plan.golden.fmt
        new_formats = [sf.fmt for sf in replan.added]
        jobs = []
        for stream in self.segments.streams():
            jobs.extend(reencode_jobs(
                self.segments, stream, new_formats, golden, epoch=epoch
            ))

        first = self._run(foreground, jobs=jobs, **executor_kwargs)
        self.segments.commit_epoch(epoch)

        # Retire dropped formats only after the new plan is committed — a
        # crash between commit and retirement leaves harmless extra bytes,
        # never a half-materialized format.
        retired_formats = [sf.fmt for sf in replan.removed]
        retire = [job for stream in self.segments.streams()
                  for job in retirement_jobs(self.segments, stream,
                                             retired_formats)]
        outcomes = first.outcomes
        if retire:
            outcomes = outcomes + self._run(
                jobs=retire, **executor_kwargs
            ).outcomes

        self._config = replan.configuration
        self._pipelines.clear()
        self.drift.rebase(replan.configuration.consumers)
        return EvolutionReport(
            replan=replan,
            epoch=epoch,
            outcomes=outcomes,
            stats=first.stats,
            reencoded_segments=sum(
                1 for j in jobs for t in j.tasks if t.kind == "write"
            ),
            retired_segments=sum(len(j.tasks) for j in retire),
        )

    # -- caching --------------------------------------------------------------------

    def set_cache(self, cache_config: Optional[CacheConfig]) -> Optional[CachePlane]:
        """Install a fresh cache plane (or disable caching) at runtime.

        Lets an operator resize or re-policy the cache without reopening
        the store; the previous plane's contents and counters are dropped.
        """
        self.cache = (
            CachePlane(cache_config) if cache_config is not None else None
        )
        if self.segments is not None:
            self.segments.cache = self.cache
        return self.cache

    def cache_stats(self) -> CacheStats:
        """Snapshot of the tiered retrieval cache (hit rates, savings).

        Requires the store to have been built with ``cache_config``.
        """
        if self.cache is None:
            raise ConfigurationError(
                "caching is disabled; construct the store with "
                "VStore(cache_config=CacheConfig(...))"
            )
        return self.cache.stats()

    # -- sharding -------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.disk_array.n_shards

    def rebalance(self) -> RebalanceReport:
        """Migrate segments between disk shards to restore byte balance.

        The migration I/O (source read + destination write) is charged to
        the simulated clock; placements are rewritten in segment metadata
        so the new layout survives reopen.  No-op on single-shard stores.
        """
        self._check_open()
        if self.segments is None:
            raise ConfigurationError("rebalancing requires a workdir-backed store")
        return self.segments.rebalance()

    def sharding_report(self, stats=None):
        """Per-shard occupancy/utilization/imbalance report.

        Pass a :class:`~repro.query.scheduler.ExecutorStats` (from a
        concurrent run) to include per-shard channel-pool utilization and
        the achieved parallel-retrieval speedup.
        """
        from repro.analysis.sharding import sharding_report

        if self.segments is None:
            raise ConfigurationError(
                "sharding reports require a workdir-backed store"
            )
        return sharding_report(self.segments, stats)

    # -- aging ----------------------------------------------------------------------------

    def age(self, dataset: str, now_seconds: float) -> int:
        """Apply the erosion plan to stored footage; returns deletions."""
        self._check_open()
        if self.segments is None:
            raise ConfigurationError("aging requires a workdir-backed store")
        config = self.configuration
        if config.erosion is None:
            return 0
        fraction_map = config.erosion.deleted_fraction_map(config.plan.formats)
        return apply_erosion_step(
            self.segments, dataset, fraction_map, now_seconds,
            self.lifespan_days,
        )
