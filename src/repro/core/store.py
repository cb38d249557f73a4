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
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.query.scheduler import ConcurrentExecutor, QueryOutcome

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
    erosion_jobs,
    reencode_jobs,
    replan_incremental,
    retirement_jobs,
)
from repro.errors import ConfigurationError, QueryError, StorageError
from repro.ingest.budget import IngestBudget
from repro.obs import MetricsRegistry, Observability, RunRecord, metrics_enabled
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


@dataclass(frozen=True)
class ServeReport:
    """Everything one :meth:`VStore.serve` run produced."""

    outcomes: List["QueryOutcome"]
    slo: "object"  # repro.analysis.slo.SLOReport (import-cycle-free)
    stats: "object"  # repro.query.scheduler.ExecutorStats
    #: Resilience numbers when the run carried a failure campaign
    #: (:class:`~repro.analysis.availability.AvailabilityReport`);
    #: ``None`` for failure-free runs.
    availability: Optional[object] = None


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
        #: :meth:`execute_many` and read by :meth:`evolve_online` to decide
        #: whether (and toward which consumer mix) to evolve.
        self.drift = DriftDetector()

        #: The always-on metrics registry every in-process concurrent run
        #: feeds (executor aggregates, cache plane, sharded disks, drift).
        #: ``REPRO_OBS_METRICS=0`` detaches it from executors without
        #: removing it — :meth:`observability` keeps working either way.
        self.metrics = MetricsRegistry()
        #: Trace record of the most recent in-process concurrent run
        #: (:meth:`execute_many` / :meth:`evolve_online` / :meth:`age_online`);
        #: None until one runs with tracing on.
        self.last_run: Optional[RunRecord] = None

        # The tiered retrieval cache spans the whole store; passing any
        # CacheConfig enables it (None keeps the uncached read path).
        self.cache: Optional[CachePlane] = (
            CachePlane(cache_config) if cache_config is not None else None
        )

        # The sharded storage plane.  One shard is bit-identical to the
        # pre-sharding single DiskModel; more shards spread segments by
        # ``placement`` ("round-robin" | "hash" | "locality" or a policy
        # instance) and let concurrent retrievals overlap.
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
        configuration and the simulated clock are kept.
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
        self._check_open()
        return QueryEngine(self.configuration, self.library, dataset,
                           cache=self.cache)

    def query(self, query: str, dataset: str, accuracy: float,
              duration: float) -> QueryReport:
        """Analytic end-to-end speed of a benchmark query ("A" or "B")."""
        return self.engine(dataset).estimate(
            cascade_for(query), accuracy, duration
        )

    def execute(self, query: str, dataset: str, accuracy: float,
                t0: float, t1: float, core: str = "heap",
                trace: Optional[bool] = None) -> ExecutionResult:
        """Actually run a query over stored segments.

        ``core`` picks the executor engine: the O(log n) ``"heap"`` event
        loop (default) or the legacy ``"reference"`` rescan loop — the
        two produce bit-identical results.  ``trace`` forces per-event
        trace recording on or off (``None`` = automatic by fleet size).
        """
        self._check_open()
        if self.segments is None:
            raise QueryError("execution requires a workdir-backed store")
        return self.engine(dataset).execute(
            cascade_for(query), accuracy, self.segments, t0, t1, core=core,
            trace=trace,
        )

    # -- concurrent queries ---------------------------------------------------------

    def executor(self, **kwargs) -> "ConcurrentExecutor":
        """A fresh concurrent executor over this store's segments.

        Keyword arguments (``policy``, ``disk_pool``, ``decoder_pool``,
        ``operator_pool``, ``clock``) pass through to
        :class:`~repro.query.scheduler.ConcurrentExecutor`; pools left
        unset are uncontended.
        """
        from repro.query.scheduler import ConcurrentExecutor

        self._check_open()
        if self.segments is None:
            raise QueryError("concurrent execution requires a workdir-backed store")
        kwargs.setdefault("cache", self.cache)
        kwargs.setdefault(
            "metrics", self.metrics if metrics_enabled() else None
        )
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
        in-flight set; its per-tenant quotas and weights default to the
        :class:`~repro.query.workload.TenantSpec` fields when left
        unset.  Remaining keyword arguments configure the executor
        (``policy``, ``core``, pools — see :meth:`executor`).

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

        Returns a :class:`ServeReport`: the per-query outcomes, the
        :class:`~repro.analysis.slo.SLOReport` (latency quantiles,
        deadline-miss rates, tenant fairness, queue-depth timeline), the
        run's :class:`~repro.query.scheduler.ExecutorStats`, and — for
        campaign runs — the
        :class:`~repro.analysis.availability.AvailabilityReport`
        (data-loss check, degraded-window slowdown, rebuild time).
        """
        from dataclasses import replace

        from repro.analysis.slo import slo_report
        from repro.query.workload import build_workload, workload_specs

        self._check_open()
        if admission is not None:
            quotas = {t.name: t.quota for t in tenants
                      if t.quota is not None}
            weights = {t.name: t.weight for t in tenants
                       if t.weight != 1.0}
            if admission.tenant_quotas is None and quotas:
                admission = replace(admission, tenant_quotas=quotas)
            if admission.tenant_weights is None and weights:
                admission = replace(admission, tenant_weights=weights)
        arrivals = build_workload(tenants, horizon, seed)
        executor = self.executor(admission=admission, **kwargs)
        campaign = None
        if failures is not None:
            campaign = self._as_campaign(failures)
            campaign.validate_for(self.disk_array)
            self._admit_with_failures(
                executor, workload_specs(arrivals), campaign
            )
        else:
            self._admit_specs(executor, workload_specs(arrivals))
        outcomes = executor.run()
        self.drift.observe_run(outcomes)
        self._observe_run(executor)
        stats = executor.stats()
        report = slo_report(
            outcomes,
            queue_timeline=executor.admission_timeline,
            makespan=stats.makespan,
        )
        availability = None
        if campaign is not None:
            from repro.analysis.availability import availability_report

            availability = availability_report(
                campaign, self.disk_array, outcomes
            )
        return ServeReport(outcomes=outcomes, slo=report, stats=stats,
                           availability=availability)

    @staticmethod
    def _as_campaign(failures):
        """Coerce the ``failures`` argument into a FailureCampaign."""
        from repro.storage.failures import FailureCampaign

        if isinstance(failures, FailureCampaign):
            return failures
        if isinstance(failures, str):
            return FailureCampaign.parse(failures)
        return FailureCampaign(events=tuple(failures))

    def _admit_with_failures(self, executor, specs, campaign) -> None:
        """Admit an open-loop workload interleaved with a campaign.

        Plans are fixed at admission, so replica-aware routing has to
        happen here: walking arrivals and campaign events together in
        time order applies each health transition to the array *before*
        planning the queries that arrive after it (events win ties — a
        query arriving as the shard dies sees it dead).  A ``fail``'s
        lost replicas become re-replication jobs admitted at the failure
        instant; the events themselves go onto the executor timeline
        observationally (:meth:`ConcurrentExecutor.schedule_failures`) —
        the mutations already happened here, replaying them would
        double-apply.  One plan memo spans the walk and is cleared at
        every event, so each distinct spec is planned once per
        shard-health epoch.
        """
        from repro.storage.failures import apply_event, rebuild_jobs

        events = list(campaign.events)
        ei = 0
        plans: dict = {}

        def fire_until(t: float) -> None:
            nonlocal ei
            while ei < len(events) and events[ei].t <= t:
                event = events[ei]
                work = apply_event(self.disk_array, event)
                plans.clear()
                if work and self.segments is not None:
                    for job in rebuild_jobs(self.segments, work):
                        executor.admit_job(job, arrival=event.t)
                ei += 1

        for spec in specs:
            fire_until(float(spec["arrival"]))
            self._admit_specs(executor, [spec], plans)
        fire_until(float("inf"))
        executor.schedule_failures(events)

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
        campaign = self._as_campaign(failures)
        campaign.validate_for(self.disk_array)
        jobs = []
        for event in campaign.events:
            work = apply_event(self.disk_array, event)
            if work and self.segments is not None:
                jobs.extend(rebuild_jobs(self.segments, work))
        return jobs

    def execute_many(self, specs, parallel: Optional[int] = None, **kwargs):
        """Admit and run many queries at once against shared resources.

        Each spec is a mapping with ``query`` ("A"/"B" or a cascade),
        ``dataset``, ``accuracy``, ``t0``, ``t1``, plus the optional
        ``stream``, ``contexts`` and ``deadline`` admission knobs.
        Remaining keyword arguments configure the executor (see
        :meth:`executor`); outcomes come back in admission order.

        With ``parallel=N``, ``specs`` is instead a sequence of
        *independent fleets* (each a sequence of specs as above); the
        fleets are partitioned across ``N`` forked worker processes,
        each fleet on a fresh ``SimClock`` and without a cache plane,
        and the per-fleet
        :class:`~repro.analysis.concurrency.ConcurrencyReport`\\ s come
        back in fleet order (see :mod:`repro.query.parallel` for the
        isolation rules and :func:`~repro.query.parallel.merge_reports`
        for the aggregate view).  ``parallel=1`` runs the same fleets
        in-process with identical semantics — bit-equal reports.
        """
        if parallel is not None:
            from repro.query.parallel import run_fleets

            self._check_open()
            return run_fleets(self, specs, parallel, **kwargs)
        executor = self.executor(**kwargs)
        self._admit_specs(executor, specs)
        outcomes = executor.run()
        # Cross-layer feedback: fold the finished queries into the drift
        # detector's sliding demand window (observation only — it cannot
        # change scheduling, so outcomes stay bit-identical).
        self.drift.observe_run(outcomes)
        self._observe_run(executor)
        return outcomes

    def _observe_run(self, executor: "ConcurrentExecutor") -> None:
        """Retain the run's trace and feed the store-level metric planes.

        Executor aggregates were already folded in by ``run()`` itself
        (inside its timed window); here the store adds what the executor
        cannot see — cache plane, sharded disks, drift detector — and
        keeps the trace for :meth:`observability`.
        """
        self.last_run = RunRecord(
            events=list(executor.trace_events),
            started_at=executor.started_at,
            stats=executor.stats(),
        )
        if executor.metrics is None:
            return
        if self.cache is not None:
            executor.metrics.observe_cache(self.cache.stats())
        executor.metrics.observe_disks(self.disk_array)
        if self._kv is not None:
            executor.metrics.observe_kvstore(self._kv)
        executor.metrics.observe_drift(self.drift)

    def observability(self) -> Observability:
        """The store's observability facade: last trace + metrics.

        One object answers "what happened and where did time go": typed
        spans, critical paths, queue depths, Chrome-trace and columnar
        exports over the most recent concurrent run, plus the always-on
        metrics registry (see :mod:`repro.obs`).
        """
        return Observability(metrics=self.metrics, last_run=self.last_run)

    @staticmethod
    def _admit_specs(executor: "ConcurrentExecutor", specs,
                     plans: Optional[dict] = None) -> None:
        """Admit specs, planning each distinct one once.

        A plan depends on what a spec asks for and on the store's state,
        never on when it arrives, who sent it or its deadline, so repeats
        of a spec admit the first one's plan (``admit(plan=...)``).  The
        ``plans`` memo is keyed by (cascade, dataset, accuracy, t0, t1,
        stream, contexts, scheme identity); a caller that mutates the
        store between calls passes its own memo and clears it on every
        mutation.  Specs that carry a ``plan`` bypass the memo.
        """
        plans = {} if plans is None else plans
        for spec in specs:
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

        executor = self.executor(**executor_kwargs)
        self._admit_specs(executor, foreground)
        for job in jobs:
            executor.admit_job(job)
        outcomes = executor.run() if (jobs or foreground) else []
        stats = executor.stats()
        self.drift.observe_run(outcomes)
        if jobs or foreground:
            self._observe_run(executor)
        self.segments.commit_epoch(epoch)

        # Retire dropped formats only after the new plan is committed — a
        # crash between commit and retirement leaves harmless extra bytes,
        # never a half-materialized format.
        retired_formats = [sf.fmt for sf in replan.removed]
        retired = 0
        if retired_formats:
            cleaner = self.executor(**executor_kwargs)
            retire = []
            for stream in self.segments.streams():
                retire.extend(retirement_jobs(
                    self.segments, stream, retired_formats
                ))
            if retire:
                for job in retire:
                    cleaner.admit_job(job)
                outcomes = outcomes + cleaner.run()
                retired = sum(len(j.tasks) for j in retire)

        self._config = replan.configuration
        self._pipelines.clear()
        self.drift.rebase(replan.configuration.consumers)
        return EvolutionReport(
            replan=replan,
            epoch=epoch,
            outcomes=outcomes,
            stats=stats,
            reencoded_segments=sum(
                1 for j in jobs for t in j.tasks if t.kind == "write"
            ),
            retired_segments=retired,
        )

    def age_online(self, dataset: str, now_seconds: float,
                   foreground=(), **executor_kwargs):
        """Erosion as background jobs sharing the executor with queries.

        Selects exactly the victims :meth:`age` would delete, but pays each
        delete's request overhead on the executor's shard channel pools in
        scheduling class 1, committing the store deletes at the simulated
        completion instants.  Returns ``(deletions, outcomes)`` — the
        deletions made and every outcome of the shared run in admission
        order (foreground queries first, then the erosion job).
        """
        self._check_open()
        if self.segments is None:
            raise ConfigurationError("aging requires a workdir-backed store")
        config = self.configuration
        jobs = []
        if config.erosion is not None:
            fraction_map = config.erosion.deleted_fraction_map(
                config.plan.formats
            )
            jobs = erosion_jobs(
                self.segments, dataset, fraction_map, now_seconds,
                self.lifespan_days,
            )
        executor = self.executor(**executor_kwargs)
        self._admit_specs(executor, foreground)
        for job in jobs:
            executor.admit_job(job)
        outcomes = executor.run() if (jobs or foreground) else []
        self.drift.observe_run(outcomes)
        if jobs or foreground:
            self._observe_run(executor)
        return sum(len(j.tasks) for j in jobs), outcomes

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
