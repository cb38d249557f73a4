"""Concurrent query scheduling (Section 5, generalized to multi-tenancy).

Two layers live here:

* the paper's *operator-context dispatcher*: greedy least-loaded assignment
  of per-segment costs onto ``n_contexts`` workers within one stage
  (:func:`dispatch`), returning the simulated makespan;
* the *concurrent query executor*: N cascade queries over M streams admitted
  into one :class:`ConcurrentExecutor`, which interleaves their segment
  retrievals and operator runs on shared resources — a disk I/O channel
  pool (:class:`~repro.storage.disk.DiskBandwidthPool`), a bounded decoder
  pool (:class:`~repro.codec.decoder.DecoderPool`) and a shared operator
  context pool (:class:`OperatorContextPool`) — under a named scheduling
  policy (:data:`POLICIES`: FIFO, fair share, earliest deadline first,
  weighted fair share across tenants), charging everything to one
  :class:`~repro.clock.SimClock`.

The executor is a discrete-event simulation.  Each admitted query plans a
*serial* task chain (its cascade structure: retrieve each active segment,
then run the stage's operators); concurrency and slowdown come from queries
contending for the bounded pools.  With a single query and uncontended
pools the event loop degenerates to charging each task's duration in
order, which is exactly what the original sequential loop did (a parity
oracle in ``tests/oracles``) — so ``VStore.execute``, the N=1 case, is
bit-identical to it by construction.

Every fleet drains on one event loop over flat arrays
(:meth:`ConcurrentExecutor._drain`): chains lowered once per plan
(:mod:`repro.query.eventloop`), per-pool ready queues of plain tuples —
plain FIFO queues when every push arrives in key order, heaps otherwise
— one completion heap, and dependency counters for the cache plane's
single-flight edges.  It is bit-identical to the rescan-loop parity
oracle that the golden-trace and Hypothesis tests replay
(``tests/oracles``).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush, heapreplace
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cache.plane import CachePlane, RetrievalAccess
from repro.clock import SimClock
from repro.codec.decoder import DecoderPool
from repro.errors import QueryError
from repro.obs.trace import task_event
from repro.query.eventloop import Chain, _RunTask, plan_chain
from repro.storage.disk import DiskBandwidthPool

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.config import Configuration
    from repro.operators.library import OperatorLibrary
    from repro.query.alternatives import AlternativeScheme
    from repro.query.cascade import QueryCascade
    from repro.query.engine import ExecutionResult, QueryEngine
    from repro.query.workload import TenantSpec
    from repro.storage.segment_store import SegmentStore


# ---------------------------------------------------------------------------
# The paper's per-stage operator-context dispatcher
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DispatchResult:
    """Outcome of dispatching one stage's segments across contexts."""

    n_contexts: int
    makespan: float  # simulated seconds until the slowest context finishes
    loads: List[float]  # per-context busy time
    assignment: List[int]  # context index per segment

    @property
    def total_work(self) -> float:
        return sum(self.loads)

    @property
    def speedup(self) -> float:
        """Achieved parallel speedup over a single context.

        With no work (``makespan <= 0``) there is nothing to parallelize,
        so the speedup is 1.0 — not ``n_contexts``.
        """
        if self.makespan <= 0:
            return 1.0
        return self.total_work / self.makespan

    @property
    def utilization(self) -> float:
        """Fraction of context-time spent busy (1.0 = perfectly balanced)."""
        capacity = self.makespan * self.n_contexts
        return self.total_work / capacity if capacity > 0 else 1.0


def dispatch(segment_costs: Sequence[float], n_contexts: int) -> DispatchResult:
    """Greedy least-loaded dispatch of segments onto operator contexts.

    Segments are assigned in arrival order (streams are consumed in time
    order), each to the context with the smallest accumulated load — the
    natural online policy for the paper's segment dispatcher.
    """
    if n_contexts <= 0:
        raise QueryError(f"need at least one context: {n_contexts}")
    if any(c < 0 for c in segment_costs):
        raise QueryError("segment costs must be non-negative")
    if n_contexts == 1:
        # Degenerate fast path: one context accumulates every cost in
        # order — the same left-to-right float additions as the general
        # loop below, without the per-segment argmin.
        total = 0.0
        for cost in segment_costs:
            total += cost
        return DispatchResult(
            n_contexts=1,
            makespan=total,
            loads=[total],
            assignment=[0] * len(segment_costs),
        )
    loads = [0.0] * n_contexts
    assignment: List[int] = []
    for cost in segment_costs:
        idx = min(range(n_contexts), key=loads.__getitem__)
        loads[idx] += cost
        assignment.append(idx)
    return DispatchResult(
        n_contexts=n_contexts,
        makespan=max(loads) if loads else 0.0,
        loads=loads,
        assignment=assignment,
    )


# ---------------------------------------------------------------------------
# Shared resources and query plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorContextPool:
    """A shared pool of operator contexts across all concurrent queries.

    A stage consume acquires as many contexts as its query was admitted
    with (gang scheduling); queries wanting more contexts than are free
    wait, which is where multi-tenant CPU contention comes from.
    """

    contexts: int = 4

    def __post_init__(self) -> None:
        if self.contexts < 1:
            raise QueryError(f"need at least one operator context: {self.contexts}")


#: Fleets up to this many queries record per-event ``trace_events`` by
#: default (``ConcurrentExecutor(trace=None)``).  Larger fleets skip the
#: per-event dict allocation — at 4096 queries the trace list alone
#: dominates the run's allocation profile — unless tracing is forced on.
TRACE_AUTO_QUERIES = 64


@dataclass(frozen=True)
class ResourceTask:
    """One schedulable unit of a query's serial task chain."""

    kind: str  # "retrieve" | "consume"
    #: The pool the task runs on: ``"disk"`` (the shard's I/O pool, one
    #: of ``ShardedDiskArray.io_resources()``), ``"decoder"``,
    #: ``"operators"``, or ``"cache"`` (the uncontended RAM tier serving
    #: decoded-frame hits).
    resource: str
    units: int  # pool units held while running
    duration: float  # simulated seconds of service
    category: str  # SimClock category ("disk" | "decode" | "consume" | "cache")
    operator: str  # cascade stage this task belongs to
    access: Optional[RetrievalAccess] = None  # cache view of a retrieve task
    hit: bool = False  # True when planned as a committed cache hit
    #: Disk shard serving a "disk" retrieval; the executor routes the
    #: task onto that shard's channel pool.
    shard: int = 0
    #: Completion hook, fired at the simulated instant the task finishes.
    #: Background evolution jobs commit their side effect here — a store
    #: put, delete, or placement move — so store mutations land in event
    #: order on the shared timeline.  Excluded from equality/repr: a hook
    #: is a runtime attachment, not part of the planned task's value.
    on_done: Optional[Callable[[], None]] = field(
        default=None, compare=False, repr=False
    )


@dataclass(frozen=True)
class StagePlan:
    """One cascade stage: its retrievals, its consume, its outcome."""

    operator: str
    tasks: Tuple[ResourceTask, ...]  # retrievals in segment order, then consume
    touched: int  # segments this stage scanned
    positives: int  # positive frames it produced
    #: Per-segment consume costs (zeroed for committed result-cache hits)
    #: and the matching result-cache keys, in task order; empty / ``None``
    #: entries when the store runs without a cache plane.
    consume_costs: Tuple[float, ...] = ()
    result_keys: Tuple[Optional[tuple], ...] = ()
    #: Output byte sizes matching ``result_keys`` — commits must not read
    #: sizes back out of the (separately bounded) real-RAM memo.
    result_nbytes: Tuple[float, ...] = ()
    #: (key, saved seconds) per committed result hit — counted when the
    #: stage's consume actually runs on the clock.
    result_hits: Tuple[Tuple[tuple, float], ...] = ()


@dataclass(frozen=True)
class QueryPlan:
    """The full, timing-independent task chain of one query.

    Operator outputs are deterministic (seeded per segment), so which
    segments survive each stage does not depend on scheduling — the chain
    can be planned up front and then purely scheduled.
    """

    label: str
    dataset: str
    stream: str
    video_seconds: float
    stages: Tuple[StagePlan, ...]
    #: Operator contexts the stage consumes were dispatched across.  An
    #: executor admitting this plan (``admit(plan=...)``) adopts it, so
    #: the single-flight dedup re-dispatch and the gang sizes agree.
    contexts: int = 1

    @property
    def tasks(self) -> Tuple[ResourceTask, ...]:
        """Flattened task chain, cached on first access.

        Analysis code reads this per outcome row; re-flattening the stage
        lists every time made plan access O(stages) per call.  The cache
        is keyed on the identity of ``stages`` so the rare caller that
        swaps the (frozen) field via ``object.__setattr__`` still gets a
        fresh flattening.
        """
        cached = self.__dict__.get("_tasks")
        if cached is not None and cached[0] is self.stages:
            return cached[1]
        flat = tuple(t for stage in self.stages for t in stage.tasks)
        object.__setattr__(self, "_tasks", (self.stages, flat))
        return flat

    @property
    def service_seconds(self) -> float:
        """Serial time of the chain — the query's uncontended latency.

        Cached like :attr:`tasks` (and invalidated the same way): slowdown
        and fairness reports divide by this per query, per row.
        """
        cached = self.__dict__.get("_service")
        if cached is not None and cached[0] is self.stages:
            return cached[1]
        total = sum(t.duration for t in self.tasks)
        object.__setattr__(self, "_service", (self.stages, total))
        return total

    @property
    def positives_per_stage(self) -> Dict[str, int]:
        return {s.operator: s.positives for s in self.stages}

    @property
    def segments_per_stage(self) -> Dict[str, int]:
        return {s.operator: s.touched for s in self.stages}


# ---------------------------------------------------------------------------
# Scheduling policies
# ---------------------------------------------------------------------------


#: The executor's scheduling policies, by name.  A freed pool grants its
#: fitting ready task with the smallest key, backfilling past gangs that do
#: not fit: ``"fifo"`` in arrival order, ``"fair"`` by least service
#: attained on the resource, ``"edf"`` by earliest deadline (undated
#: last), ``"wfair"`` by least tenant ``service / weight``
#: (:class:`TenantState`; a background job by its own service).
POLICIES: Tuple[str, ...] = ("fifo", "fair", "edf", "wfair")


# ---------------------------------------------------------------------------
# Tenancy and admission control (the open-loop serving plane)
# ---------------------------------------------------------------------------


@dataclass
class TenantState:
    """One tenant's record, attached to every session of the tenant.

    One instance per tenant name per executor.  ``weight`` and ``quota``
    come from the :class:`~repro.query.workload.TenantSpec` a run serves
    (``ConcurrentExecutor(tenants=...)``); any other tenant, the
    anonymous ``""`` of untenanted sessions included, has weight 1 and
    no quota.  The admission queue and the ``"wfair"`` key read them
    only here.
    """

    name: str
    weight: float = 1.0  # share of contended service under "wfair"
    quota: Optional[int] = None  # in-flight cap under an AdmissionConfig
    #: Attained service across all resources (simulated seconds), updated
    #: on every task finish of a run whose scheduling policy or admission
    #: order is ``"wfair"``.
    service: float = 0.0
    #: Version stamp bumped with every service change, so ready entries
    #: keyed on an older stamp are re-keyed lazily.
    stamp: int = 0
    #: Queries of this tenant currently inside the executor (admitted
    #: past admission control, not yet finished).
    in_flight: int = 0


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission control for open-loop serving.

    Bounds how much of an arrival stream may be in flight at once; the
    rest waits in an admission queue ordered by ``queue_policy``:

    * ``"arrival"`` — FIFO by arrival instant;
    * ``"edf"`` — earliest deadline first (deadline-less queries last),
      the SLO-aware order: with per-tenant SLOs, a query's deadline is
      ``arrival + slo``, so EDF admits the most urgent work first;
    * ``"wfair"`` — weighted fair share across tenants: the queue head
      of the tenant with the least weighted attained service enters
      first (FIFO within each tenant).

    Each tenant's quota (its :class:`TenantState`) caps its in-flight
    queries independently of the global bound; quota-blocked tenants
    never head-of-line-block other tenants (the queue is per-tenant
    underneath).  Background jobs (scheduling class 1) bypass admission
    entirely.
    """

    max_in_flight: Optional[int] = None
    queue_policy: str = "arrival"

    def __post_init__(self) -> None:
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise QueryError(
                f"max_in_flight must be >= 1: {self.max_in_flight}"
            )
        if self.queue_policy not in ("arrival", "edf", "wfair"):
            raise QueryError(
                f"unknown admission queue policy {self.queue_policy!r}; "
                f"known: arrival, edf, wfair"
            )


class _AdmissionController:
    """Bounded in-flight admission with per-tenant queues.

    Every structure is per-tenant: a binary heap of waiting sessions per
    tenant keyed by the queue policy's order, so a pick is O(T log n)
    for T tenants — the controller stays cheap at 10k queued queries.
    ``arrive`` and ``finish`` return the sessions that may now enter the
    executor; the caller submits their first tasks.
    """

    def __init__(self, config: AdmissionConfig,
                 tenants: Dict[str, TenantState]):
        self.config = config
        self._tenants = tenants
        self.in_flight = 0
        self.queued = 0
        #: ``(t, queued, in_flight)`` samples at every change point, one
        #: per distinct instant — the queue-depth timeline the SLO report
        #: plots.
        self.timeline: List[Tuple[float, int, int]] = []
        self._queues: Dict[str, List[tuple]] = {}

    def _key(self, session: "QuerySession") -> tuple:
        if self.config.queue_policy == "edf":
            deadline = session.deadline
            return (deadline if deadline is not None else math.inf,
                    session.arrival_at, session.qid)
        return (session.arrival_at, session.qid)

    def _pick(self) -> Optional["QuerySession"]:
        cfg = self.config
        if cfg.max_in_flight is not None and self.in_flight >= cfg.max_in_flight:
            return None
        wfair = cfg.queue_policy == "wfair"
        best_name = None
        best_key: Optional[tuple] = None
        for name in sorted(self._queues):
            queue = self._queues[name]
            state = self._tenants[name]  # made when the session was admitted
            if not queue or (state.quota is not None
                             and state.in_flight >= state.quota):
                continue
            head_key = queue[0][0]
            if wfair:
                key = (state.service / state.weight,) + head_key
            else:
                key = head_key
            if best_key is None or key < best_key:
                best_key = key
                best_name = name
        if best_name is None:
            return None
        _, session = heapq.heappop(self._queues[best_name])
        self.queued -= 1
        self.in_flight += 1
        state = session.tenant_state
        if state is not None:
            state.in_flight += 1
        return session

    def _drain(self) -> List["QuerySession"]:
        admitted: List["QuerySession"] = []
        while True:
            session = self._pick()
            if session is None:
                return admitted
            admitted.append(session)

    def _sample(self, now: float) -> None:
        point = (now, self.queued, self.in_flight)
        if self.timeline and self.timeline[-1][0] == now:
            self.timeline[-1] = point
        else:
            self.timeline.append(point)

    def arrive(self, session: "QuerySession",
               now: float) -> List["QuerySession"]:
        """Queue one arrival; return every session admitted by it."""
        name = session.tenant or ""
        heapq.heappush(self._queues.setdefault(name, []),
                       (self._key(session), session))
        self.queued += 1
        admitted = self._drain()
        self._sample(now)
        return admitted

    def finish(self, session: "QuerySession",
               now: float) -> List["QuerySession"]:
        """Release one finished session; return the sessions its slot
        (and its tenant's quota slot) let in."""
        self.in_flight -= 1
        state = session.tenant_state
        if state is not None:
            state.in_flight -= 1
        admitted = self._drain()
        self._sample(now)
        return admitted


# ---------------------------------------------------------------------------
# Sessions, outcomes, executor
# ---------------------------------------------------------------------------


@dataclass
class QuerySession:
    """One admitted query: its spec, plan, and runtime accounting."""

    qid: int
    query: "QueryCascade"
    dataset: str
    stream: str
    accuracy: float
    t0: float
    t1: float
    contexts: int
    deadline: Optional[float]
    plan: QueryPlan
    admitted_at: float
    finished_at: Optional[float] = None
    #: Simulated instant the query *arrived* at the store.  Open-loop
    #: workloads admit ahead of time with future arrivals; closed-loop
    #: fleets default it to the admit instant (see ``__post_init__``).
    #: Latency is honest: ``finished_at - arrival_at``, including any
    #: time spent queued before admission.
    arrival_at: Optional[float] = None
    #: Tenant this query belongs to (``None`` = untenanted).
    tenant: Optional[str] = None
    #: Shared accounting of this session's tenant (one object per tenant
    #: per executor); ``None`` for directly constructed sessions.
    tenant_state: Optional[TenantState] = None
    #: Simulated instant the session passed admission control and its
    #: first task was submitted (= arrival when nothing throttled it).
    entered_at: Optional[float] = None
    #: Time spent in the admission queue before entering the executor.
    queued_seconds: float = 0.0
    waited_seconds: float = 0.0  # time spent queued for busy resources
    service_by_resource: Dict[str, float] = field(default_factory=dict)
    #: Scheduling class: 0 = foreground query, 1 = background evolution
    #: job.  The executor prepends it to every policy priority key, so a
    #: background task is granted only when no foreground task fits the
    #: free capacity.  All-foreground fleets get a constant prefix, which
    #: leaves their schedules (and the golden traces) bit-identical.
    klass: int = 0

    def __post_init__(self) -> None:
        if self.arrival_at is None:
            self.arrival_at = self.admitted_at

    @property
    def label(self) -> str:
        return f"q{self.qid}:{self.query.name}@{self.stream}"

    @property
    def latency(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.arrival_at


@dataclass(frozen=True)
class BackgroundJob:
    """One background evolution job: a serial chain of resource tasks.

    Jobs are how format re-encodes, retirement deletes and replica
    rebuilds enter the executor (``admit_job``): they wait in the same
    per-resource queues as query tasks, hold the same pool units and
    charge the same clock — but in scheduling class 1, so any foreground
    task that fits the free capacity is granted first.  Each task's
    ``on_done`` hook commits the corresponding store mutation at the
    simulated instant the work finished (see :mod:`repro.core.evolve`
    and :mod:`repro.storage.failures` for the job builders).
    """

    name: str  # shows up as the session label's query name
    stream: str
    kind: str  # "reencode" | "retire" | "rebuild"
    tasks: Tuple[ResourceTask, ...]


@dataclass(frozen=True)
class QueryOutcome:
    """Per-query result of a concurrent run."""

    session: QuerySession
    result: "ExecutionResult"

    @property
    def latency(self) -> float:
        """Honest end-to-end latency: finish minus *arrival*.

        Includes the time an open-loop query spent queued in admission
        control before it was allowed in; for closed-loop fleets arrival
        and admit coincide, so this is the pre-existing number.
        """
        return self.session.finished_at - self.session.arrival_at

    @property
    def service_seconds(self) -> float:
        """Busy time of the query's own tasks (= its uncontended latency)."""
        return self.session.plan.service_seconds

    @property
    def waited_seconds(self) -> float:
        return self.session.waited_seconds

    @property
    def queued_seconds(self) -> float:
        """Time spent in the admission queue before entering."""
        return self.session.queued_seconds

    @property
    def slowdown(self) -> float:
        """Contention-induced slowdown over running the query alone.

        A zero-service outcome (an empty plan — e.g. every stage was a
        committed result hit) with positive latency spent *all* of that
        latency queueing; under open-loop admission that is real harm, so
        it reports as ``inf`` rather than pretending "no slowdown".
        Aggregates stay well-defined: :func:`~repro.analysis.concurrency.
        jain_index` and ``ConcurrencyReport.mean_slowdown`` fold only the
        finite rows.
        """
        service = self.service_seconds
        if service > 0:
            return self.latency / service
        return math.inf if self.latency > 0 else 1.0

    @property
    def deadline_met(self) -> Optional[bool]:
        if self.session.deadline is None:
            return None
        return self.session.finished_at <= self.session.deadline


@dataclass(frozen=True)
class ExecutorStats:
    """Aggregate resource accounting of one concurrent run."""

    policy: str
    n_queries: int
    makespan: float  # simulated seconds from the run's start to its drain's end
    capacities: Dict[str, Optional[int]]  # None = uncontended
    busy_seconds: Dict[str, float]  # unit-seconds of service per resource
    core: str = "heap"  # executor core that produced the run
    events: int = 0  # task start/finish events of the run
    #: Host seconds of run()'s lowering, drain and metrics fold.
    wall_seconds: float = 0.0
    #: Real seconds spent planning and admitting the fleet (``admit`` /
    #: ``admit_job`` calls) before :meth:`ConcurrentExecutor.run` — the
    #: host-side cost ``wall_seconds`` alone silently excluded.
    admit_wall_seconds: float = 0.0
    #: The part of ``admit_wall_seconds`` spent inside
    #: :meth:`QueryEngine.plan <repro.query.engine.QueryEngine.plan>`
    #: (admissions that passed no precomputed plan).
    plan_wall_seconds: float = 0.0
    #: The part of ``wall_seconds`` spent lowering the fleet's chains to
    #: flat arrays, before the drain.
    lower_wall_seconds: float = 0.0

    @property
    def total_wall_seconds(self) -> float:
        """Host time inside ``admit``/``admit_job`` calls plus run()'s
        timed window.  A store run's whole host time, the workload build,
        the outcome fold and the store's observers included, is the sum
        of its ``RunResult.phases``."""
        return self.wall_seconds + self.admit_wall_seconds

    @property
    def events_per_second(self) -> float:
        """Real-time event throughput, over the *total* wall.

        Planning and admission are part of serving a fleet; excluding
        them overstated throughput for fleets admitted without
        precomputed plans.  (For the scale benchmarks, which admit from
        precomputed plans, the two denominators differ by well under the
        bench-diff tolerance.)
        """
        wall = self.total_wall_seconds
        if wall <= 0:
            return 0.0
        return self.events / wall

    def utilization(self, resource: str) -> Optional[float]:
        """Busy fraction of a bounded pool over the run (None if unbounded)."""
        capacity = self.capacities.get(resource)
        if capacity is None or self.makespan <= 0:
            return None
        return self.busy_seconds.get(resource, 0.0) / (capacity * self.makespan)


@dataclass
class _Pool:
    name: str
    capacity: Optional[int]  # None = unbounded (no contention)
    in_use: int = 0
    busy_seconds: float = 0.0

    def clamp(self, units: int) -> int:
        return units if self.capacity is None else min(units, self.capacity)


class _Fleet:
    """A fleet lowered for :meth:`ConcurrentExecutor._drain`.

    ``chains[s]`` is session ``s``'s chain (shared by every session on the
    same plan unless the cache plane lowered it per session); task ``i``
    of session ``s`` has the dependency uid ``base[s] + i``.  ``pending``
    counts each uid's unfinished dependencies and ``dependents`` lists who
    waits on a uid — both empty without single-flight edges.
    """

    __slots__ = ("chains", "base", "pending", "dependents")

    def __init__(self, chains: List[Chain], pending: Dict[int, int],
                 dependents: Dict[int, List[int]]) -> None:
        self.chains = chains
        base, uid = [], 0
        for chain in chains:
            base.append(uid)
            uid += chain.n
        self.base = base
        self.pending = pending
        self.dependents = dependents


def _check_duration(task: ResourceTask, owner: str) -> None:
    """Reject a task duration the simulated clock cannot charge."""
    if not (math.isfinite(task.duration) and task.duration >= 0):
        raise QueryError(
            f"{owner} has a {task.kind!r} task on {task.resource!r} with "
            f"duration {task.duration}; durations must be finite and "
            f"non-negative"
        )


class ConcurrentExecutor:
    """Admits N cascade queries and interleaves them on shared resources.

    Usage::

        ex = ConcurrentExecutor(config, library, store,
                                decoder_pool=DecoderPool(2),
                                policy="fair")
        ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 64.0)
        ex.admit(QUERY_A, "jackson", 0.8, 0.0, 32.0)
        outcomes = ex.run()

    ``policy`` is one of :data:`POLICIES`; any other name raises
    :class:`QueryError`.  Each of ``tenants`` (the
    :class:`~repro.query.workload.TenantSpec` a run serves) becomes its
    tenant's :class:`TenantState`.  Pools left as ``None`` are
    uncontended (infinite capacity), which makes a single admitted query
    reproduce the sequential engine bit-identically.
    """

    def __init__(
        self,
        config: "Configuration",
        library: "OperatorLibrary",
        store: "SegmentStore",
        *,
        policy: str = "fifo",
        disk_pool: Optional[DiskBandwidthPool] = None,
        decoder_pool: Optional[DecoderPool] = None,
        operator_pool: Optional[OperatorContextPool] = None,
        clock: Optional[SimClock] = None,
        stage_outcomes: Optional[Dict[str, dict]] = None,
        cache: Optional[CachePlane] = None,
        trace: Optional[bool] = None,
        metrics=None,
        admission: Optional[AdmissionConfig] = None,
        tenants: Sequence["TenantSpec"] = (),
    ):
        if policy not in POLICIES:
            raise QueryError(
                f"unknown scheduling policy {policy!r}; known: "
                f"{', '.join(POLICIES)}"
            )
        self.config = config
        self.library = library
        self.store = store
        self.policy = policy
        self.clock = clock or SimClock()
        self.cache = cache
        # A sharded store gets one I/O channel pool per disk shard
        # (``disk_pool.channels`` counts channels *per shard*), so
        # retrievals on different shards genuinely overlap; a single-shard
        # store keeps the original one-pool layout and resource names.
        # The array itself names its channel pools (``io_resources``) so
        # the event loop keeps one ready queue per spindle.
        channels = disk_pool.channels if disk_pool else None
        disk_pools = {name: _Pool(name, channels)
                      for name in store.array.io_resources()}
        self._pools: Dict[str, _Pool] = {
            **disk_pools,
            "decoder": _Pool(
                "decoder", decoder_pool.contexts if decoder_pool else None
            ),
            "operators": _Pool(
                "operators", operator_pool.contexts if operator_pool else None
            ),
            # The RAM tier serving cache hits never queues anyone.
            "cache": _Pool("cache", None),
        }
        #: Task start/finish events of the last run, in simulated-time
        #: order — the raw material of the golden-trace regression tests.
        #: Recording is opt-in: ``trace=None`` (the default) records for
        #: fleets of up to :data:`TRACE_AUTO_QUERIES` queries and skips
        #: the per-event dicts beyond that; ``trace=True``/``False``
        #: forces it either way.  Event *counts* (``stats().events``) are
        #: kept regardless.
        self.trace_events: List[Dict[str, object]] = []
        self._trace_mode = trace
        self._tracing = trace if trace is not None else True
        self._events = 0
        #: The loop :meth:`run` took, for ``ExecutorStats.core``: always
        #: ``"heap"`` in production (the parity oracles in
        #: ``tests/oracles`` report their own name).
        self._core_used = "heap"
        #: Always-on metrics registry
        #: (:class:`~repro.obs.metrics.MetricsRegistry`) the run feeds
        #: aggregates into, or ``None`` to skip — ``VStore.executor()``
        #: attaches the store's registry unless passed ``metrics=None``.
        self.metrics = metrics
        self._engines: Dict[str, "QueryEngine"] = {}
        #: Per-dataset stage-outcome memos the engines this executor
        #: builds read and fill (``VStore.executor()`` passes the store's,
        #: so a store's later runs re-run no operator).
        self._stage_outcomes: Dict[str, dict] = (
            {} if stage_outcomes is None else stage_outcomes
        )
        self._sessions: List[QuerySession] = []
        #: One record per tenant: the served ones now, any other at its
        #: first admission (the anonymous ``""`` holds untenanted ones).
        self._tenants: Dict[str, TenantState] = {}
        for spec in tenants:
            if spec.name in self._tenants:
                raise QueryError(f"duplicate tenant name {spec.name!r}")
            self._tenants[spec.name] = TenantState(
                spec.name, weight=spec.weight, quota=spec.quota)
        #: Admission control (open-loop serving); ``None`` = admit-all,
        #: which is the closed-loop flow golden traces pin.
        self._admission: Optional[_AdmissionController] = (
            _AdmissionController(admission, self._tenants)
            if admission is not None else None
        )
        self._started_at: float = self.clock.now
        #: Clock reading when the drain ended: the makespan ends here,
        #: before the cache plane's post-run tier sweep moves the clock.
        self._drained_at: float = self.clock.now
        self._ran = False
        self._wall_seconds = 0.0
        self._admit_wall_seconds = 0.0
        self._plan_wall_seconds = 0.0
        self._lower_wall_seconds = 0.0
        self._frame_followers: Dict[tuple, int] = {}
        #: Precomputed plans (by id, holding the plan so the id stays
        #: unique) whose tasks already passed admission's checks: a fleet
        #: admitting one plan thousands of times checks it once.
        self._checked_plans: Dict[int, QueryPlan] = {}
        #: Scheduled shard failure events (:mod:`repro.storage.failures`)
        #: merged into the run's timeline — see :meth:`schedule_failures`.
        self._failure_events: List = []

    # -- admission ---------------------------------------------------------

    def _engine(self, dataset: str) -> "QueryEngine":
        if dataset not in self._engines:
            from repro.query.engine import QueryEngine

            self._engines[dataset] = QueryEngine(
                self.config, self.library, dataset, cache=self.cache,
                stage_outcomes=self._stage_outcomes.setdefault(dataset, {}),
            )
        return self._engines[dataset]

    def admit(
        self,
        query: "QueryCascade",
        dataset: str,
        accuracy: float,
        t0: float,
        t1: float,
        *,
        stream: Optional[str] = None,
        scheme: Optional["AlternativeScheme"] = None,
        contexts: int = 1,
        deadline: Optional[float] = None,
        plan: Optional[QueryPlan] = None,
        arrival: Optional[float] = None,
        tenant: Optional[str] = None,
    ) -> QuerySession:
        """Admit one query; its task chain is planned immediately.

        The host time this takes (planning included) accumulates into
        ``ExecutorStats.admit_wall_seconds`` — ``run()``'s wall alone
        used to silently exclude it from events/s.

        ``arrival`` places the query on the simulated timeline for
        open-loop serving: the run leaves it untouched until the clock
        reaches that instant, then routes it through admission control
        (when configured).  Omitted, the query arrives "now" — the
        closed-loop flow.  ``tenant`` names the owning tenant for
        quotas, weighted fair sharing and per-tenant SLO reporting.

        Plans are timing-independent, so a fleet of identical queries may
        pass a precomputed ``plan`` (from :meth:`QueryEngine.plan`) to
        skip re-planning per admission — how the scale benchmarks admit
        hundreds of queries without paying hundreds of planning passes.
        A supplied plan must have been planned with gang sizes that fit
        this executor's operator pool, and the session adopts the *plan's*
        context count (the ``contexts`` argument is ignored): the
        single-flight dedup re-dispatches remaining segment costs across
        ``session.contexts``, so a mismatch would silently simulate a
        different machine.  Every task of a supplied plan must also have
        a finite, non-negative duration; each distinct plan is checked
        once per executor.
        """
        if self._ran:
            raise QueryError("executor already ran; create a new one")
        if contexts <= 0:
            raise QueryError(f"need at least one context: {contexts}")
        self._check_timing(arrival, deadline)
        wall0 = perf_counter()
        if plan is None:
            # A gang larger than the shared pool can never be granted;
            # clamp so the stage dispatch and the resource request agree.
            contexts = self._pools["operators"].clamp(contexts)
            engine = self._engine(dataset)
            plan0 = perf_counter()
            plan = engine.plan(
                query,
                accuracy,
                self.store,
                t0,
                t1,
                stream=stream,
                scheme=scheme,
                contexts=contexts,
            )
            self._plan_wall_seconds += perf_counter() - plan0
        else:
            if id(plan) not in self._checked_plans:
                self._check_plan(plan)
            contexts = plan.contexts
        # Positional: QuerySession's field order, finished_at left None.
        session = QuerySession(
            len(self._sessions), query, dataset, plan.stream, accuracy, t0,
            t1, contexts, deadline, plan, self.clock.now, None, arrival,
            tenant, self._tenant_state_for(tenant),
        )
        self._sessions.append(session)
        self._admit_wall_seconds += perf_counter() - wall0
        return session

    def _check_plan(self, plan: QueryPlan) -> None:
        """Check a precomputed plan against this executor's pools, once.

        Its gang must fit the operator pool unclamped — a clamped gang
        would re-dispatch deduplicated consumes over fewer contexts than
        the plan's durations assume, a silent simulation error — and every
        task must fit its pool with a finite, non-negative duration.
        """
        effective_contexts = self._pools["operators"].clamp(plan.contexts)
        if effective_contexts != plan.contexts:
            raise QueryError(
                f"precomputed plan was dispatched over {plan.contexts} "
                f"contexts but the operator pool clamps to "
                f"{effective_contexts}; re-plan with fewer contexts"
            )
        for task in plan.tasks:
            _check_duration(task, "precomputed plan")
            pool = self._pools.get(task.resource)
            if (pool is not None and pool.capacity is not None
                    and task.units > pool.capacity):
                raise QueryError(
                    f"precomputed plan needs {task.units} units of "
                    f"{task.resource!r} but the pool holds only "
                    f"{pool.capacity}; re-plan with fewer contexts"
                )
        self._checked_plans[id(plan)] = plan

    def _check_timing(self, arrival: Optional[float],
                      deadline: Optional[float]) -> None:
        """Reject timeline inputs the event loop cannot order: an arrival
        that is not finite or lies in the simulated past, a NaN deadline."""
        if arrival is not None:
            if not math.isfinite(arrival):
                raise QueryError(f"arrival must be finite: {arrival}")
            if arrival < self.clock.now:
                raise QueryError(
                    f"arrival {arrival} is in the simulated past "
                    f"(clock at {self.clock.now})"
                )
        if deadline is not None and math.isnan(deadline):
            raise QueryError("deadline must not be NaN")

    def _tenant_state_for(self, tenant: Optional[str]) -> TenantState:
        name = tenant or ""
        state = self._tenants.get(name)
        if state is None:
            state = self._tenants[name] = TenantState(name=name)
        return state

    def admit_job(self, job: BackgroundJob,
                  deadline: Optional[float] = None, *,
                  arrival: Optional[float] = None) -> QuerySession:
        """Admit one background evolution job as a low-priority gang.

        The job becomes a session in scheduling class 1: its serial task
        chain contends honestly for the disk/decoder pools — waiting when
        they are full, holding units while running — but any foreground
        task that fits free capacity is granted first.  ``run()`` returns
        its outcome alongside the queries' (``video_seconds`` is 0, so
        analysis code can tell jobs and queries apart by ``session.klass``).

        ``arrival`` places the job on the simulated timeline the way it
        does for queries: the run leaves it untouched until the clock
        reaches that instant.  Re-replication jobs use this to start at
        the simulated moment their shard failed, not at admit time.
        Every task must fit its pool and have a finite, non-negative
        duration.
        """
        if self._ran:
            raise QueryError("executor already ran; create a new one")
        if not job.tasks:
            raise QueryError(f"background job {job.name!r} has no tasks")
        self._check_timing(arrival, deadline)
        wall0 = perf_counter()
        for task in job.tasks:
            _check_duration(task, f"background job {job.name!r}")
            pool = self._pools.get(self._resource_name(task))
            if (pool is not None and pool.capacity is not None
                    and task.units > pool.capacity):
                raise QueryError(
                    f"background job {job.name!r} needs {task.units} units "
                    f"of {task.resource!r} but the pool holds only "
                    f"{pool.capacity}"
                )
        plan = QueryPlan(
            label=job.name,
            dataset=job.stream,
            stream=job.stream,
            video_seconds=0.0,
            stages=(StagePlan(operator=job.kind, tasks=job.tasks,
                              touched=len(job.tasks), positives=0),),
        )
        session = QuerySession(
            qid=len(self._sessions),
            query=job,
            dataset=job.stream,
            stream=job.stream,
            accuracy=0.0,
            t0=0.0,
            t1=0.0,
            contexts=1,
            deadline=deadline,
            plan=plan,
            admitted_at=self.clock.now,
            arrival_at=arrival,
            klass=1,
        )
        self._sessions.append(session)
        self._admit_wall_seconds += perf_counter() - wall0
        return session

    def schedule_failures(self, events) -> None:
        """Put a failure campaign's events on the run's timeline.

        ``events`` is an iterable of
        :class:`~repro.storage.failures.FailureEvent` (or a
        :class:`~repro.storage.failures.FailureCampaign`); the run merges
        them with arrivals and completions in simulated-time order —
        completions win ties against an event, events fire before
        arrivals at the same instant, and trailing events extend the
        makespan (the clock idles forward to them).  Each event emits a
        paired zero-duration ``start``/``finish`` trace record under the
        pseudo-query label ``"failures"``.

        The events are purely observational (trace + clock): the caller
        applies the campaign to the array itself, as ``VStore.serve`` does
        during its planning pass, and schedules any rebuild work as jobs
        before the run starts.
        """
        if self._ran:
            raise QueryError("executor already ran; create a new one")
        incoming = sorted(events, key=lambda e: e.t)
        for event in incoming:
            if event.t < self.clock.now:
                raise QueryError(
                    f"failure event at {event.t} is in the simulated past "
                    f"(clock at {self.clock.now})"
                )
        merged = sorted(self._failure_events + incoming, key=lambda e: e.t)
        self._failure_events = merged

    def _apply_failure_event(self, event) -> None:
        """Fire one scheduled failure event at the current instant: emit
        its paired start/finish trace records (see
        :meth:`schedule_failures`)."""
        t = self.clock.now
        resource = self.store.array.io_resource(event.shard)
        operator = f"shard{event.shard}"
        for lifecycle in ("start", "finish"):
            self._events += 1
            if self._tracing:
                self.trace_events.append(task_event(
                    lifecycle, t, "failures", event.action, operator,
                    resource, 0.0,
                ))

    @property
    def sessions(self) -> List[QuerySession]:
        return list(self._sessions)

    @property
    def admission_timeline(self) -> List[Tuple[float, int, int]]:
        """``(t, queued, in_flight)`` samples from admission control,
        one per change instant; empty without an :class:`AdmissionConfig`."""
        if self._admission is None:
            return []
        return list(self._admission.timeline)

    @property
    def started_at(self) -> float:
        """Simulated instant the run began — the trace's time origin."""
        return self._started_at

    # -- single-flight chain transformation --------------------------------

    def _runtime_chains(self) -> Dict[int, List[_RunTask]]:
        """Materialize each session's chain as runtime tasks.

        Without a cache plane every plan task maps through verbatim.  With
        one, duplicate work across the admitted sessions is deduplicated in
        admission order:

        * a retrieval whose frame-cache key an earlier task already misses
          on becomes a *follower*: it runs on the RAM tier for the hit
          cost, but only after the leader's retrieval completed (the
          follower waits on the in-flight entry instead of re-reading);
        * a stage consume whose result keys an earlier consume already
          produces drops those segments' costs and waits on the producer.

        Dependency edges always point at tasks created earlier in this
        scan, and every session's own chain is serial, so the dependency
        graph is acyclic and the event loop cannot deadlock.
        """
        chains: Dict[int, List[_RunTask]] = {}
        uid = 0
        frame_leaders: Dict[tuple, int] = {}
        result_leaders: Dict[tuple, int] = {}
        self._frame_followers = {}

        for session in self._sessions:
            chain: List[_RunTask] = []
            for stage in session.plan.stages:
                for task in stage.tasks:
                    if task.kind != "consume":
                        # Retrievals, plus every background-job task kind
                        # ("read"/"transcode"/"write"/"delete"): all route
                        # through shard-aware resource naming; job tasks
                        # carry no cache access, so they map verbatim.
                        rt = self._runtime_retrieve(task, uid, frame_leaders)
                    else:
                        rt = self._runtime_consume(task, stage, session, uid,
                                                   result_leaders)
                    chain.append(rt)
                    uid += 1
            chains[session.qid] = chain
        return chains

    def _resource_name(self, task: ResourceTask) -> str:
        """The pool a task runs on: disk retrievals route to their shard."""
        if task.resource == "disk":
            return self.store.array.io_resource(task.shard)
        return task.resource

    def _runtime_retrieve(self, task: ResourceTask, uid: int,
                          leaders: Dict[tuple, int]) -> _RunTask:
        access = task.access
        if access is None or task.hit or self.cache is None:
            # No cache, or a committed hit already planned on the RAM tier.
            return _RunTask(task=task, resource=self._resource_name(task),
                            units=task.units, duration=task.duration,
                            category=task.category, uid=uid,
                            note_access=access)
        if access.key in leaders:
            self._frame_followers[access.key] = (
                self._frame_followers.get(access.key, 0) + 1
            )
            return _RunTask(task=task, resource="cache", units=1,
                            duration=access.hit_seconds, category="cache",
                            uid=uid, deps=(leaders[access.key],),
                            follower_access=access, note_access=access)
        leaders[access.key] = uid
        return _RunTask(task=task, resource=self._resource_name(task),
                        units=task.units,
                        duration=task.duration, category=task.category,
                        uid=uid, commit_access=access, note_access=access)

    def _runtime_consume(self, task: ResourceTask, stage: StagePlan,
                         session: QuerySession, uid: int,
                         leaders: Dict[tuple, int]) -> _RunTask:
        if self.cache is None or not stage.result_keys:
            return _RunTask(task=task, resource=task.resource,
                            units=task.units, duration=task.duration,
                            category=task.category, uid=uid,
                            hit_results=stage.result_hits)
        costs = list(stage.consume_costs)
        deps: List[int] = []
        produced: List[Tuple[tuple, float, float]] = []
        dedup_count = 0
        dedup_saved = 0.0
        for i, (cost, key, nbytes) in enumerate(
                zip(costs, stage.result_keys, stage.result_nbytes)):
            if key is None or cost <= 0:
                continue  # uncached segment, or already a committed hit
            if key in leaders:
                deps.append(leaders[key])
                dedup_count += 1
                dedup_saved += cost
                costs[i] = 0.0
            else:
                leaders[key] = uid
                produced.append((key, cost, nbytes))
        if dedup_count:
            duration = dispatch(costs, session.contexts).makespan
        else:
            duration = task.duration  # nothing zeroed: plan makespan holds
        # Dedup zeroed more segments: re-clamp the gang to remaining work.
        busy_segments = sum(1 for c in costs if c > 0)
        units = max(1, min(task.units, busy_segments))
        return _RunTask(task=task, resource=task.resource, units=units,
                        duration=duration, category=task.category, uid=uid,
                        deps=tuple(sorted(set(deps))),
                        produced_results=tuple(produced),
                        hit_results=stage.result_hits,
                        dedup_count=dedup_count, dedup_saved=dedup_saved)

    def _task_completed(self, rt: _RunTask) -> None:
        """Cache/job bookkeeping when a runtime task finishes in simulated
        time."""
        if rt.task.on_done is not None:
            # Background jobs commit their store side effect here, at the
            # simulated instant the work completed — before any cache
            # bookkeeping, and regardless of whether a cache is attached.
            rt.task.on_done()
        if self.cache is None:
            return
        if rt.commit_access is not None:
            self.cache.commit_frames(
                rt.commit_access,
                pins=self._frame_followers.get(rt.commit_access.key, 0),
            )
        if rt.follower_access is not None:
            self.cache.serve_follower(rt.follower_access)
        if rt.task.hit and rt.note_access is not None:
            self.cache.record_frame_hit(rt.note_access)
        if rt.note_access is not None:
            self.cache.note_access(rt.note_access)
        for key, saved, nbytes in rt.produced_results:
            self.cache.results.commit(key, saved, nbytes=nbytes)
        for key, saved in rt.hit_results:
            self.cache.record_result_hit(key, saved)
        if rt.dedup_count:
            self.cache.dedup_consume(rt.dedup_saved, rt.dedup_count)

    # -- the event loop ----------------------------------------------------

    def run(self) -> List[QueryOutcome]:
        """Run all admitted queries to completion; returns them in admit order.

        ``ExecutorStats.wall_seconds`` times lowering the fleet to flat
        arrays (:meth:`_lower`), the drain loop (:meth:`_drain`) and the
        metrics fold — everything but the cache plane's tier sweep.
        """
        if self._ran:
            raise QueryError("executor already ran; create a new one")
        self._ran = True
        self._started_at = self.clock.now
        self.trace_events = []
        self._events = 0
        self._tracing = (
            len(self._sessions) <= TRACE_AUTO_QUERIES
            if self._trace_mode is None else self._trace_mode
        )
        wall0 = perf_counter()
        fleet = self._lower()
        self._lower_wall_seconds = perf_counter() - wall0
        self._drain(fleet)
        del fleet  # free the per-session arrays before the outcome fold
        self._drained_at = self.clock.now
        if self.metrics is not None:
            # Fold aggregates inside the timed window so the CI overhead
            # gate (metrics-on vs metrics-off smoke, diffed at 5%)
            # measures the registry's true cost.
            self.metrics.observe_executor(self.stats(), self._sessions)
        self._wall_seconds = perf_counter() - wall0
        if self.metrics is not None:
            self.metrics.observe_wall(self.stats())
        # Close the cross-layer loop: after the run, migrate segments the
        # access stats marked hot (the migration I/O is on the clock).
        if self.cache is not None and self.cache.tiers is not None:
            self.cache.sweep_tiers(self.clock, self.store.array)
        return self._outcomes()

    def _lower(self) -> _Fleet:
        """Lower every admitted session's chain to flat arrays.

        Without a cache plane a session runs its plan's chain, lowered
        once and cached on the plan (:func:`~repro.query.eventloop.
        plan_chain`).  With one, chains come from the single-flight
        transformation (:meth:`_runtime_chains`) and are lowered per
        session, each task's cache bookkeeping as its completion hook and
        the dedup edges as the fleet's dependency counters.
        """
        layout = tuple(self._pools)
        pool_index = {name: r for r, name in enumerate(layout)}
        chains: List[Chain] = []
        pending: Dict[int, int] = {}
        dependents: Dict[int, List[int]] = {}
        if self.cache is None:
            lowered: Dict[int, Chain] = {}
            for session in self._sessions:
                chain = lowered.get(id(session.plan))
                if chain is None:
                    chain = lowered[id(session.plan)] = plan_chain(
                        session.plan, layout, self.store.array.io_resource,
                        pool_index)
                chains.append(chain)
            return _Fleet(chains, pending, dependents)
        runtime = self._runtime_chains()
        for session in self._sessions:
            tasks = runtime[session.qid]
            chains.append(Chain(
                tasks, [rt.resource for rt in tasks], pool_index,
                [partial(self._task_completed, rt) for rt in tasks],
            ))
            for rt in tasks:
                if rt.deps:
                    pending[rt.uid] = len(rt.deps)
                    for dep in rt.deps:
                        dependents.setdefault(dep, []).append(rt.uid)
        return _Fleet(chains, pending, dependents)

    def _deadlock_error(self, blocked: List[Tuple[int, str, int]]
                        ) -> QueryError:
        """Name the stuck work: every blocked (qid, resource, units) triple."""
        triples = ", ".join(
            f"(q{qid}, {resource}, {units})"
            for qid, resource, units in sorted(blocked)
        )
        return QueryError(
            f"deadlock: {len(blocked)} waiting task(s) but nothing "
            f"running; blocked (qid, resource, units): {triples}"
        )

    def _drain(self, fleet: _Fleet) -> None:
        """The event loop: run a lowered fleet to completion.

        Mutable state lives in flat locals — per-pool ready queues of
        ``(key, seq, s)`` tuples, one completion heap of ``(end, seq, s,
        start)``, per-session lists — written back onto the clock, pools
        and sessions once, after the drain.  It is bit-identical to the
        rescan-loop oracle (``tests/oracles``) by construction:

        * one ``seq`` counter increments on every submission and grant,
          as in the oracle, so every tie-break agrees;
        * a grant takes the minimal ``(key, seq)`` over the pools' fitting
          heads, ``key`` ordering like the oracle's class-banded priority:
          static per session for ``"fifo"`` and ``"edf"``, the chain's
          attained service on the task's pool for ``"fair"``, and for
          ``"wfair"`` the tenant's weighted service at submission (a
          background job's own service, precomputed in chain order).
          Only a tenant's ``"wfair"`` key rises while its task waits; a
          head keyed on an outdated tenant stamp is re-keyed before it
          can win;
        * a pool's ready entries sit in a heap unless every push is
          known to arrive in ``(key, seq)`` order — FIFO with no
          class-1 session, no gang and no dependency edge, where each
          push carries key 0 and the next ``seq`` — and then in a plain
          queue, whose head is the heap's minimum.  A single-flight
          wake-up re-enters with its submission ``seq``, older than
          entries queued meanwhile, so it needs the heap;
        * a gang wider than its pool's free units parks until a task on
          that pool completes, so smaller tasks backfill;
        * a grant round scans only the pools the last event touched: every
          other pool ended the previous round without a fitting head;
        * completions pop in ``(end, seq)`` order and charge the clock
          float-for-float like ``SimClock.charge``/``advance_to``, guards
          included; they win ties against failure events, which fire
          before arrivals at the same instant;
        * a task with unfinished single-flight dependencies parks on their
          counters until the last one completes.

        Per-session service is precomputed per chain (a chain completes in
        order); tenant service is tracked only when the policy or the
        admission order is ``"wfair"``.
        """
        sessions = self._sessions
        n = len(sessions)
        chains, base = fleet.chains, fleet.base
        pending, dependents = fleet.pending, fleet.dependents
        deps = bool(pending or dependents)
        dep_parked: Dict[int, Tuple[int, int]] = {}  # uid -> (s, seq)
        cache = self.cache
        admission = self._admission
        clock = self.clock
        now = start = clock.now
        by_cat = clock.by_category
        tolerance = clock.BACKWARDS_TOLERANCE
        tracing = self._tracing
        trace = self.trace_events
        labels = [s.label for s in sessions] if tracing else None
        pools = list(self._pools.values())
        free = [math.inf if p.capacity is None else p.capacity - p.in_use
                for p in pools]
        busy = [p.busy_seconds for p in pools]
        parked: List[list] = [[] for _ in pools]  # gangs too wide to fit
        completions: list = []
        cursor = [0] * n  # 1 + index of the session's outstanding task
        since = [0.0] * n  # submission instant of that task
        waited = [s.waited_seconds for s in sessions]
        klass = [s.klass for s in sessions]
        seq = 0

        policy = self.policy
        banded = any(klass)  # background jobs sort after every query
        fifo = policy == "fifo"
        static = None
        if fifo:
            static = klass
        elif policy == "edf":
            static = [math.inf if s.deadline is None else s.deadline
                      for s in sessions]
            if banded:
                static = list(zip(klass, static))
        fair = policy == "fair"
        rekey = policy == "wfair"
        stamp = [0] * n  # tenant service stamp each entry was keyed at
        tenants = None
        if rekey or (admission is not None
                     and admission.config.queue_policy == "wfair"):
            tenants = [s.tenant_state for s in sessions]
        if rekey:
            # A background job has no tenant: it ranks by its own service,
            # which grows only as its serial chain completes.
            job_service = {s: chains[s].attained() for s in range(n)
                           if tenants[s] is None}
        gangs = any(chain.wide for chain in chains)
        slow = gangs or rekey
        if fifo and not (banded or gangs or deps):
            # Every push carries key 0 and the next seq, so each pool's
            # heap would pop in push order: a plain queue does the same.
            ready = [deque() for _ in pools]
            put, take = deque.append, deque.popleft
        else:
            ready = [[] for _ in pools]
            put, take = heappush, heappop

        def key_of(s: int, i: int, sq: int):
            if fair:
                attained = chains[s].fair[i]
                return (klass[s], attained) if banded else attained
            ts = tenants[s]
            if ts is None:
                return (klass[s], job_service[s][i], sq)
            stamp[s] = ts.stamp
            return (klass[s], ts.service / ts.weight, sq)

        def push(s: int, i: int, sq: int) -> int:
            key = static[s] if static is not None else key_of(s, i, sq)
            r = chains[s].res[i]
            put(ready[r], (key, sq, s))
            return r

        def settle(r: int):
            """Pool ``r``'s minimal fitting entry, re-keying stale heads
            and parking gangs wider than its free units."""
            q = ready[r]
            while q:
                head = q[0]
                s = head[2]
                if rekey:
                    ts = tenants[s]
                    if ts is not None and ts.stamp != stamp[s]:
                        heapreplace(q, (key_of(s, cursor[s] - 1, head[1]),
                                        head[1], s))
                        continue
                if chains[s].units[cursor[s] - 1] > free[r]:
                    parked[r].append(heappop(q))
                    continue
                return head
            return None

        def enter(entering, now: float, seq: int, dirty: list) -> int:
            """Pass sessions into the executor proper: stamp their entry
            and submit their first tasks; returns the next ``seq``.  An
            empty chain finishes at once and releases its admission slot,
            which may let further queued sessions in."""
            work = list(entering)
            while work:
                session = work.pop(0)
                session.entered_at = now
                session.queued_seconds = now - session.arrival_at
                s = session.qid
                if chains[s].n == 0:
                    session.finished_at = now
                    if admission is not None and session.klass == 0:
                        work.extend(admission.finish(session, now))
                    continue
                cursor[s] = 1
                since[s] = now
                if deps and pending.get(base[s]):
                    dep_parked[base[s]] = (s, seq)
                else:
                    dirty.append(push(s, 0, seq))
                seq += 1
            return seq

        def arrive(session: QuerySession, now: float, seq: int,
                   dirty: list) -> int:
            # Admission control never gates background jobs (class 1).
            if admission is None or session.klass != 0:
                return enter((session,), now, seq, dirty)
            return enter(admission.arrive(session, now), now, seq, dirty)

        for session in sessions:
            if session.arrival_at <= start:
                seq = arrive(session, now, seq, [])
        arrivals = sorted((s for s in sessions if s.arrival_at > start),
                          key=lambda s: (s.arrival_at, s.qid))
        failures = self._failure_events
        ai = fi = 0
        next_arrival = arrivals[0].arrival_at if arrivals else math.inf
        next_failure = failures[0].t if failures else math.inf
        horizon = min(next_arrival, next_failure)
        dirty = range(len(pools))  # the first grant round scans them all

        while True:
            # -- grant round: minimal (key, seq) over fitting heads --
            while True:
                best = None
                for r in dirty:
                    q = ready[r]
                    if q and free[r] > 0:
                        head = settle(r) if slow else q[0]
                        if head is not None and (best is None or head < best):
                            best = head
                            chosen = r
                if best is None:
                    break
                take(ready[chosen])
                s = best[2]
                chain = chains[s]
                i = cursor[s] - 1
                d = chain.dur[i]
                free[chosen] -= chain.units[i]
                waited[s] += now - since[s]
                heappush(completions, (now + d, seq, s, now))
                if tracing:
                    trace.append(task_event(
                        "start", now, labels[s], chain.kind[i], chain.op[i],
                        chain.names[i], d,
                    ))
                seq += 1

            if completions and completions[0][0] <= horizon:
                # -- the next completion, in (end, seq) order --
                end, _, s, begun = heappop(completions)
                chain = chains[s]
                i = cursor[s] - 1
                d = chain.dur[i]
                category = chain.cat[i]
                r = chain.res[i]
                if now == begun:
                    if d < 0:
                        raise ValueError(f"cannot charge negative time: {d}")
                    now += d
                    by_cat[category] = by_cat.get(category, 0.0) + d
                else:
                    delta = end - now
                    if delta > 0:
                        now += delta
                        by_cat[category] = by_cat.get(category, 0.0) + delta
                    elif delta < 0 and delta < -tolerance * max(1.0,
                                                                abs(now)):
                        raise ValueError(
                            f"clock cannot run backwards: advance_to({end}) "
                            f"from {now}"
                        )
                units = chain.units[i]
                free[r] += units
                busy[r] += units * d
                if tenants is not None:
                    ts = tenants[s]
                    if ts is not None:
                        ts.service += d
                        ts.stamp += 1
                if tracing:
                    trace.append(task_event(
                        "finish", now, labels[s], chain.kind[i], chain.op[i],
                        chain.names[i], d,
                    ))
                hook = chain.post[i]
                if hook is not None:
                    # Background jobs commit their store side effect here,
                    # at the simulated instant the work completed.
                    clock.now = now
                    hook()
                dirty = [r]
                if deps:
                    woken = []
                    for uid in dependents.pop(base[s] + i, ()):
                        pending[uid] -= 1
                        if not pending[uid] and uid in dep_parked:
                            woken.append(dep_parked.pop(uid))
                    if woken:
                        # Single-flight followers (and deduplicated
                        # consumes) wake up through the counters.
                        if cache is not None:
                            cache.note_wakeups(len(woken))
                        for waiter, sq in woken:
                            dirty.append(push(waiter, cursor[waiter] - 1, sq))
                if gangs and parked[r]:
                    for entry in parked[r]:
                        heappush(ready[r], entry)
                    parked[r].clear()
                # -- submit the session's next task --
                i += 1
                if i < chain.n:
                    cursor[s] = i + 1
                    since[s] = now
                    if deps and pending.get(base[s] + i):
                        dep_parked[base[s] + i] = (s, seq)
                    elif static is not None:
                        r = chain.res[i]
                        put(ready[r], (static[s], seq, s))
                        dirty.append(r)
                    else:
                        dirty.append(push(s, i, seq))
                    seq += 1
                else:
                    session = sessions[s]
                    session.finished_at = now
                    if admission is not None and klass[s] == 0:
                        seq = enter(admission.finish(session, now), now, seq,
                                    dirty)
                continue

            # -- an exogenous instant: failure events, then arrivals --
            if horizon == math.inf:
                break  # nothing running, arriving or scheduled
            delta = horizon - now
            if delta > 0:
                now += delta
                by_cat["idle"] = by_cat.get("idle", 0.0) + delta
            elif delta < -tolerance * max(1.0, abs(now)):
                raise ValueError(
                    f"clock cannot run backwards: advance_to({horizon}) "
                    f"from {now}"
                )
            if next_failure <= next_arrival:
                clock.now = now
                while fi < len(failures) and failures[fi].t == horizon:
                    self._apply_failure_event(failures[fi])
                    fi += 1
                next_failure = (failures[fi].t if fi < len(failures)
                                else math.inf)
                # A health flip frees no pool capacity and readies no
                # task, so no grant round is needed.
                dirty = ()
            else:
                dirty = []
                while (ai < len(arrivals)
                       and arrivals[ai].arrival_at == horizon):
                    seq = arrive(arrivals[ai], now, seq, dirty)
                    ai += 1
                next_arrival = (arrivals[ai].arrival_at
                                if ai < len(arrivals) else math.inf)
            horizon = min(next_arrival, next_failure)

        # -- write the results back, once --
        clock.now = now
        for r, pool in enumerate(pools):
            pool.busy_seconds = busy[r]
        for s, session in enumerate(sessions):
            session.waited_seconds = waited[s]
            session.service_by_resource = dict(chains[s].service)
        self._events += 2 * sum(chain.n for chain in chains)

        stuck = [s for heap in ready + parked for _, _, s in heap]
        stuck += [s for s, _ in dep_parked.values()]
        if stuck:  # pragma: no cover - guarded by the acyclic dedup graph
            raise self._deadlock_error([
                (s, chains[s].names[cursor[s] - 1],
                 chains[s].units[cursor[s] - 1]) for s in stuck
            ])
        if admission is not None and admission.queued:  # pragma: no cover
            raise QueryError(
                f"admission queue stuck with {admission.queued} session(s) "
                f"and nothing running"
            )

    def _outcomes(self) -> List[QueryOutcome]:
        """Every session's outcome, in admission order.

        What an outcome takes from its plan (label, video seconds, the
        per-stage positives and segments) is read once per plan; each
        outcome gets its own copies of the two per-stage dicts.
        """
        from repro.query.engine import ExecutionResult

        per_plan: Dict[int, tuple] = {}
        outcomes = []
        for session in self._sessions:
            plan = session.plan
            fields = per_plan.get(id(plan))
            if fields is None:
                fields = per_plan[id(plan)] = (
                    plan.label, plan.video_seconds, plan.positives_per_stage,
                    plan.segments_per_stage)
            label, video, positives, segments = fields
            latency = session.finished_at - session.arrival_at
            outcomes.append(QueryOutcome(session, ExecutionResult(
                label, session.dataset, video, latency,
                math.inf if latency <= 0 else video / latency,
                dict(positives), dict(segments),
            )))
        return outcomes

    # -- accounting --------------------------------------------------------

    def stats(self) -> ExecutorStats:
        """Aggregate resource accounting (meaningful after :meth:`run`)."""
        return ExecutorStats(
            policy=self.policy,
            n_queries=len(self._sessions),
            makespan=self._drained_at - self._started_at,
            capacities={name: p.capacity for name, p in self._pools.items()},
            busy_seconds={name: p.busy_seconds for name, p in self._pools.items()},
            core=self._core_used,
            events=self._events,
            wall_seconds=self._wall_seconds,
            admit_wall_seconds=self._admit_wall_seconds,
            plan_wall_seconds=self._plan_wall_seconds,
            lower_wall_seconds=self._lower_wall_seconds,
        )
