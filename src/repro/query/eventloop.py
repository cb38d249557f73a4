"""The executor's flat task layout: task chains lowered to parallel arrays.

:class:`~repro.query.scheduler.ConcurrentExecutor` drains every fleet on
one loop whose per-event work is a few list index operations, one
``heapq`` push/pop on the completion heap and one push/pop on a pool's
ready queue (a plain queue for single-class FIFO fleets without gangs
or dependency edges, a heap otherwise).  This module holds what that
loop reads:

* :class:`_RunTask` — a planned task as actually scheduled in one run.
  Without a cache plane it mirrors the planned
  :class:`~repro.query.scheduler.ResourceTask`, routed onto its pool;
  with one, the single-flight dedup may rewrite it (see
  ``ConcurrentExecutor._runtime_chains``);
* :class:`Chain` — one serial task chain as parallel arrays: pool index,
  routed pool name, duration, units, clock category, trace fields and
  completion hook per task, plus two accumulations the loop would
  otherwise redo per session — the chain-order service per pool (exactly
  the floats per-completion ``service_by_resource`` updates would leave)
  and each task's fair-share key (the service the chain already attained
  on that task's pool when the task is submitted); a background job's
  weighted-fair key (:meth:`Chain.attained`) is built the same way when a
  run asks for it;
* :func:`plan_chain` — lowers a plan once and caches the chain on the
  plan, keyed on the stage tuple's identity and the executor's pool
  layout, so a fleet admitting one plan thousands of times lowers it
  once.  With a cache plane attached, chains are lowered per session
  from the single-flight runtime tasks instead: every completion then
  carries cache bookkeeping, and the single-flight dedup rewrites every
  repeat of a plan into a follower of the first.

Accumulation *order* is what float parity with the rescan-loop oracle
(``tests/oracles``) depends on, and every array here is built in chain
order: a session's chain is serial, so its completion order is chain
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.cache.plane import RetrievalAccess
    from repro.query.scheduler import QueryPlan, ResourceTask

__all__ = ["Chain", "plan_chain"]

#: Attribute a plan's lowered chain is cached under (``object.__setattr__``
#: on the frozen plan, like ``QueryPlan.tasks`` caches its flattening).
_CACHE_ATTR = "_lowered_chain"


@dataclass
class _RunTask:
    """A planned task as actually scheduled in one run.

    Without a cache plane this mirrors the planned :class:`ResourceTask`
    exactly.  With one, the executor's single-flight transformation may
    rewrite a retrieval that duplicates an earlier query's in-flight miss
    into a RAM-tier read that *depends on* the leader's task, and zero the
    deduplicated share of a stage consume — so the runtime resource,
    duration and dependency edges live here, while the plan stays intact.
    """

    task: "ResourceTask"  # the planned task (kept for reference/accounting)
    resource: str
    units: int
    duration: float
    category: str
    uid: int
    deps: Tuple[int, ...] = ()  # uids that must complete before this starts
    commit_access: Optional["RetrievalAccess"] = None  # leader: insert on done
    follower_access: Optional["RetrievalAccess"] = None  # follower: unpin
    note_access: Optional["RetrievalAccess"] = None  # tier heat on done
    #: (key, saved seconds, output bytes) per result this task computes
    produced_results: Tuple[Tuple[tuple, float, float], ...] = ()
    hit_results: Tuple[Tuple[tuple, float], ...] = ()  # committed result hits
    dedup_count: int = 0  # segment consumes deduplicated onto earlier tasks
    dedup_saved: float = 0.0

    @property
    def kind(self) -> str:
        return self.task.kind

    @property
    def operator(self) -> str:
        return self.task.operator


class Chain:
    """One task chain as parallel arrays (see the module docstring)."""

    __slots__ = ("res", "names", "dur", "units", "cat", "kind", "op",
                 "post", "service", "fair", "wide", "n")

    def __init__(self, tasks: Sequence[_RunTask], pool_index: Dict[str, int],
                 post: Sequence[Optional[Callable[[], None]]]) -> None:
        self.names = [t.resource for t in tasks]  # routed pool names
        res: List[int] = []
        for name in self.names:
            r = pool_index.get(name)
            if r is None:
                raise QueryError(f"task needs unknown resource {name!r}")
            res.append(r)
        self.res = res
        self.dur = [t.duration for t in tasks]
        self.units = [t.units for t in tasks]
        self.cat = [t.category for t in tasks]
        self.kind = [t.kind for t in tasks]  # trace fields
        self.op = [t.operator for t in tasks]
        #: Completion hook per task (a background job's store commit, or
        #: the cache plane's bookkeeping), ``None`` for most tasks.
        self.post = list(post)
        service: Dict[str, float] = {}
        fair: List[float] = []
        for name, duration in zip(self.names, self.dur):
            attained = service.get(name, 0.0)
            fair.append(attained)
            service[name] = attained + duration
        self.service = service
        self.fair = fair
        self.wide = any(u > 1 for u in self.units)  # a gang may park
        self.n = len(self.dur)

    def attained(self) -> List[float]:
        """Each task's attained service at submission, the sum over pools
        of what the chain's earlier tasks held: the ``"wfair"`` key of a
        session without a tenant (a background job).  Built in chain
        order like :attr:`fair`."""
        service: Dict[str, float] = {}
        attained: List[float] = []
        for name, duration in zip(self.names, self.dur):
            attained.append(sum(service.values()))
            service[name] = service.get(name, 0.0) + duration
        return attained


def plan_chain(plan: "QueryPlan", layout: Tuple[str, ...],
               io_resource: Callable[[int], str],
               pool_index: Dict[str, int]) -> Chain:
    """Lower one plan's chain, cached on the plan.

    ``layout`` (the executor's pool names, in order) keys the cache with
    the stage tuple's identity: routing ``"disk"`` tasks onto their
    shard's channel pool (``io_resource``, the array's
    :meth:`~repro.storage.sharding.ShardedDiskArray.io_resource`) and
    numbering the pools are the only executor-dependent parts of the
    lowering.
    """
    cached = plan.__dict__.get(_CACHE_ATTR)
    if (cached is not None and cached[0] is plan.stages
            and cached[1] == layout):
        return cached[2]
    tasks = []
    for uid, task in enumerate(plan.tasks):
        name = task.resource
        if name == "disk":
            name = io_resource(task.shard)
        tasks.append(_RunTask(task=task, resource=name, units=task.units,
                              duration=task.duration, category=task.category,
                              uid=uid))
    chain = Chain(tasks, pool_index, [t.on_done for t in plan.tasks])
    object.__setattr__(plan, _CACHE_ATTR, (plan.stages, layout, chain))
    return chain
