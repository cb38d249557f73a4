"""The retired closed-loop fast path, kept as a speed and parity oracle.

Before the executor had one flat-array loop, fleets that qualified ran on
this vectorized fast path and every other fleet on an event-heap core.
It is kept here verbatim — :func:`lower_fleet` and :func:`run_fastpath`
with their qualification rules — except that the write-back no longer
touches two session fields the production loop retired (the per-session
priority version and task cursor).  Inside :func:`fastpath_loop` it
replaces the production lowering and loop of every executor that runs;
a fleet it does not qualify raises instead of falling back, so a test
always knows which loop ran.  Runs report ``ExecutorStats.core ==
"fastpath"``.

It serves closed fleets where the rescan-loop oracle is too slow: the
4096-query speed gate in ``benchmarks/test_executor_scale.py`` compares
the production loop against it, and parity tests require bit-identical
traces and outcomes.

Its original design notes follow.

Qualification (checked once; any miss disqualifies):

* no cache plane — so runtime chains are the plan chains verbatim: no
  single-flight rewrite, no dependency edges, no wakeups;
* the policy is ``"fifo"`` or ``"edf"`` — both keys are static
  per session (``(seq,)`` / ``(deadline, seq)``), so lazy invalidation
  and per-grant priorities vanish into one float per session;
* every session runs one context and every task requests one unit — true
  for all ``contexts=1`` admissions — so "fits" degenerates to
  ``free > 0`` and capacity parking cannot occur;
* every session is foreground (class 0) and no task carries an
  ``on_done`` hook — background evolution jobs band the priority key and
  commit store mutations at completion.

Lowering happens per *plan*, not per session, and is cached on the plan
object (keyed on the stage tuple's identity and the store's shard
layout): a benchmark fleet admitting one plan 4096 times lowers it once.

Bit-parity with the rescan-loop oracle is by construction:

* the single ``seq`` counter increments on every submission *and* every
  grant, so all tie-breaks agree;
* grants pick the globally minimal ``(k0, seq)`` over the per-resource
  ready heaps — the same total order the oracle's priorities produce;
* completions pop in ``(end, seq)`` order and replicate
  ``SimClock.charge`` / ``advance_to`` float-for-float, including the
  "charge exact duration when the task started at the current instant"
  branch that keeps a lone query bit-identical to sequential execution;
* per-pool busy seconds accumulate in completion order, and per-session
  service accumulates in chain order (a session's chain is serial, so
  its completion order *is* chain order — which is why service can be
  precomputed during lowering and shared by every session on the plan).
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import math
from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.obs.trace import task_event
from repro.query.scheduler import ConcurrentExecutor

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.query.scheduler import QueryPlan

__all__ = ["fastpath_loop", "lower_fleet", "run_fastpath"]


@contextmanager
def fastpath_loop() -> Iterator[None]:
    """Run every executor inside the block on the retired fast path."""
    def lower(self):
        fleet = lower_fleet(self)
        if fleet is None:
            raise AssertionError("fleet does not qualify for the fast path")
        return fleet

    def loop(self, fleet):
        self._core_used = "fastpath"
        run_fastpath(self, fleet)

    with mock.patch.object(ConcurrentExecutor, "_lower", lower), \
            mock.patch.object(ConcurrentExecutor, "_drain", loop):
        yield


#: Attribute the per-plan lowering is cached under (``object.__setattr__``
#: on the frozen plan, like ``QueryPlan.tasks`` caches its flattening).
_CACHE_ATTR = "_fastpath_lowered"


class _Chain:
    """One plan's task chain as parallel arrays, shared across sessions."""

    __slots__ = ("resource", "duration", "category", "kind", "operator",
                 "service", "n")

    def __init__(self, resource: List[str], duration: List[float],
                 category: List[str], kind: List[str], operator: List[str],
                 service: Dict[str, float]) -> None:
        self.resource = resource  # routed pool name per task
        self.duration = duration
        self.category = category
        self.kind = kind  # "retrieve" | "consume", for trace events
        self.operator = operator
        #: Chain-order service accumulation per pool name — exactly the
        #: floats ``_complete`` would leave in ``service_by_resource``.
        self.service = service
        self.n = len(duration)


class _Fleet:
    """A qualified fleet, lowered: per-session chains + static policy keys."""

    __slots__ = ("chains", "k0")

    def __init__(self, chains: List[_Chain], k0: List[float]) -> None:
        self.chains = chains
        self.k0 = k0  # one static priority scalar per session


def _lower_plan(plan: "QueryPlan", disk_shards: int) -> Optional[_Chain]:
    """Lower one plan's chain to arrays; ``None`` if a task disqualifies.

    Cached on the plan keyed by (stages identity, shard layout) — the
    routing of ``"disk"`` tasks onto per-shard channel pools is the only
    store-dependent part of the lowering.
    """
    cached = plan.__dict__.get(_CACHE_ATTR)
    if (cached is not None and cached[0] is plan.stages
            and cached[1] == disk_shards):
        return cached[2]
    resource: List[str] = []
    duration: List[float] = []
    category: List[str] = []
    kind: List[str] = []
    operator: List[str] = []
    service: Dict[str, float] = {}
    chain: Optional[_Chain] = None
    for task in plan.tasks:
        if task.units != 1:
            break  # multi-unit gang: parking semantics -> general core
        if task.on_done is not None:
            break  # completion hooks (background jobs) -> general core
        name = task.resource
        if name == "disk" and disk_shards > 1:
            name = f"disk:{task.shard % disk_shards}"
        resource.append(name)
        duration.append(task.duration)
        category.append(task.category)
        kind.append(task.kind)
        operator.append(task.operator)
        service[name] = service.get(name, 0.0) + task.duration
    else:
        chain = _Chain(resource, duration, category, kind, operator, service)
    object.__setattr__(plan, _CACHE_ATTR, (plan.stages, disk_shards, chain))
    return chain


def lower_fleet(executor: "ConcurrentExecutor") -> Optional[_Fleet]:
    """Lower a qualifying fleet to arrays; ``None`` to use the heap core."""
    if executor.cache is not None:
        return None  # single-flight rewrite / wakeups need the general core
    if executor._admission is not None:
        return None  # open-loop admission control needs the general cores
    if executor._failure_events:
        return None  # failure timelines interleave with the general cores
    if executor.policy not in ("fifo", "edf"):
        return None  # dynamic priorities need lazy invalidation
    sessions = executor._sessions
    if not sessions:
        return None
    edf = executor.policy == "edf"
    disk_shards = executor.store.array.n_shards
    pools = executor._pools
    chains: List[_Chain] = []
    k0: List[float] = []
    lowered: Dict[int, Optional[_Chain]] = {}
    for session in sessions:
        if session.klass != 0:
            return None  # background jobs band the priority key
        if session.contexts != 1:
            return None  # gangs may park on the operator pool
        if session.arrival_at > executor.clock.now or session.tenant is not None:
            return None  # open-loop arrivals / tenancy need the general cores
        plan = session.plan
        key = id(plan)
        chain = lowered.get(key)
        if chain is None:
            chain = _lower_plan(plan, disk_shards)
            if chain is None:
                return None
            for name in chain.service:
                if name not in pools:  # pragma: no cover - defensive
                    return None
            lowered[key] = chain
        chains.append(chain)
        if edf:
            deadline = session.deadline
            k0.append(deadline if deadline is not None else math.inf)
        else:
            k0.append(0.0)
    return _Fleet(chains, k0)


def run_fastpath(executor: "ConcurrentExecutor", fleet: _Fleet) -> None:
    """Drain a lowered fleet; bit-identical to the general cores.

    The loop keeps every piece of mutable state in flat locals — ready
    heaps of ``(k0, seq, session)`` triples per pool, one completion heap
    of ``(end, seq, session, start)``, and plain lists for cursors, waits
    and pool capacity — and writes the results back onto the executor's
    sessions, pools and clock only once, after the drain.  Accumulation
    *order* (the thing float parity actually depends on) is identical to
    the general cores throughout; see the module docstring.
    """
    sessions = executor._sessions
    chains = fleet.chains
    k0 = fleet.k0
    clock = executor.clock
    now = run_start = clock.now
    by_category = clock.by_category
    tracing = executor._tracing
    trace_events = executor.trace_events
    labels = [s.label for s in sessions] if tracing else None

    pool_names = list(executor._pools)
    index = {name: r for r, name in enumerate(pool_names)}
    pools = [executor._pools[name] for name in pool_names]
    # Unbounded pools never run out: float inf survives -=/+= untouched.
    free = [math.inf if p.capacity is None else p.capacity - p.in_use
            for p in pools]
    busy = [p.busy_seconds for p in pools]

    n = len(sessions)
    res: List[List[int]] = []  # chain resource indices, per session
    for chain in chains:
        res.append([index[name] for name in chain.resource])

    ready: List[List[Tuple[float, int, int]]] = [[] for _ in pool_names]
    completions: List[Tuple[float, int, int, float]] = []
    cursor = [0] * n  # next task to submit, per session
    since = [0.0] * n  # submission instant of the session's waiting task
    waited = [s.waited_seconds for s in sessions]
    finished = [s.finished_at for s in sessions]
    seq = 0  # one counter for submissions AND grants, as in the cores

    for s in range(n):  # initial submissions, admission order
        if chains[s].n == 0:
            finished[s] = now  # empty chain: finished at admission instant
        else:
            heappush(ready[res[s][0]], (k0[s], seq, s))
            since[s] = now
            cursor[s] = 1
            seq += 1

    nres = len(pool_names)
    while True:
        # -- grant round: globally minimal (k0, seq) over fitting heads --
        while True:
            best = None
            best_r = -1
            for r in range(nres):
                q = ready[r]
                if q and free[r] > 0:
                    head = q[0]
                    if best is None or head < best:
                        best = head
                        best_r = r
            if best is None:
                break
            heappop(ready[best_r])
            s = best[2]
            free[best_r] -= 1
            waited[s] += now - since[s]
            i = cursor[s] - 1
            chain = chains[s]
            duration = chain.duration[i]
            heappush(completions, (now + duration, seq, s, now))
            if tracing:
                trace_events.append(task_event(
                    "start", now, labels[s], chain.kind[i],
                    chain.operator[i], chain.resource[i], duration,
                ))
            seq += 1

        if not completions:
            break

        # -- next completion in (end, seq) order --
        end, _, s, start = heappop(completions)
        chain = chains[s]
        i = cursor[s] - 1
        duration = chain.duration[i]
        category = chain.category[i]
        r = res[s][i]
        # SimClock.charge / advance_to, float-for-float: charge the exact
        # duration when the task started at the current instant (the N=1
        # sequential-parity branch), otherwise advance by the delta — and
        # ``advance_to`` adds the delta rather than assigning ``end``.
        if now == start:
            now = now + duration
            by_category[category] = by_category.get(category, 0.0) + duration
        else:
            delta = end - now
            if delta > 0:
                now = now + delta
                by_category[category] = (
                    by_category.get(category, 0.0) + delta
                )
        busy[r] += duration  # units == 1
        if tracing:
            trace_events.append(task_event(
                "finish", now, labels[s], chain.kind[i],
                chain.operator[i], chain.resource[i], duration,
            ))
        free[r] += 1
        i += 1
        if i >= chain.n:
            finished[s] = now
        else:
            heappush(ready[res[s][i]], (k0[s], seq, s))
            since[s] = now
            cursor[s] = i + 1
            seq += 1

    # -- write results back onto the executor's state, once --
    clock.now = now
    events = 0
    for s in range(n):
        session = sessions[s]
        chain = chains[s]
        session.finished_at = finished[s]
        session.entered_at = run_start
        session.waited_seconds = waited[s]
        session.service_by_resource = dict(chain.service)
        events += 2 * chain.n  # one start + one finish per task
    for r, pool in enumerate(pools):
        pool.busy_seconds = busy[r]
    executor._events += events
