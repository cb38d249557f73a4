"""Executor parity oracles: the rescan loop and the sequential path.

Both are the original implementations the production executor was proven
against, moved here verbatim (as functions taking the executor or engine
as ``self``) so tests replay the same fleet through production code and
through an oracle and require bit-identical results:

* :func:`_run_reference` is the O(n)-per-event rescan loop that produced
  the golden traces.  Inside :func:`reference_loop` it replaces the
  production loop of every executor that runs, including the ones
  ``VStore.serve`` and ``VStore.execute`` build internally.  The pieces
  only it still needs — the per-task ``_Waiting``/``_Running`` records,
  the shared completion bookkeeping ``_complete``, the trace helper
  ``_trace`` and the ``TimelineCursor`` over arrivals and failure events
  — moved here verbatim from the retired event-heap core, and each
  named scheduling policy's per-task priority (:data:`PRIORITIES`), the
  bodies of the retired policy classes, which it asks at every grant;
* :func:`_execute_sequential` is the original single-query loop that
  ``VStore.execute`` (the N=1 case of the concurrent executor) must
  reproduce; call it with the store's engine for the dataset
  (``VStore.engine``) as its first argument.  It streams every segment
  through the clock-charging :func:`.reader.read`.

The retired closed-loop fast path lives in :mod:`.fastpath`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from unittest import mock

import numpy as np

from repro.clock import SimClock
from repro.errors import QueryError
from repro.obs.trace import task_event
from repro.operators.library import Consumer
from repro.query.alternatives import AlternativeScheme, vstore_scheme
from repro.query.cascade import QueryCascade
from repro.query.engine import ExecutionResult
from repro.query.eventloop import _RunTask
from repro.query.scheduler import ConcurrentExecutor, QuerySession, _Pool
from repro.retrieval.reader import SegmentReader
from repro.rng import rng_for
from repro.storage.segment_store import SegmentStore
from repro.video.segment import segments_for_range

from .reader import read

__all__ = ["reference_loop", "_execute_sequential", "_run_reference"]


@contextmanager
def reference_loop() -> Iterator[None]:
    """Run every executor inside the block on the rescan-loop oracle.

    ``run()`` keeps its own bookkeeping (the timed window, metrics); the
    lowering and the loop it calls are swapped — the oracle drains the
    single-flight runtime chains (``_runtime_chains``) instead of flat
    arrays.  Runs report ``ExecutorStats.core == "reference"``.
    """
    def lower(self):
        return self._runtime_chains()

    def loop(self, chains):
        self._core_used = "reference"
        _run_reference(self, chains)

    with mock.patch.object(ConcurrentExecutor, "_lower", lower), \
            mock.patch.object(ConcurrentExecutor, "_drain", loop), \
            mock.patch.object(ConcurrentExecutor, "_complete", _complete,
                              create=True), \
            mock.patch.object(ConcurrentExecutor, "_trace", _trace,
                              create=True), \
            mock.patch.object(_Pool, "fits", fits, create=True):
        yield


def _fifo(session: QuerySession, task: _RunTask, seq: int) -> tuple:
    """Grant in arrival order: first task enqueued is first served."""
    return (seq,)


def _fair(session: QuerySession, task: _RunTask, seq: int) -> tuple:
    """Least attained service: grant the query that has received the least
    time on the contended resource so far (max-min fair sharing per
    resource, so a light query is not starved behind heavy backlogs)."""
    return (session.service_by_resource.get(task.resource, 0.0), seq)


def _edf(session: QuerySession, task: _RunTask, seq: int) -> tuple:
    """Earliest deadline first; deadline-less queries yield to dated ones."""
    deadline = session.deadline
    return (deadline if deadline is not None else math.inf, seq)


def _wfair(session: QuerySession, task: _RunTask, seq: int) -> tuple:
    """Weighted least attained service across tenants: the tenant-level
    virtual time ``attained_service / weight``, read off the tenant's
    record; a session without one (a background job) ranks by its own
    service at weight 1."""
    state = session.tenant_state
    attained = (state.service if state is not None
                else sum(session.service_by_resource.values()))
    weight = state.weight if state is not None else 1.0
    return (attained / weight, seq)


#: Each executor policy's priority, by name: the rescan loop grants the
#: fitting waiting task with the smallest ``(klass, priority, seq)``.
PRIORITIES = {"fifo": _fifo, "fair": _fair, "edf": _edf, "wfair": _wfair}


def fits(self, units: int) -> bool:
    """``_Pool.fits``, the rescan loop's capacity test (installed on the
    pool class by :func:`reference_loop`)."""
    return self.capacity is None or self.in_use + units <= self.capacity


@dataclass
class _Waiting:
    session: QuerySession
    task: _RunTask
    seq: int
    since: float


@dataclass
class _Running:
    session: QuerySession
    task: _RunTask
    start: float
    end: float
    seq: int


class TimelineCursor:
    """A sorted stream of timestamped exogenous events, consumed in
    simulated-time order.

    The rescan loop interleaves *completions* (endogenous: produced by
    running tasks) with exogenous timelines — query arrivals and shard
    failure events.  Each timeline is the same shape: a time-sorted list
    walked front to back, whose head timestamp is compared against the
    other streams' heads and whose same-instant entries drain as one
    batch.  The cursor owns that walk; :meth:`next_t` returns ``+inf``
    once drained, so a loop can ``min()`` several cursors without
    per-stream sentinel bookkeeping.

    ``items`` must already be sorted by ``timestamp`` — the cursor
    consumes, it does not sort.
    """

    def __init__(self, items: Iterable[object],
                 timestamp: Callable[[object], float]) -> None:
        self._items: List[object] = list(items)
        self._timestamp = timestamp
        self._i = 0

    def __len__(self) -> int:
        """Events not yet consumed."""
        return len(self._items) - self._i

    def next_t(self) -> float:
        """The head event's timestamp, or ``+inf`` when drained."""
        if self._i >= len(self._items):
            return float("inf")
        return self._timestamp(self._items[self._i])

    def pop_batch(self) -> List[object]:
        """Every event sharing the head timestamp, in stream order."""
        items, stamp = self._items, self._timestamp
        t = stamp(items[self._i])
        batch = [items[self._i]]
        self._i += 1
        while self._i < len(items) and stamp(items[self._i]) == t:
            batch.append(items[self._i])
            self._i += 1
        return batch


def _trace(self, event: str, session: QuerySession, rt: _RunTask,
           t: float) -> None:
    """Append one task lifecycle event to the run's trace.

    Always counts the event (``stats().events`` stays honest for
    untraced runs); the dict is only allocated when tracing is on.
    """
    self._events += 1
    if not self._tracing:
        return
    self.trace_events.append(task_event(
        event, t, session.label, rt.kind, rt.operator, rt.resource,
        rt.duration,
    ))


def _complete(self, done: _Running) -> None:
    """Shared completion bookkeeping: clock, pool, service, trace."""
    # When the completing task started at the current instant (always
    # true for a lone query), charge its exact duration so the N=1
    # path accumulates the same floats as sequential execution.
    if self.clock.now == done.start:
        self.clock.charge(done.task.duration, done.task.category)
    else:
        self.clock.advance_to(done.end, done.task.category)
    pool = self._pools[done.task.resource]
    pool.in_use -= done.task.units
    pool.busy_seconds += done.task.units * done.task.duration
    session = done.session
    service = session.service_by_resource
    service[done.task.resource] = (
        service.get(done.task.resource, 0.0) + done.task.duration
    )
    tenant = session.tenant_state
    if tenant is not None:
        tenant.service += done.task.duration
        tenant.stamp += 1
    self._trace("finish", session, done.task, self.clock.now)
    self._task_completed(done.task)


def _run_reference(self, chains: Dict[int, List[_RunTask]]) -> None:
    """The original O(n)-per-event rescan loop — the parity oracle.

    The golden traces were produced by this loop, and the Hypothesis
    properties replay random fleets through it and the production
    executor.  Do not optimize it: for closed-loop fleets (every arrival
    at or before the run start, no admission control) the flow below
    reduces exactly to the first concurrent executor's loop —
    ``arrivals`` is empty, ``arrive``
    is a plain ``submit_next``, and the completion loop is the
    original ``while running`` — which the golden traces still pin
    byte-for-byte.  Open-loop fleets interleave future arrivals with
    completions in simulated-time order, completions winning ties,
    mirroring the production loop's tie rule.
    """
    waiting: List[_Waiting] = []
    running: List[_Running] = []
    completed: set = set()  # uids of finished runtime tasks
    cursor: Dict[int, int] = {}  # qid -> index of the next task
    seq = 0

    def submit_next(session: QuerySession) -> None:
        nonlocal seq
        tasks = chains[session.qid]
        i = cursor.get(session.qid, 0)
        if i >= len(tasks):
            session.finished_at = self.clock.now
            return
        task = tasks[i]
        cursor[session.qid] = i + 1
        waiting.append(_Waiting(session, task, seq, self.clock.now))
        seq += 1

    priority = PRIORITIES[self.policy]

    def grant() -> None:
        nonlocal seq
        while True:
            fitting = [
                w for w in waiting
                if self._pools[w.task.resource].fits(w.task.units)
                and all(d in completed for d in w.task.deps)
            ]
            if not fitting:
                return
            w = min(
                fitting,
                # The class band mirrors the production loop's: a constant
                # prefix for all-foreground fleets, so pre-existing
                # schedules are unchanged.
                key=lambda w: (
                    w.session.klass,
                    priority(w.session, w.task, w.seq),
                    w.seq,
                ),
            )
            waiting.remove(w)
            pool = self._pools[w.task.resource]
            pool.in_use += w.task.units
            now = self.clock.now
            w.session.waited_seconds += now - w.since
            running.append(
                _Running(w.session, w.task, now, now + w.task.duration, seq)
            )
            self._trace("start", w.session, w.task, now)
            seq += 1

    admission = self._admission
    start = self.clock.now
    arrivals = TimelineCursor(
        sorted((s for s in self._sessions if s.arrival_at > start),
               key=lambda s: (s.arrival_at, s.qid)),
        timestamp=lambda s: s.arrival_at,
    )

    def enter_all(entering: List[QuerySession]) -> None:
        work = list(entering)
        while work:
            s = work.pop(0)
            s.entered_at = self.clock.now
            s.queued_seconds = self.clock.now - s.arrival_at
            submit_next(s)
            if (s.finished_at is not None and admission is not None
                    and s.klass == 0):
                work.extend(admission.finish(s, self.clock.now))

    def arrive(s: QuerySession) -> None:
        if admission is None or s.klass != 0:
            enter_all([s])
        else:
            enter_all(admission.arrive(s, self.clock.now))

    for session in self._sessions:
        if session.arrival_at <= start:
            arrive(session)
    grant()

    failures = TimelineCursor(self._failure_events,
                              timestamp=lambda e: e.t)
    while running or len(arrivals) or len(failures):
        done = (min(running, key=lambda r: (r.end, r.seq))
                if running else None)
        next_arrival = arrivals.next_t()
        next_failure = failures.next_t()
        if done is not None and (
                done.end <= min(next_arrival, next_failure)):
            running.remove(done)
            completed.add(done.task.uid)
            self._complete(done)
            submit_next(done.session)
            if (done.session.finished_at is not None
                    and admission is not None
                    and done.session.klass == 0):
                enter_all(admission.finish(done.session, self.clock.now))
            grant()
        elif len(failures) and next_failure <= next_arrival:
            if next_failure > self.clock.now:
                self.clock.advance_to(next_failure, "idle")
            for event in failures.pop_batch():
                self._apply_failure_event(event)
        else:
            self.clock.advance_to(next_arrival, "idle")
            for session in arrivals.pop_batch():
                arrive(session)
            grant()

    if waiting:  # pragma: no cover - guarded by the acyclic dedup graph
        raise self._deadlock_error(
            [(w.session.qid, w.task.resource, w.task.units) for w in waiting]
        )
    if admission is not None and admission.queued:  # pragma: no cover
        raise QueryError(
            f"admission queue stuck with {admission.queued} session(s) "
            f"and nothing running"
        )


def _execute_sequential(
    self,
    query: QueryCascade,
    accuracy: float,
    store: SegmentStore,
    t0: float,
    t1: float,
    scheme: Optional[AlternativeScheme] = None,
    clock: Optional[SimClock] = None,
    contexts: int = 1,
) -> ExecutionResult:
    """Reference implementation: the original single-query loop.

    Kept verbatim so tests can assert that ``VStore.execute`` — the N=1
    case of the concurrent executor — reproduces it bit-identically.
    """
    from repro.query.scheduler import dispatch

    if t1 <= t0:
        raise QueryError(f"empty query range [{t0}, {t1})")
    scheme = scheme or vstore_scheme(self.config)
    clock = clock or SimClock()
    segments = segments_for_range(self.dataset, t0, t1)
    active = list(segments)
    positives: Dict[str, int] = {}
    touched: Dict[str, int] = {}

    for name in query:
        op = self.library.get(name)
        consumer = Consumer(name, accuracy)
        fidelity = scheme.consumption_fidelity(consumer)
        fmt = scheme.storage_format(consumer)
        reader = SegmentReader(store, fmt, fidelity)
        survivors = []
        n_pos = 0
        consume_costs = []
        for segment in active:
            retrieved = read(reader, self.dataset, segment.index, clock)
            clip = self._content.clip(segment.t0, segment.seconds)
            consume_costs.append(
                op.cost_per_frame(fidelity) * retrieved.n_frames
            )
            rng = rng_for("query", name, self.dataset, segment.index,
                          fidelity.label)
            output = op.run(clip, fidelity, rng)
            hits = int(np.asarray(output).sum())
            if hits > 0:
                survivors.append(segment)
                n_pos += hits
        clock.charge(dispatch(consume_costs, contexts).makespan,
                     "consume")
        positives[name] = n_pos
        touched[name] = len(active)
        active = survivors

    video_seconds = t1 - t0
    compute = clock.now
    return ExecutionResult(
        query=query.label,
        dataset=self.dataset,
        video_seconds=video_seconds,
        compute_seconds=compute,
        speed=float("inf") if compute <= 0 else video_seconds / compute,
        positives_per_stage=positives,
        segments_per_stage=touched,
    )
