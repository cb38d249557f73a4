"""Executor parity oracles: the rescan loop and the sequential path.

Both are the original implementations the production executor was proven
against, moved here verbatim (as functions taking the executor or engine
as ``self``) so tests replay the same fleet through production code and
through an oracle and require bit-identical results:

* :func:`_run_reference` is the O(n)-per-event rescan loop that produced
  the golden traces.  Inside :func:`reference_loop` it replaces the
  event-heap core of every executor that runs, including the ones
  ``VStore.serve`` and ``VStore.execute`` build internally;
* :func:`_execute_sequential` is the original single-query loop that
  ``QueryEngine.execute`` (the N=1 case of the concurrent executor) must
  reproduce; call it with the engine as its first argument.

:func:`no_fastpath` only turns fastpath lowering off, so qualifying
fleets run on the general heap core for comparison with the fast path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional
from unittest import mock

import numpy as np

from repro.clock import SimClock
from repro.errors import QueryError
from repro.operators.library import Consumer
from repro.query import fastpath
from repro.query.alternatives import AlternativeScheme, vstore_scheme
from repro.query.cascade import QueryCascade
from repro.query.engine import ExecutionResult
from repro.query.eventloop import TimelineCursor
from repro.query.scheduler import (
    ConcurrentExecutor,
    QuerySession,
    _Pool,
    _Running,
    _RunTask,
    _Waiting,
)
from repro.retrieval.reader import SegmentReader
from repro.rng import rng_for
from repro.storage.segment_store import SegmentStore
from repro.video.segment import segments_for_range

__all__ = ["no_fastpath", "reference_loop", "_execute_sequential",
           "_run_reference"]


@contextmanager
def no_fastpath() -> Iterator[None]:
    """Run every fleet inside the block on the general heap core.

    Fastpath lowering reports each fleet as disqualified, so qualifying
    fleets take the heap core they would otherwise skip.
    """
    with mock.patch.object(fastpath, "lower_fleet", lambda executor: None):
        yield


@contextmanager
def reference_loop() -> Iterator[None]:
    """Run every executor inside the block on the rescan-loop oracle.

    ``run()`` keeps its own bookkeeping (chain materialization, the timed
    window, metrics); only the loop it calls is swapped, with fastpath
    lowering off so every fleet reaches that loop.  Runs report
    ``ExecutorStats.core == "reference"``.
    """
    def loop(self, chains):
        self._core_used = "reference"
        _run_reference(self, chains)

    with no_fastpath(), \
            mock.patch.object(ConcurrentExecutor, "_run_heap", loop), \
            mock.patch.object(_Pool, "fits", fits, create=True):
        yield


def fits(self, units: int) -> bool:
    """``_Pool.fits``, the rescan loop's capacity test (installed on the
    pool class by :func:`reference_loop`)."""
    return self.capacity is None or self.in_use + units <= self.capacity


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
    mirroring the heap core's batching rule.
    """
    waiting: List[_Waiting] = []
    running: List[_Running] = []
    completed: set = set()  # uids of finished runtime tasks
    seq = 0

    def submit_next(session: QuerySession) -> None:
        nonlocal seq
        tasks = chains[session.qid]
        if session._cursor >= len(tasks):
            session.finished_at = self.clock.now
            return
        task = tasks[session._cursor]
        session._cursor += 1
        waiting.append(_Waiting(session, task, seq, self.clock.now))
        seq += 1

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
                # The class band mirrors the heap core's: a constant
                # prefix for all-foreground fleets, so pre-existing
                # schedules are unchanged.
                key=lambda w: (
                    w.session.klass,
                    self.policy.priority(w.session, w.task, w.seq),
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
        raise self._deadlock_error(waiting)
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

    Kept verbatim so tests can assert that ``QueryEngine.execute`` — now
    the N=1 case of the concurrent executor — reproduces it
    bit-identically.
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
        reader = SegmentReader(store, fmt, fidelity, self.codec, clock)
        survivors = []
        n_pos = 0
        consume_costs = []
        for segment in active:
            retrieved = reader.read(self.dataset, segment.index)
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
