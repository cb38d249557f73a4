"""Event-heap core of the concurrent executor: O(log n) scheduling.

The original :meth:`ConcurrentExecutor.run
<repro.query.scheduler.ConcurrentExecutor.run>` loop rescanned the whole
waiting list on every grant (``min`` over a filtered list comprehension)
and picked completions with ``min``/``remove`` over a Python list, so one
simulated run cost O(T * W) in total task count T and waiting-set size W —
quadratic once hundreds of queries queue on a few bounded pools, and the
simulator's wall-clock became scheduler-bound rather than hardware-bound.

This module holds the three data structures that replace those scans,
each O(log n) per event:

* :class:`CompletionHeap` — a ``heapq`` of running tasks keyed by
  ``(end, seq)``, replacing the ``min(running, ...)`` scan;
* :class:`ReadyHeapIndex` — one ready heap per registered resource, keyed
  by ``(policy priority, seq)``, with *lazy invalidation*: fair-share
  priorities grow as a session accumulates service, so entries carry the
  session's priority-version stamp and a stale head is re-keyed and
  re-pushed instead of rescanning the heap.  Entries that do not fit the
  pool's current free capacity are *parked* per resource and re-admitted
  only when that resource releases units — the backfilling semantics of
  the original scan without its repeated passes;
* :class:`DependencyTracker` — per-task dependency counters (decrement on
  completion, hand back for enqueueing at zero), replacing the
  ``all(d in completed)`` scan over every waiting task.  Single-flight
  cache followers wake up through exactly this path.

The heap core is bit-identical to the rescan loop (kept as the parity
oracle in ``tests/oracles``) by construction: the globally minimal
fitting entry across the per-resource heaps is the same task the full
rescan would have granted (heap heads are per-resource minima; parked
entries cannot fit again until a release because pool usage only grows
within one grant round), and ties carry the same ``seq`` tie-break.  The one soundness requirement is that a policy's priority for
a waiting task never *decreases* while it waits — true for FIFO (constant),
EDF (constant) and fair share (attained service only grows; and a session's
own service cannot change while its single in-flight task waits) — so a
stale entry can only have risen in priority key and is corrected when it
surfaces at a heap head.
"""

from __future__ import annotations

import heapq
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

__all__ = [
    "CompletionHeap",
    "DependencyTracker",
    "ReadyHeapIndex",
    "TimelineCursor",
    "blocked_triples",
]


class TimelineCursor:
    """A sorted stream of timestamped exogenous events, consumed in
    simulated-time order.

    The heap core (and the rescan-loop parity oracle) interleaves
    *completions* (endogenous: produced by running tasks) with exogenous
    timelines — query arrivals and shard failure events.  Each timeline
    is the same shape: a
    time-sorted list walked front to back, whose head timestamp is
    compared against the other streams' heads and whose same-instant
    entries drain as one batch.  The cursor owns that walk;
    :meth:`next_t` returns ``+inf`` once drained, so a loop can ``min()``
    several cursors against :meth:`CompletionHeap.next_end` without
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
        """Every event sharing the head timestamp, in stream order.

        Same-instant events form one batch so the caller advances the
        clock once and processes the whole instant in a single pass —
        the exogenous mirror of :meth:`CompletionHeap.pop_batch`.
        """
        items, stamp = self._items, self._timestamp
        t = stamp(items[self._i])
        batch = [items[self._i]]
        self._i += 1
        while self._i < len(items) and stamp(items[self._i]) == t:
            batch.append(items[self._i])
            self._i += 1
        return batch


class CompletionHeap:
    """Running tasks keyed by ``(end, seq)``: next completion in O(log n).

    ``seq`` is the executor's grant sequence number, so simultaneous
    completions pop in exactly the order the legacy ``min(running,
    key=(end, seq))`` scan chose them.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, object]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, end: float, seq: int, item: object) -> None:
        heapq.heappush(self._heap, (end, seq, item))

    def pop(self) -> object:
        """The running task with the smallest ``(end, seq)``."""
        return heapq.heappop(self._heap)[2]

    def next_end(self) -> float:
        """Completion instant of the head entry (heap must be non-empty);
        the open-loop executor compares it against the next arrival to
        interleave the two event streams in simulated-time order."""
        return self._heap[0][0]

    def pop_batch(self) -> List[object]:
        """All running tasks sharing the smallest ``end``, in seq order.

        This is the batch-drain entry point: same-timestamp completions
        are popped together so the executor advances the clock once and
        accounts for the whole batch in a single pass.  Tasks *granted
        while the batch is being processed* (zero-duration tasks can
        complete at the very same instant) are not in the returned batch —
        they carry a larger ``seq`` than every popped entry, so the next
        ``pop_batch`` call yields them in exactly the order the one-at-a-
        time ``pop`` loop would have.
        """
        heap = self._heap
        end, _, first = heapq.heappop(heap)
        batch = [first]
        while heap and heap[0][0] == end:
            batch.append(heapq.heappop(heap)[2])
        return batch


class ReadyHeapIndex:
    """Per-resource ready heaps with lazy invalidation and capacity parking.

    ``priority(w)`` returns the policy's sort key for a waiting entry (it
    must be non-decreasing over the entry's waiting lifetime — see the
    module docstring), ``version(w)`` the entry's current priority-version
    stamp (bumped by the executor whenever a session's policy-relevant
    state changes), and ``free_units(resource)`` the pool's free capacity
    (``None`` for an unbounded pool).

    Waiting entries are duck-typed: ``w.seq`` (admission sequence) and
    ``w.task.units`` are read here; everything else is opaque.
    """

    def __init__(
        self,
        priority: Callable[[object], tuple],
        version: Callable[[object], int],
        free_units: Callable[[str], Optional[int]],
    ) -> None:
        self._priority = priority
        self._version = version
        self._free = free_units
        #: resource -> heap of ((priority, seq), version, waiting)
        self._heaps: Dict[str, List[tuple]] = {}
        #: resource -> entries whose units exceed the pool's free capacity
        self._parked: Dict[str, List[tuple]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def register(self, resource: str) -> None:
        """Pre-register a resource (e.g. one per disk shard channel pool)."""
        self._heaps.setdefault(resource, [])
        self._parked.setdefault(resource, [])

    def push(self, resource: str, waiting: object) -> None:
        """Enqueue a ready (dependency-free) entry on its resource heap."""
        self.register(resource)
        entry = ((self._priority(waiting), waiting.seq),
                 self._version(waiting), waiting)
        heapq.heappush(self._heaps[resource], entry)
        self._size += 1

    def _head(self, resource: str) -> Optional[tuple]:
        """The minimal *fitting* entry of one resource, or ``None``.

        Stale heads (version mismatch) are re-keyed at the current
        priority and re-sifted; heads that do not fit the pool's free
        capacity are parked — pool usage only grows until the next
        release, so they cannot fit before then either.
        """
        heap = self._heaps[resource]
        if not heap:
            return None
        free = self._free(resource)
        if free is not None and free <= 0:
            return None  # nothing fits a full pool (units are >= 1)
        parked = self._parked[resource]
        while heap:
            key, version, waiting = heap[0]
            current = self._version(waiting)
            if version != current:
                heapq.heapreplace(
                    heap,
                    ((self._priority(waiting), waiting.seq), current, waiting),
                )
                continue
            if free is not None and waiting.task.units > free:
                parked.append(heapq.heappop(heap))
                continue
            return heap[0]
        return None

    def pop_best(self, resources: Optional[Iterable[str]] = None
                 ) -> Optional[object]:
        """Remove and return the globally minimal fitting waiting entry.

        Scans the per-resource heads (a handful of pools) and compares
        their ``(priority, seq)`` keys — exactly the order the legacy
        full-list ``min`` produced, at O(resources + log n) per grant.

        ``resources`` restricts the scan to the given *dirty* pools — the
        batch-drain loop passes only the resources whose state changed
        since the last grant round (capacity freed, or entries pushed).
        Every other pool is *grant-stable*: its previous round ended with
        no fitting head and nothing has changed since, so skipping it
        returns the same entry the full scan would.  Callers own that
        invariant; passing ``None`` always scans everything.
        """
        best_key: Optional[tuple] = None
        best_resource: Optional[str] = None
        for resource in (self._heaps if resources is None else resources):
            entry = self._head(resource)
            if entry is not None and (best_key is None or entry[0] < best_key):
                best_key = entry[0]
                best_resource = resource
        if best_resource is None:
            return None
        entry = heapq.heappop(self._heaps[best_resource])
        self._size -= 1
        return entry[2]

    def release(self, resource: str) -> None:
        """Capacity was freed on a resource: re-admit its parked entries."""
        parked = self._parked.get(resource)
        if parked:
            heap = self._heaps[resource]
            for entry in parked:
                heapq.heappush(heap, entry)
            parked.clear()

    def pending(self) -> Iterator[object]:
        """Every entry still enqueued or parked (deadlock reporting)."""
        for resource, heap in self._heaps.items():
            for _, _, waiting in heap:
                yield waiting
            for _, _, waiting in self._parked[resource]:
                yield waiting


class DependencyTracker:
    """Dependency counters over runtime-task uids.

    Built once from the materialized chains: ``pending[uid]`` counts the
    task's unfinished dependencies and ``dependents[uid]`` lists who waits
    on it.  :meth:`submit` parks an entry whose counter is still positive;
    :meth:`complete` decrements dependents and hands back the parked
    entries that just became ready — the executor pushes those onto the
    ready-heap index, which is how single-flight cache followers are woken
    through the event queue instead of being rediscovered by a scan.
    """

    def __init__(self, chains: Iterable[Iterable[object]]) -> None:
        self._pending: Dict[int, int] = {}
        self._dependents: Dict[int, List[int]] = {}
        self._parked: Dict[int, object] = {}
        for chain in chains:
            for task in chain:
                if task.deps:
                    self._pending[task.uid] = len(task.deps)
                    for dep in task.deps:
                        self._dependents.setdefault(dep, []).append(task.uid)

    def submit(self, waiting: object) -> bool:
        """True when the entry is ready now; otherwise park it."""
        uid = waiting.task.uid
        if self._pending.get(uid, 0) == 0:
            return True
        self._parked[uid] = waiting
        return False

    def complete(self, uid: int) -> List[object]:
        """A task finished: release parked entries whose last dep this was."""
        released: List[object] = []
        for dependent in self._dependents.pop(uid, ()):
            remaining = self._pending[dependent] - 1
            self._pending[dependent] = remaining
            if remaining == 0:
                waiting = self._parked.pop(dependent, None)
                if waiting is not None:
                    released.append(waiting)
        return released

    def parked(self) -> List[object]:
        """Entries still blocked on dependencies (deadlock reporting)."""
        return list(self._parked.values())


def blocked_triples(waiting: Iterable[object]) -> List[Tuple[int, str, int]]:
    """Sorted ``(qid, resource, units)`` triples of stuck waiting entries,
    the payload of the executor's deadlock diagnostics."""
    return sorted(
        (w.session.qid, w.task.resource, w.task.units) for w in waiting
    )
