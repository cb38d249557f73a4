"""Failure injection for the sharded plane: campaigns, events, rebuilds.

A production video store loses spindles; the reproduction now models
that.  A :class:`FailureCampaign` is a pinned, fully deterministic
schedule of shard :class:`FailureEvent`\\ s on the *simulated* clock:

* ``fail`` — the shard crashes.  Every replica it held is destroyed;
  keys with surviving copies promote the fastest survivor to primary and
  become re-replication work, keys whose last copy lived there are
  recorded as **lost** (reads raise
  :class:`~repro.errors.ReplicaUnavailableError`).
* ``degrade`` — the shard stays readable but its reads stream at
  ``1/factor`` of its bandwidth (a sick spindle: remapped sectors,
  background scrubbing).
* ``recover`` — the spindle returns to service *empty*: destroyed
  replicas stay destroyed (re-replication already rebuilt them
  elsewhere), but the shard is again eligible for placements.

The campaign's events ride the concurrent executor's timeline
(:meth:`~repro.query.scheduler.ConcurrentExecutor.schedule_failures`)
alongside arrivals and completions, so an open-loop serve measures its
SLOs *through* the failure window.  Lost redundancy is restored by
:func:`rebuild_jobs`: background re-replication jobs in executor
scheduling class 1 — read the surviving replica, write a fresh copy to
the least-loaded healthy shard — that contend honestly with foreground
queries for the per-shard I/O channels and commit their bookkeeping
(:meth:`~repro.storage.segment_store.SegmentStore.commit_replica`) at
the simulated instant the copy finished.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.errors import StorageError
from repro.storage.sharding import ShardedDiskArray, ShardKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.scheduler import BackgroundJob
    from repro.storage.segment_store import SegmentStore

__all__ = [
    "FAILURE_ACTIONS",
    "FailureCampaign",
    "FailureEvent",
    "RebuildWork",
    "apply_event",
    "rebuild_jobs",
]

#: The three things that can happen to a shard, in trace-kind spelling.
FAILURE_ACTIONS = ("fail", "degrade", "recover")


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled health transition of one shard."""

    t: float  # simulated instant the event fires
    action: str  # "fail" | "degrade" | "recover"
    shard: int
    factor: float = 4.0  # read-slowdown multiplier ("degrade" only)

    def __post_init__(self) -> None:
        if self.action not in FAILURE_ACTIONS:
            raise StorageError(
                f"unknown failure action {self.action!r}; "
                f"known: {FAILURE_ACTIONS}"
            )
        if not math.isfinite(self.t) or self.t < 0:
            raise StorageError(
                f"event time must be finite and >= 0: {self.t}"
            )
        if self.shard < 0:
            raise StorageError(f"no such shard: {self.shard}")
        if self.action == "degrade" and self.factor < 1.0:
            raise StorageError(
                f"degrade factor must be >= 1: {self.factor}"
            )


@dataclass(frozen=True)
class FailureCampaign:
    """A deterministic schedule of failure events, sorted by time.

    Construction validates and time-sorts the events (stable, so
    same-instant events keep their given order).  Campaigns are pure
    data: applying one is the executor timeline's job, planning around
    one is the store facade's.
    """

    events: Tuple[FailureEvent, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.t))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def fail_events(self) -> Tuple[FailureEvent, ...]:
        return tuple(e for e in self.events if e.action == "fail")

    def max_concurrent_failures(self) -> int:
        """Peak number of simultaneously failed shards over the campaign.

        The ``f`` of the ``f < k`` no-data-loss guarantee: with
        ``replication=k`` and fewer than k shards down at any instant,
        every key keeps at least one live replica (provided replicas sit
        on distinct shards — which placement enforces).
        """
        down: set = set()
        peak = 0
        for event in self.events:
            if event.action == "fail":
                down.add(event.shard)
            elif event.action == "recover":
                down.discard(event.shard)
            peak = max(peak, len(down))
        return peak

    def validate_for(self, array: ShardedDiskArray) -> None:
        """Reject events that target shards the array does not have."""
        for event in self.events:
            if event.shard >= array.n_shards:
                raise StorageError(
                    f"campaign event targets shard {event.shard} but the "
                    f"array has only {array.n_shards}"
                )

    @classmethod
    def parse(cls, text: str) -> "FailureCampaign":
        """Parse a CLI spec: ``action@t:shard[:factor],...``.

        Example: ``fail@10:0,degrade@10:1:8,recover@60:0``.
        """
        events: List[FailureEvent] = []
        for part in filter(None, (p.strip() for p in text.split(","))):
            try:
                action, _, rest = part.partition("@")
                pieces = rest.split(":")
                t = float(pieces[0])
                shard = int(pieces[1])
                factor = float(pieces[2]) if len(pieces) > 2 else 4.0
            except (IndexError, ValueError):
                raise StorageError(
                    f"malformed failure event {part!r}; expected "
                    f"action@t:shard[:factor]"
                ) from None
            events.append(FailureEvent(t=t, action=action, shard=shard,
                                       factor=factor))
        if not events:
            raise StorageError(f"empty failure campaign spec: {text!r}")
        return cls(events=tuple(events))

    @classmethod
    def random(cls, n_shards: int, horizon: float, *, seed: int = 0,
               n_failures: int = 1, degrade_factor: float = 4.0,
               repair_seconds: Optional[float] = None) -> "FailureCampaign":
        """A pinned pseudo-random campaign: pure function of its inputs.

        Each failure picks a distinct shard and a fail time inside the
        middle of the horizon; a matching recover fires
        ``repair_seconds`` later (default: a quarter horizon).  One
        degrade event rides along on another shard when room allows.
        """
        if n_shards < 1:
            raise StorageError(f"need at least one shard: {n_shards}")
        if horizon <= 0:
            raise StorageError(f"horizon must be positive: {horizon}")
        if not 0 <= n_failures <= n_shards:
            raise StorageError(
                f"cannot fail {n_failures} of {n_shards} shards"
            )
        rng = random.Random(seed)
        repair = (horizon / 4.0 if repair_seconds is None
                  else repair_seconds)
        shards = rng.sample(range(n_shards), k=min(n_shards, n_failures + 1))
        events: List[FailureEvent] = []
        for shard in shards[:n_failures]:
            t = rng.uniform(horizon * 0.2, horizon * 0.6)
            events.append(FailureEvent(t=t, action="fail", shard=shard))
            events.append(FailureEvent(t=t + repair, action="recover",
                                       shard=shard))
        if len(shards) > n_failures:
            t = rng.uniform(horizon * 0.2, horizon * 0.6)
            events.append(FailureEvent(t=t, action="degrade",
                                       shard=shards[-1],
                                       factor=degrade_factor))
        return cls(events=tuple(events))


@dataclass(frozen=True)
class RebuildWork:
    """One lost replica to re-copy: read ``source``, write ``destination``."""

    key: ShardKey
    nbytes: float
    source: int
    destination: int


def apply_event(array: ShardedDiskArray,
                event: FailureEvent) -> List[Tuple[ShardKey, float, int]]:
    """Flip one event's health transition on the array.

    Idempotent per state: failing an already-failed shard (or recovering
    a healthy one) is a no-op, so the store facade's planning pass and
    the executor's timeline replay can both apply the same campaign.
    Returns the re-replication work a ``fail`` produced
    (``(key, bytes, source_shard)`` triples), empty for the other
    actions.
    """
    if event.shard >= array.n_shards:
        raise StorageError(
            f"event targets shard {event.shard} but the array has "
            f"only {array.n_shards}"
        )
    if event.action == "fail":
        return array.fail_shard(event.shard)
    if event.action == "degrade":
        if not array.is_failed(event.shard):
            array.degrade_shard(event.shard, event.factor)
        return []
    array.recover_shard(event.shard)
    return []


def plan_rebuilds(array: ShardedDiskArray,
                  work: Sequence[Tuple[ShardKey, float, int]],
                  ) -> List[RebuildWork]:
    """Choose a destination shard for each lost replica; pure, no I/O.

    Destinations are the least-loaded shard that is healthy and holds no
    copy of the key, with a running byte overlay so one build round
    spreads its copies instead of dog-piling the currently emptiest
    spindle.  Work items with no eligible destination (every healthy
    shard already holds a copy) are skipped — redundancy cannot be
    raised above the healthy-shard count.
    """
    overlay: Dict[int, float] = {}
    plans: List[RebuildWork] = []
    for key, nbytes, source in work:
        stream, fmt_text, index = key
        holders = set(array.replicas(stream, fmt_text, index))
        candidates = [
            i for i in range(array.n_shards)
            if not array.is_failed(i) and i not in holders
        ]
        if not candidates:
            continue
        destination = min(
            candidates,
            key=lambda i: (array.shard_bytes[i] + overlay.get(i, 0.0), i),
        )
        overlay[destination] = overlay.get(destination, 0.0) + nbytes
        plans.append(RebuildWork(key=key, nbytes=nbytes, source=source,
                                 destination=destination))
    return plans


def rebuild_jobs(store: "SegmentStore",
                 work: Sequence[Tuple[ShardKey, float, int]],
                 ) -> List["BackgroundJob"]:
    """Build the background re-replication jobs for one failure's losses.

    One job per lost replica: a charged read on the surviving source
    shard, costed as a served read (a degraded source reads slower), then
    a charged write on the chosen destination shard whose
    ``on_done`` commits the new copy
    (:meth:`~repro.storage.segment_store.SegmentStore.commit_replica`)
    at the simulated instant it finished.  Jobs run in executor
    scheduling class 1, so foreground queries always win free capacity.
    """
    # Imported here: repro.storage must stay importable without pulling
    # the whole query plane (and scheduler imports storage types).
    from repro.query.scheduler import BackgroundJob, ResourceTask

    array = store.array
    jobs: List[BackgroundJob] = []
    for plan in plan_rebuilds(array, work):
        stream, fmt_text, index = plan.key
        commit = (lambda s=stream, f=fmt_text, i=index,
                  d=plan.destination: store.commit_replica(s, f, i, d))
        tasks = (
            ResourceTask(
                kind="read", resource="disk", units=1,
                duration=array.read_seconds(plan.source, plan.nbytes),
                category="disk", operator="rebuild", shard=plan.source,
            ),
            ResourceTask(
                kind="replicate", resource="disk", units=1,
                duration=array.write_seconds(plan.destination, plan.nbytes),
                category="disk", operator="rebuild",
                shard=plan.destination, on_done=commit,
            ),
        )
        jobs.append(BackgroundJob(
            name=f"rebuild:{stream}/{fmt_text}/{index}",
            stream=stream,
            kind="rebuild",
            tasks=tasks,
        ))
    return jobs
