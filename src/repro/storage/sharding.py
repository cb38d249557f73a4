"""Sharded multi-disk storage plane (Section 2.2, scaled out).

The paper's platform is an array of HDDs; the seed reproduction modeled it
as one aggregate :class:`~repro.storage.disk.DiskModel`, so every
concurrent retrieval and every tier migration serialized through a single
bandwidth meter.  :class:`ShardedDiskArray` replaces that with N
independent disk shards — each with its own bandwidth/overhead envelope,
all charged to one shared :class:`~repro.clock.SimClock` — so the
concurrent executor can overlap retrievals on different shards and the
simulated wall-clock becomes the *max* over shards rather than the sum.

Where a segment lands is decided by a pluggable :class:`PlacementPolicy`:

* ``round-robin`` — each newly stored (stream, format, segment) key goes to
  the next shard in rotation: per-key counts stay within one of each other;
* ``hash`` — shard is a stable hash of (stream, segment index): fully
  deterministic, independent of arrival order, and it co-locates all of a
  segment's formats on one shard;
* ``locality`` — co-locates a segment's formats and groups a stream's cold
  segments on one shard (sequential scans stay sequential), while
  high-activity ("hot") segments are spread to the least-loaded shard so
  the busiest footage enjoys the most parallelism.

The array is pure accounting: segment payloads still live in the KV
backend; the :class:`~repro.storage.segment_store.SegmentStore` records
each key's shard in its metadata record (so placement survives reopen) and
charges writes to the assigned shard through this class.  Reads are the
executor's retrieve tasks: they are costed from the serving shard's
:meth:`ShardedDiskArray.read_params_at` and run on its ``disk:i`` pool.

Every second of shard I/O — writes, migrations, rebuild and re-encode
tasks, tier moves — is :func:`~repro.storage.disk.transfer_seconds` on a
shard's envelope, via :meth:`~ShardedDiskArray.read_seconds` (health folded
in once, by ``read_params_at``) and :meth:`~ShardedDiskArray.write_seconds`;
writes charge the array's one clock.  A one-shard array costs exactly its
one :class:`DiskModel` envelope through that formula, bit for bit.

Keys can be stored **k-way replicated** (``replication=k``): the policy's
:meth:`PlacementPolicy.choose_replicas` picks k *distinct* shards (primary
first), writes charge every replica's spindle, and reads route to the
fastest *surviving* replica once shards start failing.  Shard health is
tracked here too — ``fail_shard`` destroys a shard's replicas (promoting
surviving copies, recording data loss when none survive),
``degrade_shard`` slows its reads by a factor, ``recover_shard`` returns
the (empty) spindle to service — so the failure campaigns in
:mod:`repro.storage.failures` have one place to flip.  With no health
events none of this machinery executes, preserving the bit-parity
contract above.  The placement books keep one copy set per key, primary
first, whatever the replication factor.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.clock import SimClock
from repro.errors import ReplicaUnavailableError, ShardFailedError, StorageError
from repro.storage.disk import DiskModel, transfer_seconds

#: One placed key: (stream, format key text, segment index).
ShardKey = Tuple[str, str, int]


def _stable_hash(text: str) -> int:
    """A process-independent string hash (Python's ``hash`` is salted)."""
    return zlib.crc32(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Placement policies
# ---------------------------------------------------------------------------


class PlacementPolicy:
    """Chooses the shard a newly stored key lands on.

    ``choose`` is consulted once per *new* key; the array records the
    answer, so re-writes and reads always go back to the same shard.  A
    policy may read the array's current load (``shard_bytes``,
    ``segment_shard``) but must not mutate it.
    """

    name = "policy"

    def choose(self, array: "ShardedDiskArray", stream: str, fmt_text: str,
               index: int, nbytes: float, activity: float) -> int:
        raise NotImplementedError

    def choose_replicas(self, array: "ShardedDiskArray", stream: str,
                        fmt_text: str, index: int, nbytes: float,
                        activity: float, k: int) -> Tuple[int, ...]:
        """The k distinct shards a replicated key lands on, primary first.

        The default derivation keeps every policy replica-capable without
        new code: the primary is whatever :meth:`choose` picks, and the
        remaining replicas walk the ring from it (skipping failed shards),
        so replica sets are deterministic and spread across spindles.
        """
        primary = self.choose(array, stream, fmt_text, index, nbytes,
                              activity)
        replicas = [primary]
        for step in range(1, array.n_shards):
            if len(replicas) >= k:
                break
            candidate = (primary + step) % array.n_shards
            if candidate not in replicas and not array.is_failed(candidate):
                replicas.append(candidate)
        return tuple(replicas)


class RoundRobinPlacement(PlacementPolicy):
    """Each new key goes to the next shard in rotation.

    Per-shard *key counts* never differ by more than one; byte imbalance
    is bounded by the count imbalance times the largest segment size.
    """

    name = "round-robin"

    def choose(self, array: "ShardedDiskArray", stream: str, fmt_text: str,
               index: int, nbytes: float, activity: float) -> int:
        return array.placements_made % array.n_shards


class HashPlacement(PlacementPolicy):
    """Shard = stable hash of (stream, segment index).

    Independent of arrival order, and all formats of one segment land on
    the same shard (the format is deliberately left out of the hash), so a
    query that touches several formats of one segment stays local.
    """

    name = "hash"

    def choose(self, array: "ShardedDiskArray", stream: str, fmt_text: str,
               index: int, nbytes: float, activity: float) -> int:
        return _stable_hash(f"{stream}\x00{index}") % array.n_shards


class LocalityAwarePlacement(PlacementPolicy):
    """Co-locate a segment's formats; spread hot segments by load.

    The first format of a segment picks the shard, every later format
    follows it.  High-activity segments (``activity >= hot_activity``) go
    to the currently least-loaded shard — the busiest footage is spread for
    parallelism, with the greedy guarantee that hot byte loads differ by at
    most one segment.  Cold segments group by stream so sequential scans
    of quiet footage stay on one spindle.
    """

    name = "locality"

    def __init__(self, hot_activity: float = 0.5):
        self.hot_activity = hot_activity

    def choose(self, array: "ShardedDiskArray", stream: str, fmt_text: str,
               index: int, nbytes: float, activity: float) -> int:
        existing = array.segment_shard(stream, index)
        if existing is not None:
            return existing
        if activity >= self.hot_activity:
            loads = array.shard_bytes
            return min(range(array.n_shards), key=lambda i: (loads[i], i))
        return _stable_hash(stream) % array.n_shards


#: Policy registry for the CLI and the VStore facade.
PLACEMENTS = {
    RoundRobinPlacement.name: RoundRobinPlacement,
    HashPlacement.name: HashPlacement,
    LocalityAwarePlacement.name: LocalityAwarePlacement,
}


def placement_named(name: Union[str, PlacementPolicy]) -> PlacementPolicy:
    """Resolve a policy instance from its registry name (or pass through)."""
    if isinstance(name, PlacementPolicy):
        return name
    try:
        return PLACEMENTS[name]()
    except KeyError:
        raise StorageError(
            f"unknown placement policy {name!r}; "
            f"known: {sorted(PLACEMENTS)}"
        ) from None


# ---------------------------------------------------------------------------
# The sharded array
# ---------------------------------------------------------------------------


class ShardedDiskArray:
    """N independent disk shards behind one placement map.

    Every :class:`~repro.storage.segment_store.SegmentStore` runs on one;
    callers go through the keyed entry points (``place``/``locate``/
    ``write_at``/``read_seconds``/``write_seconds``/``migrate``) or reach a
    shard's :class:`DiskModel` envelope with :meth:`shard`.  Each shard
    owns a calibrated ``DiskModel()`` unless ``disks`` gives each shard's
    envelope, so slowing one shard in place leaves the others, and the
    planner's ``DEFAULT_DISK``, as they were.
    """

    def __init__(
        self,
        shards: int = 1,
        *,
        placement: Union[str, PlacementPolicy] = "hash",
        replication: int = 1,
        clock: Optional[SimClock] = None,
        disks: Optional[List[DiskModel]] = None,
    ):
        if disks is not None:
            if not disks:
                raise StorageError("need at least one disk shard")
            self.disks = list(disks)
        else:
            if shards < 1:
                raise StorageError(f"need at least one disk shard: {shards}")
            self.disks = [DiskModel() for _ in range(shards)]
        self.clock = clock or SimClock()
        self.placement = placement_named(placement)
        if not 1 <= replication <= len(self.disks):
            raise StorageError(
                f"replication factor {replication} needs between 1 and "
                f"{len(self.disks)} (the shard count) copies"
            )
        self.replication = replication
        # placement state: every placed key's copy set, primary first
        self._copies: Dict[ShardKey, Tuple[int, ...]] = {}
        self._key_bytes: Dict[ShardKey, float] = {}
        #: keys whose every replica was destroyed: key -> bytes lost.
        self._lost: Dict[ShardKey, float] = {}
        # shard health (empty containers = the bit-parity fast path)
        self._failed: Set[int] = set()
        self._degraded: Dict[int, float] = {}
        self.failures_injected = 0
        self.replicas_rebuilt = 0
        self.rebuilt_bytes = 0.0
        self._segment_shard: Dict[Tuple[str, int], int] = {}
        self._segment_formats: Dict[Tuple[str, int], int] = {}
        self._shard_bytes: List[float] = [0.0] * len(self.disks)
        self._shard_keys: List[int] = [0] * len(self.disks)
        self.placements_made = 0
        self.folded_placements = 0  # adopted keys from a wider array
        # per-shard accounting (simulated busy seconds); reads are the
        # executor's retrieve tasks and show up in its "disk:i" pool stats
        self.busy_write_seconds: List[float] = [0.0] * len(self.disks)
        self.busy_migrate_seconds: List[float] = [0.0] * len(self.disks)
        self.migrations = 0
        self.migrated_bytes = 0.0

    # -- topology ----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.disks)

    def shard(self, i: int) -> DiskModel:
        return self.disks[i]

    def io_resource(self, shard: int) -> str:
        """Executor resource name of ``shard``'s I/O channel pool.

        A one-shard array names its one pool ``"disk"``, the name its
        traces and stats carry; more shards name theirs ``"disk:i"``.
        """
        if self.n_shards > 1:
            return f"disk:{shard % self.n_shards}"
        return "disk"

    def io_resources(self) -> List[str]:
        """Executor resource names of this array's I/O channel pools.

        The concurrent executor builds one bounded channel pool per name,
        each with its own ready queue in the event loop
        (:meth:`~repro.query.scheduler.ConcurrentExecutor._drain`), so
        retrievals queued on different spindles wait in different queues
        and overlap.
        """
        return [self.io_resource(i) for i in range(self.n_shards)]

    @property
    def shard_bytes(self) -> List[float]:
        """Stored bytes per shard (a copy; policies may read it)."""
        return list(self._shard_bytes)

    @property
    def shard_keys(self) -> List[int]:
        """Stored keys per shard (a copy)."""
        return list(self._shard_keys)

    # -- per-shard I/O costs and charges -----------------------------------

    def read_seconds(self, shard: int, n_bytes: float,
                     requests: int = 1) -> float:
        """Seconds to read ``n_bytes`` off one shard, as a served read:
        :meth:`read_params_at` folds in its degrade factor."""
        return transfer_seconds(n_bytes, *self.read_params_at(shard), requests)

    def write_seconds(self, shard: int, n_bytes: float,
                      requests: int = 1) -> float:
        """Seconds to write ``n_bytes`` to one shard (degrading a shard
        slows only its reads)."""
        disk = self.disks[shard]
        return transfer_seconds(n_bytes, disk.write_bandwidth,
                                disk.request_overhead, requests)

    def write_at(self, shard: int, n_bytes: float, requests: int = 1) -> float:
        """Charge a write against one shard (clock category ``"disk"``)."""
        if shard in self._failed:
            raise ShardFailedError(f"cannot write to failed shard {shard}")
        # A negative size or request count would charge negative seconds,
        # silently rewinding the simulated clock.
        if n_bytes < 0:
            raise ValueError(f"cannot transfer negative bytes: {n_bytes}")
        if requests < 0:
            raise ValueError(f"negative request count: {requests}")
        seconds = self.write_seconds(shard, n_bytes, requests)
        self.clock.charge(seconds, "disk")
        self.busy_write_seconds[shard] += seconds
        return seconds

    def migrate(self, src: int, dst: int, n_bytes: float,
                requests: int = 1, category: str = "migrate") -> float:
        """Charge moving bytes shard-to-shard: read source, write destination.

        The I/O is charged to *both* sides — the source's read and the
        destination's write each occupy their spindle — and the clock
        advances by the sum (the move is not pipelined).  The source is
        read as a served read (:meth:`read_seconds`), so a degraded
        source reads slower.
        """
        if n_bytes < 0:
            raise StorageError(f"cannot migrate negative bytes: {n_bytes}")
        if src in self._failed or dst in self._failed:
            failed = src if src in self._failed else dst
            raise ShardFailedError(
                f"cannot migrate via failed shard {failed}"
            )
        read = self.read_seconds(src, n_bytes, requests)
        write = self.write_seconds(dst, n_bytes, requests)
        self.clock.charge(read + write, category)
        self.busy_migrate_seconds[src] += read
        self.busy_migrate_seconds[dst] += write
        self.migrations += 1
        self.migrated_bytes += n_bytes
        return read + write

    def note_slow_io(self, shard: int, seconds: float) -> None:
        """Attribute externally charged slow-tier I/O (tier promotion or
        demotion) to the shard that served it, for utilization reports."""
        self.busy_migrate_seconds[shard] += seconds

    # -- placement ---------------------------------------------------------

    def place(self, stream: str, fmt_text: str, index: int,
              nbytes: float, activity: float = 0.0) -> int:
        """Assign (or re-find) the shard of a key; records the bytes.

        A key already placed keeps its shard — only its byte accounting is
        refreshed (an overwrite may change the segment's size).
        """
        key = (stream, fmt_text, index)
        copies = self._copies.get(key)
        if copies is not None:
            delta = nbytes - self._key_bytes[key]
            for replica in copies:
                self._shard_bytes[replica] += delta
            self._key_bytes[key] = nbytes
            return copies[0]
        if self.replication > 1:
            return self._place_replicated(key, nbytes, activity)
        shard = self.placement.choose(self, stream, fmt_text, index,
                                      nbytes, activity)
        if not 0 <= shard < self.n_shards:
            raise StorageError(
                f"placement {self.placement.name!r} chose shard {shard} "
                f"outside [0, {self.n_shards})"
            )
        if shard in self._failed:
            shard = self._healthiest_shard(exclude=())
        self._record(key, (shard,), nbytes)
        self.placements_made += 1
        return shard

    def _place_replicated(self, key: ShardKey, nbytes: float,
                          activity: float) -> int:
        """Place a new key on ``replication`` distinct shards."""
        stream, fmt_text, index = key
        replicas = self.placement.choose_replicas(
            self, stream, fmt_text, index, nbytes, activity, self.replication
        )
        if len(set(replicas)) != len(replicas):
            raise StorageError(
                f"placement {self.placement.name!r} chose duplicate "
                f"replicas {replicas!r}"
            )
        if any(not 0 <= r < self.n_shards for r in replicas):
            raise StorageError(
                f"placement {self.placement.name!r} chose replicas "
                f"{replicas!r} outside [0, {self.n_shards})"
            )
        if replicas and replicas[0] in self._failed:
            survivors = tuple(r for r in replicas[1:]
                              if r not in self._failed)
            try:
                primary = self._healthiest_shard(exclude=survivors)
                replicas = (primary,) + survivors
            except ShardFailedError:
                if not survivors:
                    raise
                # Every healthy shard already serves as a secondary:
                # promote one instead of refusing the placement.
                replicas = survivors
        want = min(self.replication, self.n_shards - len(self._failed))
        if len(replicas) < want:
            raise StorageError(
                f"placement {self.placement.name!r} produced only "
                f"{len(replicas)} replicas for factor {self.replication}"
            )
        self._record(key, tuple(replicas), nbytes)
        self.placements_made += 1
        return replicas[0]

    def _healthiest_shard(self, exclude: Tuple[int, ...]) -> int:
        """The least-loaded shard that is neither failed nor excluded."""
        candidates = [
            i for i in range(self.n_shards)
            if i not in self._failed and i not in exclude
        ]
        if not candidates:
            raise ShardFailedError(
                "no surviving shard available for placement"
            )
        return min(candidates, key=lambda i: (self._shard_bytes[i], i))

    def adopt(self, stream: str, fmt_text: str, index: int,
              shard: int, nbytes: float,
              replicas: Optional[Tuple[int, ...]] = None) -> int:
        """Restore a persisted placement at store open.

        A store written on a wider array is folded onto this one
        (``shard % n_shards``); each key with a folded copy counts once
        in ``folded_placements``, so an operator can see that a rebalance
        (or a wider reopen) is due.  ``replicas`` restores a replicated
        key's full copy set (primary first); folded duplicates collapse
        to the surviving distinct set.
        """
        persisted = (shard, *(replicas or ()))
        copies: List[int] = []
        for copy in persisted:
            if copy % self.n_shards not in copies:
                copies.append(copy % self.n_shards)
        if any(not 0 <= copy < self.n_shards for copy in persisted):
            self.folded_placements += 1
        self._record((stream, fmt_text, index), tuple(copies), nbytes)
        self.placements_made += 1
        return copies[0]

    def _record(self, key: ShardKey, copies: Tuple[int, ...],
                nbytes: float) -> None:
        # Re-placing a key destroyed by failures makes it live again.
        self._lost.pop(key, None)
        self._copies[key] = copies
        self._key_bytes[key] = nbytes
        for shard in copies:
            self._shard_bytes[shard] += nbytes
            self._shard_keys[shard] += 1
        seg = (key[0], key[2])
        self._segment_shard.setdefault(seg, copies[0])
        self._segment_formats[seg] = self._segment_formats.get(seg, 0) + 1

    def locate(self, stream: str, fmt_text: str, index: int) -> Optional[int]:
        """The shard a key was placed on, or None when never placed."""
        copies = self._copies.get((stream, fmt_text, index))
        return None if copies is None else copies[0]

    def forget(self, stream: str, fmt_text: str, index: int) -> Optional[int]:
        """Drop a key's placement (the segment was deleted)."""
        key = (stream, fmt_text, index)
        self._lost.pop(key, None)
        copies = self._copies.pop(key, None)
        if copies is None:
            return None
        nbytes = self._key_bytes.pop(key)
        for replica in copies:
            self._shard_bytes[replica] -= nbytes
            self._shard_keys[replica] -= 1
        seg = (key[0], key[2])
        remaining = self._segment_formats.get(seg, 1) - 1
        if remaining <= 0:
            self._segment_formats.pop(seg, None)
            self._segment_shard.pop(seg, None)
        else:
            self._segment_formats[seg] = remaining
        return copies[0]

    def reassign(self, stream: str, fmt_text: str, index: int,
                 dst: int) -> int:
        """Move a key's placement to another shard (rebalance bookkeeping).

        Charges nothing: the caller is responsible for the migration I/O
        (see :meth:`migrate`).
        """
        key = (stream, fmt_text, index)
        copies = self._copies.get(key)
        if copies is None:
            raise StorageError(f"cannot reassign unplaced key {key!r}")
        src = copies[0]
        if not 0 <= dst < self.n_shards:
            raise StorageError(f"no such shard: {dst}")
        if dst == src:
            return src
        if dst in self._failed:
            raise ShardFailedError(
                f"cannot reassign {key!r} onto failed shard {dst}"
            )
        if dst in copies:
            raise StorageError(
                f"shard {dst} already holds a replica of {key!r}"
            )
        self._copies[key] = (dst,) + copies[1:]
        nbytes = self._key_bytes[key]
        self._shard_bytes[src] -= nbytes
        self._shard_keys[src] -= 1
        self._shard_bytes[dst] += nbytes
        self._shard_keys[dst] += 1
        seg = (key[0], key[2])
        if self._segment_shard.get(seg) == src:
            self._segment_shard[seg] = dst
        return src

    # -- replicas ----------------------------------------------------------

    def replicas(self, stream: str, fmt_text: str, index: int
                 ) -> Tuple[int, ...]:
        """Every shard holding a copy of a key, primary first.

        Unreplicated keys return a one-tuple; unplaced keys return ``()``.
        """
        return self._copies.get((stream, fmt_text, index), ())

    def replica_assignments(self) -> Dict[ShardKey, Tuple[int, ...]]:
        """Snapshot of every placed key's full replica set."""
        return dict(self._copies)

    def add_replica(self, stream: str, fmt_text: str, index: int,
                    shard: int) -> None:
        """Record a freshly copied replica (re-replication bookkeeping).

        Charges nothing — the rebuild I/O runs as executor tasks; this is
        the ``on_done`` commit that makes the new copy readable.
        """
        key = (stream, fmt_text, index)
        current = self._copies.get(key)
        if current is None:
            raise StorageError(f"cannot replicate unplaced key {key!r}")
        if not 0 <= shard < self.n_shards:
            raise StorageError(f"no such shard: {shard}")
        if shard in self._failed:
            raise ShardFailedError(
                f"cannot place a replica on failed shard {shard}"
            )
        if shard in current:
            raise StorageError(
                f"shard {shard} already holds a replica of {key!r}"
            )
        nbytes = self._key_bytes[key]
        self._shard_bytes[shard] += nbytes
        self._shard_keys[shard] += 1
        self._copies[key] = current + (shard,)
        self.replicas_rebuilt += 1
        self.rebuilt_bytes += nbytes

    # -- shard health ------------------------------------------------------

    def is_failed(self, shard: int) -> bool:
        return shard in self._failed

    def shard_state(self, shard: int) -> str:
        """``"up"``, ``"degraded"`` or ``"failed"``."""
        if shard in self._failed:
            return "failed"
        if shard in self._degraded:
            return "degraded"
        return "up"

    def degrade_factor(self, shard: int) -> float:
        """Read-slowdown multiplier of a shard (1.0 when healthy)."""
        return self._degraded.get(shard, 1.0)

    @property
    def failed_shards(self) -> Tuple[int, ...]:
        return tuple(sorted(self._failed))

    @property
    def healthy(self) -> bool:
        """True when no shard is failed or degraded (the fast path)."""
        return not self._failed and not self._degraded

    def fail_shard(self, shard: int) -> List[Tuple[ShardKey, float, int]]:
        """A shard crashed: its copies are gone until re-replicated.

        Every replica on the shard is dropped from the bookkeeping.  Keys
        with surviving copies promote the fastest survivor to primary and
        are returned as ``(key, bytes, source_shard)`` rebuild work (read
        the source, write a fresh copy elsewhere); keys whose *last* copy
        lived here are recorded as lost — subsequent reads raise
        :class:`~repro.errors.ReplicaUnavailableError`.
        """
        if not 0 <= shard < self.n_shards:
            raise StorageError(f"no such shard: {shard}")
        if shard in self._failed:
            return []
        self._failed.add(shard)
        self._degraded.pop(shard, None)
        self.failures_injected += 1
        rebuild: List[Tuple[ShardKey, float, int]] = []
        for key, copies in [(k, c) for k, c in self._copies.items()
                            if shard in c]:
            nbytes = self._key_bytes[key]
            self._shard_bytes[shard] -= nbytes
            self._shard_keys[shard] -= 1
            survivors = tuple(r for r in copies if r != shard)
            if not survivors:
                # Data loss: the key is gone from the store's bookkeeping
                # but remembered so reads can say *why* they fail.
                del self._copies[key]
                del self._key_bytes[key]
                self._lost[key] = nbytes
                seg = (key[0], key[2])
                remaining = self._segment_formats.get(seg, 1) - 1
                if remaining <= 0:
                    self._segment_formats.pop(seg, None)
                    self._segment_shard.pop(seg, None)
                else:
                    self._segment_formats[seg] = remaining
                continue
            source = self._fastest_shard(survivors)
            if copies[0] == shard:
                # The promoted survivor leads the copy set: rebalance
                # planning and reopen take the first copy as the primary.
                survivors = (source,) + tuple(
                    r for r in survivors if r != source
                )
            seg = (key[0], key[2])
            if self._segment_shard.get(seg) == shard:
                self._segment_shard[seg] = source
            self._copies[key] = survivors
            rebuild.append((key, nbytes, source))
        return rebuild

    def degrade_shard(self, shard: int, factor: float = 4.0) -> None:
        """Slow a shard's reads by ``factor`` (it stays readable)."""
        if not 0 <= shard < self.n_shards:
            raise StorageError(f"no such shard: {shard}")
        if factor < 1.0:
            raise StorageError(f"degrade factor must be >= 1: {factor}")
        if shard in self._failed:
            raise ShardFailedError(
                f"shard {shard} is failed; recover it first"
            )
        self._degraded[shard] = factor
        self.failures_injected += 1

    def recover_shard(self, shard: int) -> None:
        """Return a shard to service.

        A recovered spindle comes back *empty* — replicas destroyed by the
        failure stay destroyed (re-replication rebuilds them elsewhere) —
        but it is immediately eligible for new placements and rebuild
        destinations.  Recovering a degraded shard just clears the factor.
        """
        if not 0 <= shard < self.n_shards:
            raise StorageError(f"no such shard: {shard}")
        self._failed.discard(shard)
        self._degraded.pop(shard, None)

    def reset_health(self) -> None:
        """Clear every failure/degradation flag (bookkeeping unchanged)."""
        self._failed.clear()
        self._degraded.clear()

    def lost_keys(self) -> Dict[ShardKey, float]:
        """Keys destroyed by failures (all replicas gone): key -> bytes."""
        return dict(self._lost)

    @property
    def lost_bytes(self) -> float:
        return sum(self._lost.values())

    def _fastest_shard(self, candidates: Tuple[int, ...]) -> int:
        """The candidate with the highest effective read bandwidth
        (:meth:`read_params_at`), ties broken by index."""
        return min(candidates,
                   key=lambda s: (-self.read_params_at(s)[0], s))

    def effective_read_shard(self, stream: str, fmt_text: str,
                             index: int) -> Optional[int]:
        """The shard a read of this key should route to *right now*.

        Healthy stores answer the primary (bit-identical to the
        pre-failure path).  Under failures, reads route to the fastest
        surviving replica; a key with no surviving copy raises
        :class:`~repro.errors.ReplicaUnavailableError`.
        """
        key = (stream, fmt_text, index)
        copies = self._copies.get(key)
        if copies is None:
            if key in self._lost:
                raise ReplicaUnavailableError(
                    f"all replicas of stream={stream} format={fmt_text} "
                    f"segment={index} were lost to shard failures"
                )
            return None
        primary = copies[0]
        if not self._failed and not self._degraded:
            return primary
        survivors = tuple(r for r in copies if r not in self._failed)
        if not survivors:
            raise ShardFailedError(
                f"every shard holding stream={stream} format={fmt_text} "
                f"segment={index} is currently failed"
            )
        if primary in survivors and primary not in self._degraded:
            return primary
        return self._fastest_shard(survivors)

    def read_params_at(self, shard: int) -> Tuple[float, float]:
        """Effective ``(read_bandwidth, request_overhead)`` of one shard,
        with any degrade factor folded into the bandwidth."""
        disk = self.disks[shard]
        factor = self._degraded.get(shard)
        if factor is None or factor <= 1.0:
            return disk.read_bandwidth, disk.request_overhead
        return disk.read_bandwidth / factor, disk.request_overhead

    # -- segment-granularity views (tiering, locality) ---------------------

    def segment_shard(self, stream: str, index: int) -> Optional[int]:
        """The shard a segment's formats were first placed on."""
        return self._segment_shard.get((stream, index))

    def assignments(self) -> Dict[ShardKey, Tuple[int, float]]:
        """Snapshot of every placed key: key -> (shard, bytes)."""
        return {
            key: (copies[0], self._key_bytes[key])
            for key, copies in self._copies.items()
        }

    # -- balance metrics ---------------------------------------------------

    @property
    def byte_imbalance(self) -> float:
        """Max-minus-min stored bytes across shards (0 = perfectly even)."""
        if self.n_shards <= 1:
            return 0.0
        return max(self._shard_bytes) - min(self._shard_bytes)

    @property
    def imbalance_ratio(self) -> float:
        """Max shard load over the mean (1.0 = perfectly even)."""
        total = sum(self._shard_bytes)
        if total <= 0:
            return 1.0
        return max(self._shard_bytes) / (total / self.n_shards)


# ---------------------------------------------------------------------------
# Rebalancing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of one :meth:`SegmentStore.rebalance` round."""

    moves: int
    bytes_moved: float
    seconds: float  # migration I/O charged to the clock
    imbalance_before: float  # max-min shard bytes before
    imbalance_after: float


def plan_rebalance(
    assignments: Dict[ShardKey, Tuple[int, float]],
    shards: Sequence[int],
    replicas: Dict[ShardKey, Tuple[int, ...]],
) -> List[Tuple[ShardKey, int, int]]:
    """Plan the moves that restore byte balance; pure, no I/O.

    ``assignments`` maps each key to its primary shard and bytes
    (:meth:`ShardedDiskArray.assignments`), ``replicas`` to its full copy
    set, primary first (:meth:`ShardedDiskArray.replica_assignments`).
    ``shards`` are the shards the plan may use: a failed shard holds no
    copies and takes no writes, so it is neither source nor destination.
    Every copy counts toward its shard's load — the bytes
    :attr:`ShardedDiskArray.byte_imbalance` measures — but only primaries
    move, and never onto a shard that already holds a copy of the key.

    Greedy: repeatedly move the largest such key that fits strictly inside
    the load gap from the fullest shard holding a primary to the emptiest
    shard.  Every such move strictly decreases the sum of squared shard
    loads, so the loop terminates; it stops when no movable key on that
    shard is smaller than the gap.  Without replication every loaded
    shard holds primaries, and the residual imbalance is then below the
    largest single key, the best any per-key mover can guarantee.

    Returns ``(key, src, dst)`` moves in application order.  The plan
    conserves keys and bytes by construction: it only ever relabels a
    key's shard, never drops or duplicates one.
    """
    loads = dict.fromkeys(shards, 0.0)
    by_shard: Dict[int, Dict[ShardKey, float]] = {i: {} for i in shards}
    # copy sets of replicated keys, updated as the plan moves primaries
    copies: Dict[ShardKey, Tuple[int, ...]] = {}
    for key, (shard, nbytes) in assignments.items():
        if shard not in loads:
            raise StorageError(f"key {key!r} on unknown shard {shard}")
        loads[shard] += nbytes
        by_shard[shard][key] = nbytes
        if len(replicas[key]) > 1:
            copies[key] = replicas[key]
            for copy in replicas[key][1:]:
                loads[copy] += nbytes
    moves: List[Tuple[ShardKey, int, int]] = []
    while True:
        # Only primaries move, so the source is the fullest shard holding
        # one (a shard of secondaries alone has nothing to give).
        holders = [i for i in loads if by_shard[i]]
        if not holders:
            break
        src = max(holders, key=lambda i: (loads[i], i))
        dst = min(loads, key=lambda i: (loads[i], i))
        gap = loads[src] - loads[dst]
        if gap <= 0:
            break
        # Largest movable key strictly smaller than the gap; ties break on
        # the sorted key so the plan is deterministic.
        candidates = [
            (nbytes, key) for key, nbytes in by_shard[src].items()
            if 0 < nbytes < gap and dst not in copies.get(key, ())
        ]
        if not candidates:
            break
        nbytes, key = max(candidates, key=lambda c: (c[0], c[1]))
        del by_shard[src][key]
        by_shard[dst][key] = nbytes
        loads[src] -= nbytes
        loads[dst] += nbytes
        if key in copies:
            copies[key] = tuple(dst if r == src else r for r in copies[key])
        moves.append((key, src, dst))
    return moves
