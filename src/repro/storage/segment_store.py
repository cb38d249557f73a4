"""Segment store: the video index built on the key-value backend.

Keys are ``{stream}/{format-label}/{segment-index}``.  Each value is a small
JSON metadata record optionally followed by the segment payload.  The store
tracks per-(stream, format) footprints so storage-cost experiments can read
them off without scanning.

Store-level records live under the reserved ``__vstore__/`` key prefix
(stream names may not start with it); today that holds the committed
*format epoch*.  Online evolution writes re-encoded segments tagged with
the next epoch, commits the epoch only after every job finished, and any
segment tagged above the committed epoch is rolled back at open — so a
reopen after an interrupted migration never observes a half-materialized
format (see :meth:`SegmentStore.begin_epoch` / :meth:`commit_epoch`).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union
from urllib.parse import quote, unquote

from repro.codec.encoder import EncodedSegment
from repro.errors import StorageError
from repro.storage.disk import DiskModel, DEFAULT_DISK
from repro.storage.kvstore import KVStore
from repro.storage.sharding import RebalanceReport, ShardedDiskArray, plan_rebalance
from repro.video.coding import Coding
from repro.video.fidelity import Fidelity
from repro.video.format import StorageFormat
from repro.video.segment import Segment

_SEPARATOR = b"\x00"

#: Reserved prefix for store-level metadata records.  Segment keys never
#: start with it (``put`` rejects such stream names), and every full-key
#: scan skips it.
_META_PREFIX = "__vstore__/"
_EPOCH_KEY = _META_PREFIX + "epoch"


@dataclass(frozen=True)
class StoredSegment:
    """Metadata of one stored segment, as returned by lookups."""

    stream: str
    index: int
    fmt: StorageFormat
    size_bytes: int
    n_frames: int
    activity: float
    seconds: float
    has_payload: bool
    shard: int = 0  # disk shard holding the segment (0 on unsharded stores)

    @property
    def segment(self) -> Segment:
        return Segment(self.stream, self.index, self.seconds)


# Keys are "/"-structured, the two format labels are " "-joined, and label
# text is arbitrary (sampling fractions contain "/"; future knob values may
# contain spaces or "|"), so label characters that collide with the key
# structure are percent-escaped with the stdlib codec, which roundtrips
# any label exactly.


def _escape_label(text: str) -> str:
    return quote(text, safe="")


def _unescape_label(text: str) -> str:
    return unquote(text)


@functools.lru_cache(maxsize=None)
def _fmt_key(fmt: StorageFormat) -> str:
    """A format's escaped key text, built once per (interned) format."""
    return (f"{_escape_label(fmt.fidelity.label)} "
            f"{_escape_label(fmt.coding.label)}")


def _parse_fmt(text: str) -> StorageFormat:
    fidelity_text, sep, coding_text = text.rpartition(" ")
    if not sep:
        raise StorageError(f"malformed format key: {text!r}")
    return StorageFormat(
        fidelity=Fidelity.parse(_unescape_label(fidelity_text)),
        coding=Coding.parse(_unescape_label(coding_text)),
    )


class SegmentStore:
    """Stores and retrieves per-format video segments.

    When a cache plane is attached (``self.cache``), every write and
    delete invalidates the affected segment's cached artifacts — decoded
    frames, memoized operator results, tier placement — so re-ingest and
    erosion can never leave stale cache state behind.
    """

    def __init__(self, kv: KVStore,
                 disk: Union[DiskModel, ShardedDiskArray] = DEFAULT_DISK):
        self.kv = kv
        self.disk = disk
        #: The sharded storage plane, when one backs this store.  A plain
        #: DiskModel keeps the pre-sharding single-spindle behavior.
        self.array: Optional[ShardedDiskArray] = (
            disk if isinstance(disk, ShardedDiskArray) else None
        )
        self.cache = None  # Optional[repro.cache.plane.CachePlane]
        self._footprint: Dict[Tuple[str, str], int] = {}
        self._count: Dict[Tuple[str, str], int] = {}
        self._rollback_uncommitted()
        self._load_footprints()

    def _data_keys(self, prefix: str = "") -> List[str]:
        """All segment keys (skips the reserved ``__vstore__/`` records)."""
        return [key for key in self.kv.keys(prefix)
                if not key.startswith(_META_PREFIX)]

    def _invalidate_cache(self, stream: str, index: int) -> None:
        if self.cache is not None:
            self.cache.invalidate(stream, index)

    # -- format epochs (crash-safe online evolution) ----------------------------

    @property
    def committed_epoch(self) -> int:
        """The highest format epoch whose segments survive a reopen."""
        blob = self.kv.get_optional(_EPOCH_KEY)
        return 0 if blob is None else int(blob.decode("utf-8"))

    def begin_epoch(self) -> int:
        """The epoch an evolution job should tag its writes with.

        Nothing is persisted here — an interrupted job whose epoch never
        committed simply leaves segments above ``committed_epoch``, which
        the next open rolls back.
        """
        return self.committed_epoch + 1

    def commit_epoch(self, epoch: int) -> None:
        """Persist that every segment of ``epoch`` is complete (flushes).

        After this point a reopen keeps the epoch's segments; before it,
        they are rolled back as half-migrated.
        """
        if epoch < self.committed_epoch:
            raise StorageError(
                f"cannot commit epoch {epoch}: epoch "
                f"{self.committed_epoch} is already committed"
            )
        self.kv.put(_EPOCH_KEY, str(int(epoch)).encode("utf-8"))
        self.kv.flush()

    def _rollback_uncommitted(self) -> None:
        """Drop segments written under an epoch that never committed.

        An interrupted evolution run leaves a half-migrated format: some
        segments re-encoded at epoch N+1, the rest missing.  Serving such
        a format would silently violate the consumers' retrieval contract,
        so every segment tagged above the committed epoch is deleted at
        open — before footprints and shard placements are loaded, as if
        the aborted migration never happened.
        """
        committed = self.committed_epoch
        for key in self._data_keys():
            if self._read_meta(key).get("epoch", 0) > committed:
                self.kv.delete(key)

    def _load_footprints(self) -> None:
        for key in self._data_keys():
            stream, fmt_text, index = self._split_key(key)
            meta = self._read_meta(key)
            bucket = (stream, fmt_text)
            self._footprint[bucket] = (
                self._footprint.get(bucket, 0) + meta["size_bytes"]
            )
            self._count[bucket] = self._count.get(bucket, 0) + 1
            if self.array is not None:
                replicas = meta.get("replicas")
                self.array.adopt(stream, fmt_text, index,
                                 meta["shard"], meta["size_bytes"],
                                 replicas=None if replicas is None
                                 else tuple(replicas))

    @staticmethod
    def _key_text(stream: str, fmt_text: str, index: int) -> str:
        """Assemble a key from an already-escaped format text."""
        return f"{stream}/{fmt_text}/{index:012d}"

    @staticmethod
    def _key(stream: str, fmt: StorageFormat, index: int) -> str:
        return SegmentStore._key_text(stream, _fmt_key(fmt), index)

    @staticmethod
    def _split_key(key: str) -> Tuple[str, str, int]:
        stream, fmt_text, index_text = key.rsplit("/", 2)
        return stream, fmt_text, int(index_text)

    def _read_meta(self, key: str) -> dict:
        blob = self.kv.get(key)
        head, _, _ = blob.partition(_SEPARATOR)
        return json.loads(head.decode("utf-8"))

    # -- writes -----------------------------------------------------------------

    def put(self, encoded: EncodedSegment, *, epoch: Optional[int] = None,
            charge: bool = True) -> None:
        """Store an encoded segment (metadata + optional payload).

        On a sharded store the placement policy assigns (or re-finds) the
        segment's shard; the write is charged to that shard and the shard
        id is persisted in the metadata record so placement survives
        reopen.

        Online evolution tags its writes with the in-flight format
        ``epoch`` (rolled back at open unless committed) and passes
        ``charge=False``: a background job's write time was already paid
        on the executor's channel pools, so charging the clock again here
        would double-count the I/O.
        """
        stream, index = encoded.segment.stream, encoded.segment.index
        if stream.startswith(_META_PREFIX.rstrip("/")):
            raise StorageError(
                f"stream name {stream!r} collides with the reserved "
                f"{_META_PREFIX!r} key prefix"
            )
        shard = 0
        replicas: Tuple[int, ...] = ()
        if self.array is not None:
            fmt_text = _fmt_key(encoded.fmt)
            shard = self.array.place(stream, fmt_text, index,
                                     encoded.size_bytes, encoded.activity)
            if self.array.replication > 1:
                replicas = self.array.replicas(stream, fmt_text, index)
        meta = {
            "size_bytes": encoded.size_bytes,
            "n_frames": encoded.n_frames,
            "activity": encoded.activity,
            "seconds": encoded.segment.seconds,
            "payload": encoded.payload is not None,
            "shard": shard,
        }
        if len(replicas) > 1:
            meta["replicas"] = list(replicas)
        if epoch is not None:
            meta["epoch"] = int(epoch)
        blob = json.dumps(meta).encode("utf-8") + _SEPARATOR
        if encoded.payload is not None:
            blob += encoded.payload
        key = self._key(stream, encoded.fmt, index)
        existed = key in self.kv
        self.kv.put(key, blob)
        if charge:
            if self.array is not None:
                # A replicated write pays every copy's spindle.
                for target in replicas or (shard,):
                    self.array.write_at(target, encoded.size_bytes)
            else:
                self.disk.write(encoded.size_bytes)
        self._invalidate_cache(encoded.segment.stream, encoded.segment.index)
        bucket = (encoded.segment.stream, _fmt_key(encoded.fmt))
        if existed:
            # Overwrite: footprint was already counted; recompute lazily.
            self._footprint[bucket] = self._recount_footprint(bucket)
            self._count[bucket] = sum(
                1 for _ in self.kv.keys(f"{bucket[0]}/{bucket[1]}/")
            )
        else:
            self._footprint[bucket] = self._footprint.get(bucket, 0) + encoded.size_bytes
            self._count[bucket] = self._count.get(bucket, 0) + 1

    def _recount_footprint(self, bucket: Tuple[str, str]) -> int:
        prefix = f"{bucket[0]}/{bucket[1]}/"
        return sum(self._read_meta(k)["size_bytes"] for k in self.kv.keys(prefix))

    # -- reads ------------------------------------------------------------------

    def _require(self, stream: str, fmt: StorageFormat, index: int) -> str:
        """The segment's key, or a StorageError naming what is missing.

        Guards every point lookup so a missing segment surfaces as a
        store-level error naming (stream, format, index) instead of
        leaking the KV backend's raw-key error.
        """
        key = self._key(stream, fmt, index)
        if key not in self.kv:
            raise StorageError(
                f"no stored segment: stream={stream!r} "
                f"format={fmt.label!r} index={index}"
            )
        return key

    def meta(self, stream: str, fmt: StorageFormat, index: int) -> StoredSegment:
        """Fetch one segment's metadata (charges no disk time: reads are
        the executor's retrieve tasks).

        On a sharded store the reported shard is the array's *effective*
        assignment, not the raw persisted field — a store written on a
        wider array folds onto the current shard count at open, and the
        metadata record may still carry the out-of-range original.
        """
        key = self._require(stream, fmt, index)
        meta = self._read_meta(key)
        if self.array is not None:
            shard = self.shard_of(stream, fmt, index)
        else:
            shard = meta["shard"]
        return StoredSegment(
            stream=stream,
            index=index,
            fmt=fmt,
            size_bytes=meta["size_bytes"],
            n_frames=meta["n_frames"],
            activity=meta["activity"],
            seconds=meta["seconds"],
            has_payload=meta["payload"],
            shard=shard,
        )

    def contains(self, stream: str, fmt: StorageFormat, index: int) -> bool:
        return self._key(stream, fmt, index) in self.kv

    def payload(self, stream: str, fmt: StorageFormat, index: int) -> Optional[bytes]:
        """The raw payload bytes of a materialized segment, if present."""
        blob = self.kv.get(self._require(stream, fmt, index))
        _, _, body = blob.partition(_SEPARATOR)
        return body or None

    def indices(self, stream: str, fmt: StorageFormat) -> List[int]:
        """Sorted indices of stored segments for (stream, format)."""
        prefix = f"{stream}/{_fmt_key(fmt)}/"
        return [self._split_key(k)[2] for k in self.kv.keys(prefix)]

    def formats(self, stream: str) -> List[StorageFormat]:
        """All storage formats holding at least one segment of ``stream``."""
        seen = {}
        for key in self.kv.keys(f"{stream}/"):
            _, fmt_text, _ = self._split_key(key)
            seen.setdefault(fmt_text, _parse_fmt(fmt_text))
        return list(seen.values())

    def streams(self) -> List[str]:
        """Sorted stream names with at least one stored segment."""
        return sorted({stream for stream, _ in self._footprint})

    # -- deletes ------------------------------------------------------------------

    def delete(self, stream: str, fmt: StorageFormat, index: int) -> bool:
        """Delete one segment (erosion executes through this)."""
        key = self._key(stream, fmt, index)
        if key not in self.kv:
            return False
        size = self._read_meta(key)["size_bytes"]
        self.kv.delete(key)
        if self.array is not None:
            self.array.forget(stream, _fmt_key(fmt), index)
        self._invalidate_cache(stream, index)
        bucket = (stream, _fmt_key(fmt))
        remaining = self._count.get(bucket, 0) - 1
        if remaining <= 0:
            # Prune the emptied bucket: a long-lived store aging footage
            # away must not accumulate zero-byte accounting entries.
            self._footprint.pop(bucket, None)
            self._count.pop(bucket, None)
        else:
            self._footprint[bucket] = self._footprint.get(bucket, 0) - size
            self._count[bucket] = remaining
        return True

    # -- accounting -------------------------------------------------------------------

    def footprint(self, stream: str, fmt: Optional[StorageFormat] = None) -> int:
        """Stored bytes for a stream, optionally limited to one format."""
        if fmt is not None:
            return self._footprint.get((stream, _fmt_key(fmt)), 0)
        return sum(
            size for (s, _), size in self._footprint.items() if s == stream
        )

    def segment_count(self, stream: str, fmt: StorageFormat) -> int:
        return self._count.get((stream, _fmt_key(fmt)), 0)

    def total_bytes(self) -> int:
        """Stored bytes across all streams and formats."""
        return sum(self._footprint.values())

    # -- sharding ---------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return 1 if self.array is None else self.array.n_shards

    def shard_of(self, stream: str, fmt: StorageFormat, index: int) -> int:
        """The shard a segment's *reads* route to (0 on unsharded stores).

        On a healthy array this is the placed primary.  Under shard
        failures it is the fastest surviving replica, and a segment whose
        every replica was destroyed raises
        :class:`~repro.errors.ReplicaUnavailableError` — the data is gone.
        """
        if self.array is None:
            return 0
        shard = self.array.effective_read_shard(stream, _fmt_key(fmt), index)
        return 0 if shard is None else shard

    def disk_params_for(self, stream: str, fmt: StorageFormat,
                        index: int) -> Tuple[float, float]:
        """(read bandwidth, request overhead) serving one segment's reads.

        Routes through :meth:`shard_of`, so a degraded shard's factor is
        folded into the bandwidth and failed shards are bypassed.
        """
        if self.array is not None:
            return self.array.read_params_at(self.shard_of(stream, fmt, index))
        return self.disk.read_bandwidth, self.disk.request_overhead

    def commit_replica(self, stream: str, fmt_text: str, index: int,
                       shard: int) -> None:
        """Record a rebuilt replica and persist it, without charging I/O.

        The background re-replication path: a rebuild job's read and write
        tasks already paid their time on the executor's channel pools, so
        when the copy completes only the bookkeeping remains — the array's
        replica map and the metadata record's shard/replica fields.
        """
        if self.array is None:
            return
        self.array.add_replica(stream, fmt_text, index, shard)
        key = self._key_text(stream, fmt_text, index)
        blob = self.kv.get(key)
        head, _, body = blob.partition(_SEPARATOR)
        meta = json.loads(head.decode("utf-8"))
        replicas = self.array.replicas(stream, fmt_text, index)
        meta["shard"] = replicas[0]
        meta["replicas"] = list(replicas)
        self.kv.put(key, json.dumps(meta).encode("utf-8") + _SEPARATOR + body)

    def rebalance(self) -> RebalanceReport:
        """Move segments between shards until byte loads are balanced.

        Applies the greedy plan of
        :func:`~repro.storage.sharding.plan_rebalance`: each move charges
        the migration I/O (source read + destination write) to the clock
        and rewrites the segment's metadata record with its new shard (and
        replica set), so the placement survives reopen.  On a replicated
        store every copy counts toward its shard's load, and a primary
        never moves onto a shard already holding one of its copies.  Failed
        shards take no part: the plan runs over the surviving ones.
        Cached decoded frames and results stay valid — the bytes did not
        change, only their spindle.

        No-op (empty report) on unsharded and single-shard stores.
        """
        if self.array is None or self.array.n_shards <= 1:
            return RebalanceReport(
                moves=0, bytes_moved=0.0, seconds=0.0,
                imbalance_before=0.0, imbalance_after=0.0,
            )
        array = self.array
        before = array.byte_imbalance
        usable = [i for i in range(array.n_shards) if not array.is_failed(i)]
        moves = plan_rebalance(array.assignments(), usable,
                               array.replica_assignments())
        seconds = 0.0
        bytes_moved = 0.0
        for (stream, fmt_text, index), src, dst in moves:
            key = self._key_text(stream, fmt_text, index)
            blob = self.kv.get(key)
            head, _, body = blob.partition(_SEPARATOR)
            meta = json.loads(head.decode("utf-8"))
            nbytes = meta["size_bytes"]
            seconds += array.migrate(src, dst, nbytes)
            array.reassign(stream, fmt_text, index, dst)
            meta["shard"] = dst
            if "replicas" in meta:
                meta["replicas"] = list(
                    array.replicas(stream, fmt_text, index)
                )
            self.kv.put(key, json.dumps(meta).encode("utf-8")
                        + _SEPARATOR + body)
            bytes_moved += nbytes
        return RebalanceReport(
            moves=len(moves), bytes_moved=bytes_moved, seconds=seconds,
            imbalance_before=before, imbalance_after=array.byte_imbalance,
        )
