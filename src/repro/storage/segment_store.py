"""Segment store: the video index built on the key-value backend.

Keys are ``{stream}/{format-label}/{segment-index}``.  Each value is a small
JSON metadata record optionally followed by the segment payload.

The log is the only durable truth, but lookups do not decode it: the
store keeps *books* in memory, one decoded record per key, grouped per
(stream, format) with the group's byte total.  The one scan at open
builds them (the paper's VStore reads its LMDB index through a memory
map; this stand-in decodes each record once instead of once per lookup).
Every writer — ``put``, ``delete``, ``commit_replica``, ``rebalance`` and
the epoch rollback at open — updates them in the same call that appends
to the log, so ``meta``, ``indices``, ``formats``, ``segment_count``,
``footprint`` and ``total_bytes`` answer from memory and equal, value and
type alike, what decoding the log returns.  The log is read back only
for a payload: ``payload()``, and the rewrite of a materialized record.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple
from urllib.parse import quote, unquote

from repro.codec.encoder import EncodedSegment
from repro.errors import StorageError
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
    shard: int = 0  # disk shard serving the segment's reads

    @property
    def segment(self) -> Segment:
        return Segment(self.stream, self.index, self.seconds)


class _Record(NamedTuple):
    """One segment's metadata record, decoded: what the log's JSON holds.

    ``shard`` and ``replicas`` are the persisted placement (the array's
    effective routing may differ, see :meth:`SegmentStore.meta`);
    ``replicas`` is ``None`` when the record lists no copy set and
    ``epoch`` ``None`` when it carries no epoch tag.  ``late_replicas``
    keeps the record's key order: a copy set that ``commit_replica``
    added to an epoch-tagged record follows the epoch.
    """

    size_bytes: int
    n_frames: int
    activity: float
    seconds: float
    payload: bool
    shard: int
    replicas: Optional[Tuple[int, ...]]
    epoch: Optional[int]
    late_replicas: bool = False


def _logged(value):
    """A scalar as decoding its JSON text returns it (a float subclass
    such as ``numpy.float64`` reads back as a plain ``float``)."""
    return float(value) if isinstance(value, float) else value


def _encode(record: _Record) -> bytes:
    """The record's JSON head and separator, as the log stores them."""
    meta = {
        "size_bytes": record.size_bytes,
        "n_frames": record.n_frames,
        "activity": record.activity,
        "seconds": record.seconds,
        "payload": record.payload,
        "shard": record.shard,
    }
    if record.replicas is not None and not record.late_replicas:
        meta["replicas"] = list(record.replicas)
    if record.epoch is not None:
        meta["epoch"] = record.epoch
    if record.late_replicas:
        meta["replicas"] = list(record.replicas)
    return json.dumps(meta).encode("utf-8") + _SEPARATOR


def _decode(blob: bytes) -> _Record:
    head, _, _ = blob.partition(_SEPARATOR)
    meta = json.loads(head.decode("utf-8"))
    replicas = meta.get("replicas")
    epoch = meta.get("epoch")
    late = (replicas is not None and epoch is not None
            and list(meta).index("replicas") > list(meta).index("epoch"))
    return _Record(
        meta["size_bytes"], meta["n_frames"], meta["activity"],
        meta["seconds"], meta["payload"], meta["shard"],
        None if replicas is None else tuple(replicas), epoch, late,
    )


class _Bucket:
    """The books of one (stream, format): records by segment index, and
    their summed size."""

    __slots__ = ("records", "nbytes")

    def __init__(self) -> None:
        self.records: Dict[int, _Record] = {}
        self.nbytes = 0


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

    The segments live on ``array``, a
    :class:`~repro.storage.sharding.ShardedDiskArray`: its placement policy
    picks each segment's shards, writes charge every copy's shard, and the
    metadata record persists the copy set so placement survives reopen.

    When a cache plane is attached (``self.cache``), every write and
    delete invalidates the affected segment's cached artifacts — decoded
    frames, memoized operator results, tier placement — so re-ingest and
    erosion can never leave stale cache state behind.
    """

    def __init__(self, kv: KVStore, array: ShardedDiskArray):
        self.kv = kv
        self.array = array
        self.cache = None  # Optional[repro.cache.plane.CachePlane]
        #: The books: (stream, escaped format text) -> its bucket.  An
        #: emptied bucket is dropped, so a long-lived store aging footage
        #: away keeps no zero-byte entries.
        self._buckets: Dict[Tuple[str, str], _Bucket] = {}
        blob = kv.get_optional(_EPOCH_KEY)
        self._committed = 0 if blob is None else int(blob.decode("utf-8"))
        self._open()

    def _invalidate_cache(self, stream: str, index: int) -> None:
        if self.cache is not None:
            self.cache.invalidate(stream, index)

    # -- format epochs (crash-safe online evolution) ----------------------------

    @property
    def committed_epoch(self) -> int:
        """The highest format epoch whose segments survive a reopen."""
        return self._committed

    def begin_epoch(self) -> int:
        """The epoch an evolution job should tag its writes with.

        Nothing is persisted here — an interrupted job whose epoch never
        committed simply leaves segments above ``committed_epoch``, which
        the next open rolls back.
        """
        return self._committed + 1

    def commit_epoch(self, epoch: int) -> None:
        """Persist that every segment of ``epoch`` is complete (flushes).

        After this point a reopen keeps the epoch's segments; before it,
        they are rolled back as half-migrated.
        """
        if epoch < self._committed:
            raise StorageError(
                f"cannot commit epoch {epoch}: epoch "
                f"{self._committed} is already committed"
            )
        self.kv.put(_EPOCH_KEY, str(int(epoch)).encode("utf-8"))
        self.kv.flush()
        self._committed = int(epoch)

    def _open(self) -> None:
        """Build the books and the array's placements: the one log scan.

        An interrupted evolution run leaves a half-migrated format: some
        segments re-encoded at epoch N+1, the rest missing.  Serving such
        a format would silently violate the consumers' retrieval contract,
        so every segment tagged above the committed epoch is deleted here,
        as if the aborted migration never happened; every other record is
        booked and its persisted copy set adopted by the array.
        """
        for key in self.kv.keys():
            if key.startswith(_META_PREFIX):
                continue
            record = _decode(self.kv.get(key))
            if (record.epoch or 0) > self._committed:
                self.kv.delete(key)
                continue
            stream, fmt_text, index = self._split_key(key)
            self._book(stream, fmt_text, index, record)
            self.array.adopt(stream, fmt_text, index,
                             record.shard, record.size_bytes,
                             replicas=record.replicas or ())

    @staticmethod
    def _key_text(stream: str, fmt_text: str, index: int) -> str:
        """Assemble a key from an already-escaped format text."""
        return f"{stream}/{fmt_text}/{index:012d}"

    @staticmethod
    def _split_key(key: str) -> Tuple[str, str, int]:
        stream, fmt_text, index_text = key.rsplit("/", 2)
        return stream, fmt_text, int(index_text)

    # -- the books --------------------------------------------------------------

    def _book(self, stream: str, fmt_text: str, index: int,
              record: _Record) -> None:
        """Enter (or replace) one key's record."""
        bucket = self._buckets.get((stream, fmt_text))
        if bucket is None:
            bucket = self._buckets[(stream, fmt_text)] = _Bucket()
        old = bucket.records.get(index)
        bucket.records[index] = record
        bucket.nbytes += record.size_bytes - (
            0 if old is None else old.size_bytes)

    def _unbook(self, stream: str, fmt_text: str, index: int) -> None:
        bucket = self._buckets[(stream, fmt_text)]
        record = bucket.records.pop(index)
        if bucket.records:
            bucket.nbytes -= record.size_bytes
        else:
            del self._buckets[(stream, fmt_text)]

    def _record(self, stream: str, fmt_text: str,
                index: int) -> Optional[_Record]:
        bucket = self._buckets.get((stream, fmt_text))
        return None if bucket is None else bucket.records.get(index)

    def _missing(self, stream: str, fmt_text: str,
                 index: int) -> StorageError:
        """The error a lookup of an absent segment raises: it names
        (stream, format, index) instead of leaking the KV backend's
        raw-key error."""
        return StorageError(
            f"no stored segment: stream={stream!r} "
            f"format={_parse_fmt(fmt_text).label!r} index={index}"
        )

    def _require(self, stream: str, fmt_text: str, index: int) -> _Record:
        record = self._record(stream, fmt_text, index)
        if record is None:
            raise self._missing(stream, fmt_text, index)
        return record

    def _rewrite(self, stream: str, fmt_text: str, index: int,
                 old: _Record, record: _Record) -> None:
        """Log a changed record, keeping its payload, and book it."""
        key = self._key_text(stream, fmt_text, index)
        body = (self.kv.get(key).partition(_SEPARATOR)[2]
                if old.payload else b"")
        self.kv.put(key, _encode(record) + body)
        self._book(stream, fmt_text, index, record)

    # -- writes -----------------------------------------------------------------

    def put(self, encoded: EncodedSegment, *, epoch: Optional[int] = None,
            charge: bool = True) -> None:
        """Store an encoded segment (metadata + optional payload).

        The array's placement policy assigns (or re-finds) the segment's
        shard; the write is charged to every copy's shard and the shard
        ids are persisted in the metadata record so placement survives
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
        fmt_text = _fmt_key(encoded.fmt)
        self.array.place(stream, fmt_text, index, encoded.size_bytes,
                         encoded.activity)
        replicas = self.array.replicas(stream, fmt_text, index)
        record = _Record(
            encoded.size_bytes, encoded.n_frames,
            _logged(encoded.activity), _logged(encoded.segment.seconds),
            encoded.payload is not None, replicas[0],
            replicas if len(replicas) > 1 else None,
            None if epoch is None else int(epoch),
        )
        self.kv.put(self._key_text(stream, fmt_text, index),
                    _encode(record) + (encoded.payload or b""))
        if charge:
            # A replicated write pays every copy's spindle.
            for target in replicas:
                self.array.write_at(target, encoded.size_bytes)
        self._invalidate_cache(stream, index)
        self._book(stream, fmt_text, index, record)

    # -- reads ------------------------------------------------------------------

    def meta(self, stream: str, fmt: StorageFormat, index: int) -> StoredSegment:
        """Fetch one segment's metadata from the books (charges no disk
        time: reads are the executor's retrieve tasks).

        The reported shard is the array's *effective* assignment, not the
        raw persisted field — a store written on a wider array folds onto
        the current shard count at open, and the metadata record may
        still carry the out-of-range original.  Under shard failures it
        is the fastest surviving replica (see :meth:`shard_of`), so a
        caller routing this segment's reads takes ``shard`` as it is.
        """
        return self.meta_many(stream, fmt, (index,))[0]

    def meta_many(self, stream: str, fmt: StorageFormat,
                  indices: Sequence[int]) -> List[StoredSegment]:
        """:meth:`meta` of each of ``indices``, in order: the planner looks
        up a stage's segments in one call."""
        fmt_text = _fmt_key(fmt)
        bucket = self._buckets.get((stream, fmt_text))
        records = {} if bucket is None else bucket.records
        route = self.array.effective_read_shard
        out = []
        for index in indices:
            record = records.get(index)
            if record is None:
                raise self._missing(stream, fmt_text, index)
            shard = route(stream, fmt_text, index)
            out.append(StoredSegment(
                stream, index, fmt, record.size_bytes, record.n_frames,
                record.activity, record.seconds, record.payload,
                0 if shard is None else shard,
            ))
        return out

    def contains(self, stream: str, fmt: StorageFormat, index: int) -> bool:
        return self._record(stream, _fmt_key(fmt), index) is not None

    def payload(self, stream: str, fmt: StorageFormat, index: int) -> Optional[bytes]:
        """The raw payload bytes of a materialized segment, if present
        (read back from the log)."""
        fmt_text = _fmt_key(fmt)
        self._require(stream, fmt_text, index)
        blob = self.kv.get(self._key_text(stream, fmt_text, index))
        _, _, body = blob.partition(_SEPARATOR)
        return body or None

    def indices(self, stream: str, fmt: StorageFormat) -> List[int]:
        """Sorted indices of stored segments for (stream, format)."""
        bucket = self._buckets.get((stream, _fmt_key(fmt)))
        return [] if bucket is None else sorted(bucket.records)

    def formats(self, stream: str) -> List[StorageFormat]:
        """All storage formats holding at least one segment of ``stream``,
        in key order."""
        texts = sorted((fmt_text for s, fmt_text in self._buckets
                        if s == stream), key=lambda text: text + "/")
        return [_parse_fmt(text) for text in texts]

    def streams(self) -> List[str]:
        """Sorted stream names with at least one stored segment."""
        return sorted({stream for stream, _ in self._buckets})

    # -- deletes ------------------------------------------------------------------

    def delete(self, stream: str, fmt: StorageFormat, index: int) -> bool:
        """Delete one segment (erosion executes through this)."""
        fmt_text = _fmt_key(fmt)
        if self._record(stream, fmt_text, index) is None:
            return False
        self.kv.delete(self._key_text(stream, fmt_text, index))
        self.array.forget(stream, fmt_text, index)
        self._invalidate_cache(stream, index)
        self._unbook(stream, fmt_text, index)
        return True

    # -- accounting -------------------------------------------------------------------

    def footprint(self, stream: str, fmt: Optional[StorageFormat] = None) -> int:
        """Stored bytes for a stream, optionally limited to one format."""
        if fmt is not None:
            bucket = self._buckets.get((stream, _fmt_key(fmt)))
            return 0 if bucket is None else bucket.nbytes
        return sum(bucket.nbytes for (s, _), bucket in self._buckets.items()
                   if s == stream)

    def segment_count(self, stream: str, fmt: StorageFormat) -> int:
        bucket = self._buckets.get((stream, _fmt_key(fmt)))
        return 0 if bucket is None else len(bucket.records)

    def total_bytes(self) -> int:
        """Stored bytes across all streams and formats."""
        return sum(bucket.nbytes for bucket in self._buckets.values())

    # -- sharding ---------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.array.n_shards

    def shard_of(self, stream: str, fmt: StorageFormat, index: int) -> int:
        """The shard a segment's *reads* route to.

        On a healthy array this is the placed primary.  Under shard
        failures it is the fastest surviving replica, and a segment whose
        every replica was destroyed raises
        :class:`~repro.errors.ReplicaUnavailableError` — the data is gone.
        """
        shard = self.array.effective_read_shard(stream, _fmt_key(fmt), index)
        return 0 if shard is None else shard

    def commit_replica(self, stream: str, fmt_text: str, index: int,
                       shard: int) -> None:
        """Record a rebuilt replica and persist it, without charging I/O.

        The background re-replication path: a rebuild job's read and write
        tasks already paid their time on the executor's channel pools, so
        when the copy completes only the bookkeeping remains — the array's
        replica map and the metadata record's shard/replica fields.
        """
        self.array.add_replica(stream, fmt_text, index, shard)
        old = self._require(stream, fmt_text, index)
        replicas = self.array.replicas(stream, fmt_text, index)
        self._rewrite(stream, fmt_text, index, old, old._replace(
            shard=replicas[0], replicas=replicas,
            late_replicas=old.late_replicas or (
                old.replicas is None and old.epoch is not None),
        ))

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

        No-op (empty report) on single-shard stores.
        """
        if self.array.n_shards <= 1:
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
            old = self._require(stream, fmt_text, index)
            nbytes = old.size_bytes
            seconds += array.migrate(src, dst, nbytes)
            array.reassign(stream, fmt_text, index, dst)
            replicas = old.replicas
            if replicas is not None:
                replicas = array.replicas(stream, fmt_text, index)
            self._rewrite(stream, fmt_text, index, old,
                          old._replace(shard=dst, replicas=replicas))
            bytes_moved += nbytes
        return RebalanceReport(
            moves=len(moves), bytes_moved=bytes_moved, seconds=seconds,
            imbalance_before=before, imbalance_after=array.byte_imbalance,
        )
