"""An embedded key-value store standing in for LMDB (Section 5).

The store keeps one append-only log file plus an in-memory index mapping
keys to (offset, length) of their latest value.  This gives the properties
VStore needs from its backend:

* values of MB size are first-class;
* O(1) point lookups once the index is loaded;
* deletes via tombstones;
* durability: the index is rebuilt by scanning the log on open;
* ``compact()`` rewrites only live records to reclaim space.

Record layout (little endian)::

    magic u32 | key_len u32 | val_len u64 | crc32 u32 | key | value

A tombstone is a record whose ``val_len`` field is ``TOMBSTONE``.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import StorageError

_MAGIC = 0x56535452  # "VSTR"
_HEADER = struct.Struct("<IIQI")
TOMBSTONE = 0xFFFFFFFFFFFFFFFF


class KVStore:
    """A durable embedded key-value store over a single log file."""

    def __init__(self, path: str):
        self.path = path
        self._index: Dict[bytes, Tuple[int, int]] = {}  # key -> (val_off, val_len)
        self._live_bytes = 0
        #: Recovery counters, accumulated across every index (re)build on
        #: this handle: how many torn tails were truncated, how many bytes
        #: each truncation dropped, and how many live bytes the last scan
        #: recovered — silent log repair made visible (the metrics
        #: registry exports them, see ``MetricsRegistry.observe_kvstore``).
        self.torn_truncations = 0
        self.dropped_bytes = 0
        self.recovered_bytes = 0
        self._file = open(path, "a+b")
        self._load_index()

    # -- lifecycle -------------------------------------------------------------

    def _load_index(self) -> None:
        """Rebuild the in-memory index by scanning the log.

        A *trailing* partial record — the signature of a crash mid-write —
        is recovered from by truncating the torn tail; corruption anywhere
        before the tail is an integrity error and raises.
        """
        self._index.clear()
        self._live_bytes = 0
        self._file.seek(0)
        offset = 0
        size = os.fstat(self._file.fileno()).st_size
        while offset + _HEADER.size <= size:
            header = self._read_at(offset, _HEADER.size)
            magic, key_len, val_len, crc = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise StorageError(f"{self.path}: corrupt record at offset {offset}")
            key_off = offset + _HEADER.size
            if key_off + key_len > size:
                self._truncate_torn_tail(offset)
                size = offset
                break
            key = self._read_at(key_off, key_len)
            if val_len == TOMBSTONE:
                old = self._index.pop(key, None)
                if old is not None:
                    self._live_bytes -= old[1]
                offset = key_off + key_len
                continue
            if key_off + key_len + val_len > size:
                self._truncate_torn_tail(offset)
                size = offset
                break
            old = self._index.get(key)
            if old is not None:
                self._live_bytes -= old[1]
            self._index[key] = (key_off + key_len, val_len)
            self._live_bytes += val_len
            offset = key_off + key_len + val_len
        if offset < size and size - offset < _HEADER.size:
            # Fewer bytes than a header can hold: also a torn tail.
            self._truncate_torn_tail(offset)
        # Live bytes that survived this scan — alongside the truncation
        # counters, the "what did recovery keep" half of the story.
        self.recovered_bytes = self._live_bytes
        self._file.seek(0, os.SEEK_END)

    def _truncate_torn_tail(self, offset: int) -> None:
        """Drop a partially written trailing record (crash recovery)."""
        size = os.fstat(self._file.fileno()).st_size
        self.torn_truncations += 1
        self.dropped_bytes += max(0, size - offset)
        self._file.truncate(offset)
        self._file.flush()

    def close(self) -> None:
        """Flush and close the log file; the store can be reopened later."""
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def flush(self) -> None:
        """Push buffered writes to the OS (no fsync)."""
        if not self._file.closed:
            self._file.flush()

    def reopen_after_fork(self) -> None:
        """Give this (child) process its own file handle.

        A forked handle shares one seek offset with every sibling, so
        concurrent ``seek``+``read`` across workers would race.  The
        parent must :meth:`flush` before forking; the inherited handle is
        then closed here with an empty buffer (harmless — closing a
        child's fd never disturbs the parent's) and replaced by a fresh
        one with a private offset.  The in-memory index carries over.
        """
        if not self._file.closed:
            self._file.close()
        self._file = open(self.path, "a+b")

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- raw I/O -----------------------------------------------------------------

    def _read_at(self, offset: int, length: int) -> bytes:
        self._file.seek(offset)
        data = self._file.read(length)
        if len(data) != length:
            raise StorageError(f"{self.path}: short read at offset {offset}")
        return data

    def _append(self, key: bytes, value: Optional[bytes]) -> int:
        """Append a record (or a tombstone when value is None); returns the
        absolute offset of the value within the file."""
        self._file.seek(0, os.SEEK_END)
        offset = self._file.tell()
        val = value if value is not None else b""
        val_len = len(val) if value is not None else TOMBSTONE
        crc = zlib.crc32(key + val)
        self._file.write(_HEADER.pack(_MAGIC, len(key), val_len, crc))
        self._file.write(key)
        if value is not None:
            self._file.write(val)
        return offset + _HEADER.size + len(key)

    # -- public API ----------------------------------------------------------------

    def put(self, key: str, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        kb = key.encode("utf-8")
        old = self._index.get(kb)
        val_off = self._append(kb, value)
        if old is not None:
            self._live_bytes -= old[1]
        self._index[kb] = (val_off, len(value))
        self._live_bytes += len(value)

    def get(self, key: str, verify: bool = False) -> bytes:
        """Fetch the latest value of ``key``; raises StorageError if absent.

        With ``verify`` the record's CRC32 is rechecked, catching on-disk
        bit rot at the cost of re-reading the record header.
        """
        kb = key.encode("utf-8")
        entry = self._index.get(kb)
        if entry is None:
            raise StorageError(f"key not found: {key!r}")
        value = self._read_at(*entry)
        if verify:
            header_off = entry[0] - len(kb) - _HEADER.size
            header = self._read_at(header_off, _HEADER.size)
            _, _, _, crc = _HEADER.unpack(header)
            if zlib.crc32(kb + value) != crc:
                raise StorageError(f"checksum mismatch for key {key!r}")
        return value

    def get_optional(self, key: str) -> Optional[bytes]:
        """Fetch ``key`` or return None when absent."""
        entry = self._index.get(key.encode("utf-8"))
        return None if entry is None else self._read_at(*entry)

    def delete(self, key: str) -> bool:
        """Delete ``key``; returns False when it was not present."""
        kb = key.encode("utf-8")
        old = self._index.pop(kb, None)
        if old is None:
            return False
        self._append(kb, None)
        self._live_bytes -= old[1]
        return True

    def __contains__(self, key: str) -> bool:
        return key.encode("utf-8") in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self, prefix: str = "") -> Iterator[str]:
        """All live keys with the given prefix, in sorted order."""
        pb = prefix.encode("utf-8")
        for kb in sorted(self._index):
            if kb.startswith(pb):
                yield kb.decode("utf-8")

    # -- batched writes ----------------------------------------------------------------

    def write_batch(self, puts: Dict[str, bytes],
                    deletes: Iterable[str] = ()) -> None:
        """Apply several writes as one crash-consistent unit.

        Records are appended value-first and the batch is flushed once; a
        crash mid-batch leaves at most a torn tail, which reopening
        truncates — so the paper's per-segment fan-out (one segment, many
        storage formats) lands atomically enough for recovery.
        """
        for key, value in puts.items():
            self.put(key, value)
        for key in deletes:
            self.delete(key)
        self._file.flush()
        os.fsync(self._file.fileno())

    # -- maintenance ------------------------------------------------------------------

    @property
    def live_bytes(self) -> int:
        """Bytes of live values (excluding headers and dead records)."""
        return self._live_bytes

    @property
    def file_bytes(self) -> int:
        """Total size of the log file, including garbage."""
        self._file.flush()
        return os.fstat(self._file.fileno()).st_size

    def compact(self) -> int:
        """Rewrite only live records; returns bytes reclaimed."""
        before = self.file_bytes
        tmp_path = self.path + ".compact"
        with open(tmp_path, "wb") as out:
            new_index: Dict[bytes, Tuple[int, int]] = {}
            for kb in sorted(self._index):
                val = self._read_at(*self._index[kb])
                offset = out.tell()
                out.write(_HEADER.pack(_MAGIC, len(kb), len(val),
                                       zlib.crc32(kb + val)))
                out.write(kb)
                out.write(val)
                new_index[kb] = (offset + _HEADER.size + len(kb), len(val))
        self._file.close()
        os.replace(tmp_path, self.path)
        self._file = open(self.path, "a+b")
        self._index = new_index
        return before - self.file_bytes
