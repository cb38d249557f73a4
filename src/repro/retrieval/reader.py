"""Segment reader: costs the retrieval of stored video for one consumer.

Queries read video only through the concurrent executor: for each
requested segment the reader works out what retrieving the stored version
takes — decoding it (encoded formats) or reading sampled frames from disk
(raw formats) — and reports the frames delivered and the simulated seconds
spent.  ``QueryEngine.plan`` turns those costs into retrieve tasks, and the
executor charges them when its disk/decoder pools serve the tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.plane import CachePlane, RetrievalAccess
from repro.codec.chunks import decoded_frame_count
from repro.codec.model import DEFAULT_CODEC
from repro.errors import StorageError
from repro.storage.disk import raw_read_seconds
from repro.storage.segment_store import (  # noqa: F401
    SegmentStore,
    StoredSegment,
    _fmt_key,
)
from repro.video.fidelity import Fidelity
from repro.video.format import StorageFormat


@dataclass(frozen=True)
class RetrievedClip:
    """Outcome of retrieving one segment for one consumer."""

    stored: StoredSegment
    consumer_fidelity: Fidelity
    n_frames: int  # frames delivered to the consumer
    retrieval_seconds: float  # simulated time spent retrieving


class SegmentReader:
    """Reads segments of one storage format for one consumer fidelity."""

    def __init__(
        self,
        store: SegmentStore,
        fmt: StorageFormat,
        consumer_fidelity: Fidelity,
        cache: Optional[CachePlane] = None,
    ):
        if not fmt.fidelity.richer_equal(consumer_fidelity):
            raise StorageError(
                f"storage format {fmt.label} cannot supply fidelity "
                f"{consumer_fidelity.label} (requirement R1)"
            )
        self.store = store
        self.fmt = fmt
        self.consumer_fidelity = consumer_fidelity
        self.cache = cache

    @property
    def category(self) -> str:
        """Clock category this reader's retrieve tasks charge to."""
        return "disk" if self.fmt.is_raw else "decode"

    def assess_many(self, stream: str,
                    indices: Sequence[int]) -> List[RetrievedClip]:
        """Cost a batch of segments: one NumPy pass over per-segment arrays.

        ``QueryEngine.plan`` assesses every active segment of a stage at
        once; doing the cost arithmetic per segment in Python made plan
        assembly a per-segment interpreter loop.  This builds the frame
        counts and retrieval seconds as float64 arrays in one shot —
        elementwise, with the exact operation order of the scalar
        per-segment reference (``assess`` in ``tests/oracles/reader.py``),
        so the results are bit-identical (the parity tests in
        ``tests/test_retrieval.py`` hold it to that, on one-shard,
        sharded and tiered stores).
        """
        if not indices:
            return []
        stride = DEFAULT_CODEC.consumer_stride(
            self.fmt.fidelity, self.consumer_fidelity.sampling
        )
        metas = [self.store.meta(stream, self.fmt, i) for i in indices]
        n_frames = np.asarray([m.n_frames for m in metas], dtype=np.int64)
        if self.fmt.is_raw:
            n_stored = np.maximum(1, n_frames)
            consumed = -(-n_stored // stride)  # == len(range(0, n, stride))
            frame_bytes = DEFAULT_CODEC.raw_frame_bytes(self.fmt.fidelity)
            params = [self._disk_params(stream, i) for i in indices]
            seconds = raw_read_seconds(
                n_stored, consumed, frame_bytes,
                np.asarray([p[0] for p in params]),
                np.asarray([p[1] for p in params]),
            )
        else:
            kf = self.fmt.coding.keyframe_interval
            # decoded_frame_count is exact integer accounting; segments
            # overwhelmingly share a frame count, so one evaluation per
            # distinct count covers the whole batch.
            per_count = {
                n: decoded_frame_count(n, stride, kf)
                for n in set(n_frames.tolist())
            }
            n_decoded = np.asarray(
                [per_count[n] for n in n_frames.tolist()], dtype=np.int64
            )
            consumed = -(-n_frames // stride)
            seconds = n_decoded * DEFAULT_CODEC.decode_frame_seconds(
                self.fmt.fidelity, self.fmt.coding
            )
        return [
            RetrievedClip(
                stored=meta,
                consumer_fidelity=self.consumer_fidelity,
                n_frames=n,
                retrieval_seconds=s,
            )
            for meta, n, s in zip(metas, consumed.tolist(), seconds.tolist())
        ]

    def _disk_params(self, stream: str, index: int) -> Tuple[float, float]:
        """(bandwidth, request overhead) serving this segment's raw reads.

        These are the serving shard's parameters (see
        :mod:`repro.storage.sharding`); hot segments promoted to the fast
        tier (:mod:`repro.cache.tiers`) stream at fast-tier bandwidth.
        """
        bandwidth, overhead = self.store.disk_params_for(
            stream, self.fmt, index
        )
        if self.cache is not None and self.cache.tiers is not None:
            return self.cache.tiers.read_params(
                stream, index, bandwidth, overhead,
            )
        return bandwidth, overhead

    def assess_cached_many(
        self, stream: str, indices: Sequence[int]
    ) -> List[Tuple[RetrievedClip, Optional[RetrievalAccess]]]:
        """:meth:`assess_many` plus each segment's decoded-frame-cache view.

        On a (committed) cache hit the clip's retrieval cost becomes the
        RAM-tier cost; each returned :class:`RetrievalAccess` carries the
        key, both costs, and the entry size, so the executor can commit a
        miss when its retrieval task actually completes in simulated time
        — and deduplicate identical in-flight misses (single-flight).
        Without a cache plane every access is ``None``.
        """
        clips = self.assess_many(stream, indices)
        return [
            self._with_access(stream, index, clip)
            for index, clip in zip(indices, clips)
        ]

    def _with_access(
        self, stream: str, index: int, retrieved: RetrievedClip
    ) -> Tuple[RetrievedClip, Optional[RetrievalAccess]]:
        """Attach the decoded-frame-cache view to one assessed clip."""
        if self.cache is None:
            return retrieved, None
        key = self.cache.frame_key(stream, index, self.fmt.label,
                                   self.consumer_fidelity.label)
        nbytes = (retrieved.n_frames
                  * DEFAULT_CODEC.raw_frame_bytes(self.consumer_fidelity))
        # peek, not get: planning is side-effect-free — hit/miss counters
        # move when the retrieval is actually served on the clock.
        access = RetrievalAccess(
            key=key,
            hit=self.cache.frames.peek(key) is not None,
            full_seconds=retrieved.retrieval_seconds,
            hit_seconds=self.cache.hit_seconds(nbytes),
            nbytes=nbytes,
            stored_bytes=float(retrieved.stored.size_bytes),
            raw_fmt=_fmt_key(self.fmt) if self.fmt.is_raw else None,
        )
        if access.hit:
            retrieved = RetrievedClip(
                stored=retrieved.stored,
                consumer_fidelity=retrieved.consumer_fidelity,
                n_frames=retrieved.n_frames,
                retrieval_seconds=access.hit_seconds,
            )
        return retrieved, access
