"""Reader parity oracles: the scalar segment assessment and the charged read.

``SegmentReader`` costs a stage's segments in one vectorized pass
(:meth:`~repro.retrieval.reader.SegmentReader.assess_many`), and the
executor charges those costs when its retrieve tasks run.  The per-segment
code both replaced lives here verbatim, as functions taking the reader
(or the cache plane) as ``self``:

* :func:`assess` is the scalar cost arithmetic ``assess_many`` must match
  bit for bit (``tests/test_retrieval.py``);
* :func:`read` is the immediate-execution read the sequential oracle
  (:func:`~oracles.executor._execute_sequential`) streams through: it
  charges a clock directly, with the decoded-frame cache's hit/miss
  charging of :func:`serve_retrieval`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.plane import CachePlane, RetrievalAccess
from repro.clock import SimClock
from repro.codec.chunks import decoded_frame_count
from repro.codec.model import DEFAULT_CODEC
from repro.retrieval.reader import RetrievedClip, SegmentReader

__all__ = ["assess", "assess_cached", "read", "serve_retrieval"]


def assess(self: SegmentReader, stream: str, index: int) -> RetrievedClip:
    """Compute one segment's retrieval outcome without charging time.

    The concurrent executor plans retrieval tasks with this and charges
    the clock itself when the simulated disk/decoder actually serves
    them; :meth:`read` is ``assess`` plus an immediate charge.
    """
    stride = DEFAULT_CODEC.consumer_stride(
        self.fmt.fidelity, self.consumer_fidelity.sampling
    )
    meta = self.store.meta(stream, self.fmt, index)
    if self.fmt.is_raw:
        # Raw path: sampled frames can be read individually from disk
        # (Table 3 note 2); a full scan streams the segment sequentially.
        n_stored = max(1, meta.n_frames)
        consumed = len(range(0, n_stored, stride))
        frame_bytes = DEFAULT_CODEC.raw_frame_bytes(self.fmt.fidelity)
        bandwidth, overhead = self._disk_params(stream, index)
        # Either scan the whole segment sequentially or read sampled
        # frames individually, whichever is cheaper (cf. DiskModel).
        scan = (n_stored * frame_bytes / bandwidth + overhead)
        sparse = (consumed * frame_bytes / bandwidth
                  + consumed * overhead)
        seconds = min(scan, sparse)
        return RetrievedClip(
            stored=meta,
            consumer_fidelity=self.consumer_fidelity,
            n_frames=consumed,
            retrieval_seconds=seconds,
        )

    n_decoded = decoded_frame_count(
        meta.n_frames, stride, self.fmt.coding.keyframe_interval
    )
    consumed = len(range(0, meta.n_frames, stride))
    seconds = n_decoded * DEFAULT_CODEC.decode_frame_seconds(
        self.fmt.fidelity, self.fmt.coding
    )
    return RetrievedClip(
        stored=meta,
        consumer_fidelity=self.consumer_fidelity,
        n_frames=consumed,
        retrieval_seconds=seconds,
    )


def assess_cached(
    self: SegmentReader, stream: str, index: int
) -> Tuple[RetrievedClip, Optional[RetrievalAccess]]:
    """:func:`assess` plus the decoded-frame-cache view — the scalar
    counterpart of ``SegmentReader.assess_cached_many``."""
    return self._with_access(stream, index, assess(self, stream, index))


def read(self: SegmentReader, stream: str, index: int,
         clock: SimClock) -> RetrievedClip:
    """Retrieve one segment, charging decode or disk time.

    With a cache plane attached, a decoded-frame hit charges the RAM
    cost to the ``"cache"`` category instead, and a miss inserts the
    decoded frames for the next reader.
    """
    retrieved, access = assess_cached(self, stream, index)
    if access is None:
        clock.charge(retrieved.retrieval_seconds, self.category)
        return retrieved
    if not serve_retrieval(self.cache, clock, access):
        clock.charge(access.full_seconds, self.category)
    return retrieved


def serve_retrieval(self: CachePlane, clock: SimClock,
                    access: RetrievalAccess) -> bool:
    """Immediate-execution read path: serve one decoded-frame access.

    A hit charges the RAM cost to ``"cache"`` and is recorded; a miss
    commits the decoded frames and returns ``False`` — the caller
    charges its own full retrieval cost.
    """
    self.note_access(access)
    if access.hit:
        clock.charge(access.hit_seconds, "cache")
        self.record_frame_hit(access)
        return True
    self.commit_frames(access)
    return False
