"""Disk bandwidth/seek model and the store's one I/O cost formula
(Section 2.2).

The paper's platform has an HDD array sustaining ~1 GB/s sequential reads;
decoding throughput (tens of MB/s) is far below that, so the disk only
becomes the bottleneck when loading raw frames.  This model preserves that
distinction: sequential segment reads are bandwidth-bound, sparse raw-frame
sampling pays a per-request overhead.

Every simulated I/O second in the store is :func:`transfer_seconds` (bytes
over bandwidth plus one overhead per request), and every raw-frame read is
:func:`raw_read_seconds` on top of it.  :class:`DiskModel` is one spindle's
envelope plus the planner's two speed estimates; I/O is charged through the
:class:`~repro.storage.sharding.ShardedDiskArray` owning the spindle, which
folds shard health in once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from repro.units import GB, SEGMENT_SECONDS
from repro.video.fidelity import Fidelity


def transfer_seconds(nbytes, bandwidth, overhead, requests=1):
    """Seconds to move ``nbytes`` at ``bandwidth`` bytes/s in ``requests``
    requests of ``overhead`` seconds each; scalars or float64 arrays."""
    return nbytes / bandwidth + requests * overhead


def raw_read_seconds(stored, consumed, frame_bytes, bandwidth, overhead,
                     scan_requests=1):
    """Seconds to read ``consumed`` of ``stored`` raw frames.

    Raw frames can be read individually (Table 3, note 2): a reader either
    scans every stored frame sequentially in ``scan_requests`` requests,
    dropping the ones it does not need, or reads only the consumed frames,
    one request each — whichever is faster.  Scalars or float64 arrays.
    """
    scan = transfer_seconds(stored * frame_bytes, bandwidth, overhead,
                            scan_requests)
    sparse = transfer_seconds(consumed * frame_bytes, bandwidth, overhead,
                              consumed)
    if isinstance(scan, np.ndarray):
        return np.minimum(scan, sparse)
    # min, not np.minimum: scalar callers keep their Python floats.
    return min(scan, sparse)


@dataclass
class DiskModel:
    """A disk's sequential bandwidth and per-request overhead."""

    read_bandwidth: float = 1.0 * GB  # bytes per second, sequential
    write_bandwidth: float = 0.8 * GB
    request_overhead: float = 0.1e-3  # seconds per random request

    # -- speed estimates (no charging) ---------------------------------------------

    def sequential_read_speed(self, bytes_per_video_second: float) -> float:
        """Realtime multiple for streaming a format of the given data rate."""
        if bytes_per_video_second <= 0:
            return float("inf")
        return self.read_bandwidth / bytes_per_video_second

    def raw_read_speed(
        self,
        stored: Fidelity,
        frame_bytes: float,
        consumer_sampling: Optional[Fraction] = None,
    ) -> float:
        """Realtime multiple for reading raw frames of a stored format.

        One video second of the format: a consumer sampling sparsely reads
        only its frames, one request each; a consumer taking every stored
        frame streams the format sequentially, one request per segment
        (:func:`raw_read_seconds`).
        """
        if consumer_sampling is None:
            consumer_sampling = stored.sampling
        consumed_fps = min(float(stored.fps),
                           30.0 * float(consumer_sampling))
        if consumed_fps <= 0:
            return float("inf")
        seconds = raw_read_seconds(stored.fps, consumed_fps, frame_bytes,
                                   self.read_bandwidth, self.request_overhead,
                                   scan_requests=1 / SEGMENT_SECONDS)
        return 1.0 / seconds if seconds > 0 else float("inf")


@dataclass(frozen=True)
class DiskBandwidthPool:
    """A bounded number of concurrent I/O channels over one disk array.

    The paper's HDD array sustains its sequential bandwidth over a small
    number of parallel streams; beyond that, requests queue.  The
    concurrent query executor models this by letting at most ``channels``
    raw-segment retrievals be in flight at once — further retrievals wait,
    which is where multi-tenant disk contention comes from.
    """

    channels: int = 4

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError(f"need at least one I/O channel: {self.channels}")


#: Disk model shared by default (the paper's HDD RAID class of hardware).
DEFAULT_DISK = DiskModel()
