"""Disk bandwidth/seek model (Section 2.2).

The paper's platform has an HDD array sustaining ~1 GB/s sequential reads;
decoding throughput (tens of MB/s) is far below that, so the disk only
becomes the bottleneck when loading raw frames.  This model preserves that
distinction: sequential segment reads are bandwidth-bound, sparse raw-frame
sampling pays a per-request overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from repro.clock import SimClock
from repro.units import GB
from repro.video.fidelity import Fidelity


@dataclass
class DiskModel:
    """A disk array with sequential bandwidth and per-request overhead."""

    read_bandwidth: float = 1.0 * GB  # bytes per second, sequential
    write_bandwidth: float = 0.8 * GB
    request_overhead: float = 0.1e-3  # seconds per random request
    clock: SimClock = field(default_factory=SimClock)

    # -- charged operations ------------------------------------------------------
    #
    # Only writes are charged here.  Reads are the executor's retrieve
    # tasks, costed from ``read_bandwidth`` and ``request_overhead`` by
    # ``SegmentReader``.

    @staticmethod
    def _validate(n_bytes: float, requests: int) -> None:
        # A negative size or request count would charge negative seconds,
        # silently rewinding the simulated clock.
        if n_bytes < 0:
            raise ValueError(f"cannot transfer negative bytes: {n_bytes}")
        if requests < 0:
            raise ValueError(f"negative request count: {requests}")

    def write(self, n_bytes: float, requests: int = 1) -> float:
        """Charge a write of ``n_bytes``."""
        self._validate(n_bytes, requests)
        seconds = n_bytes / self.write_bandwidth + requests * self.request_overhead
        self.clock.charge(seconds, "disk")
        return seconds

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

        Raw frames can be read individually (Table 3, note 2): a consumer
        sampling sparsely touches only its frames, paying one request
        overhead per frame; a consumer taking every stored frame streams the
        format sequentially with one request per frame batch.
        """
        if consumer_sampling is None:
            consumer_sampling = stored.sampling
        consumed_fps = min(float(stored.fps),
                           30.0 * float(consumer_sampling))
        if consumed_fps <= 0:
            return float("inf")
        # Strategy 1: scan the whole format sequentially, dropping frames.
        scan_seconds = (stored.fps * frame_bytes / self.read_bandwidth
                        + self.request_overhead / 8.0)
        # Strategy 2: read only the sampled frames, one request each.
        sparse_seconds = (consumed_fps * frame_bytes / self.read_bandwidth
                          + consumed_fps * self.request_overhead)
        # A competent reader picks whichever is faster.
        seconds = min(scan_seconds, sparse_seconds)
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
