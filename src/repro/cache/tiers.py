"""Hot-segment promotion between disk tiers.

The paper's store runs off one HDD array; a deployment serving heavy
multi-tenant traffic adds a small fast tier (NVMe/SSD class) in front of
it.  The :class:`TierManager` closes the cross-layer loop: the retrieval
cache observes per-segment access frequency, and a periodic sweep promotes
the hottest segments onto the fast tier — charging the migration I/O to
the simulated clock — and demotes segments that went cold, so raw-format
reads of hot footage run at fast-tier bandwidth instead of HDD bandwidth.

Only the *disk-bound* part of retrieval benefits: encoded segments are
decode-bound in this model, so promotion pays off for raw storage formats
(and for any future format whose retrieval is bandwidth-limited), exactly
as in the paper's bottleneck analysis (Section 2.2).

Migrations are costed by :func:`~repro.storage.disk.transfer_seconds`, the
store's one I/O formula: the fast leg on the :class:`StorageTier` envelope,
the slow leg through the shard array, which folds in shard health, on the
copy of the segment's raw key that a served read goes to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.clock import SimClock
from repro.errors import StorageError
from repro.storage.disk import transfer_seconds
from repro.storage.sharding import ShardedDiskArray
from repro.units import GB

SegmentId = Tuple[str, int]  # (stream, segment index)


@dataclass(frozen=True)
class StorageTier:
    """Bandwidth/overhead envelope of one storage tier."""

    name: str
    read_bandwidth: float  # bytes per second, sequential
    write_bandwidth: float
    request_overhead: float  # seconds per random request


#: The fast tier the paper's platform would add today (NVMe class).
FAST_TIER = StorageTier(
    name="nvme",
    read_bandwidth=3.2 * GB,
    write_bandwidth=2.0 * GB,
    request_overhead=20e-6,
)


@dataclass(frozen=True)
class TierConfig:
    """Knobs of the promotion loop."""

    fast: StorageTier = FAST_TIER
    capacity_bytes: float = 4.0 * GB  # fast-tier budget
    promote_accesses: int = 3  # accesses within a window to count as hot
    demote_accesses: int = 1  # below this after decay, a segment is cold


@dataclass
class _Placement:
    nbytes: float
    accesses_at_promotion: int
    fmt_text: str  # array key text of the raw format promoted


def _served_shard(slow: ShardedDiskArray, seg: SegmentId,
                  fmt_text: str) -> Optional[int]:
    """The shard a served read of a segment's raw key goes to now (shard 0
    for a key the array never placed), or ``None`` when failures left no
    copy of it to read."""
    stream, index = seg
    try:
        return slow.effective_read_shard(stream, fmt_text, index) or 0
    except StorageError:
        return None


class TierManager:
    """Tracks per-segment heat and migrates segments between tiers."""

    def __init__(self, config: TierConfig):
        self.config = config
        self._accesses: Dict[SegmentId, int] = {}
        #: Largest raw read per segment: (stored bytes, format key text).
        self._raw: Dict[SegmentId, Tuple[float, str]] = {}
        self._promoted: Dict[SegmentId, _Placement] = {}
        self.fast_bytes = 0.0
        # counters
        self.promotions = 0
        self.demotions = 0
        self.migrated_bytes = 0.0
        self.migration_seconds = 0.0
        self.invalidations = 0

    # -- heat tracking -----------------------------------------------------

    def record_access(self, stream: str, fmt_text: str, index: int,
                      nbytes: float) -> None:
        """Count one raw-format retrieval of a segment (cache hit or miss
        alike); ``fmt_text`` is the format's key text on the shard array."""
        seg = (stream, index)
        self._accesses[seg] = self._accesses.get(seg, 0) + 1
        self._raw[seg] = max(self._raw.get(seg, (0.0, fmt_text)),
                             (nbytes, fmt_text))

    def accesses(self, stream: str, index: int) -> int:
        return self._accesses.get((stream, index), 0)

    def is_fast(self, stream: str, index: int) -> bool:
        return (stream, index) in self._promoted

    @property
    def promoted_segments(self) -> int:
        return len(self._promoted)

    def read_params(self, stream: str, index: int, default_bandwidth: float,
                    default_overhead: float) -> Tuple[float, float]:
        """(bandwidth, request overhead) serving this segment's raw reads."""
        if self.is_fast(stream, index):
            fast = self.config.fast
            return fast.read_bandwidth, fast.request_overhead
        return default_bandwidth, default_overhead

    # -- migration ---------------------------------------------------------

    def sweep(self, clock: SimClock,
              slow: ShardedDiskArray) -> Tuple[int, int]:
        """One promotion/demotion round; returns (promoted, demoted).

        Demotes promoted segments whose decayed access count dropped below
        the cold threshold, then promotes the hottest unpromoted segments
        that fit the fast-tier budget.  Every byte moved is charged to the
        clock under the ``"migrate"`` category: a promotion reads from the
        slow tier and writes to the fast one, a demotion the reverse, and
        each charge is the fast leg plus the slow leg.  The slow leg runs
        against (and is booked on) the shard a served read of the
        segment's raw key goes to on the ``slow`` array, the fastest
        surviving copy, as a served read (a degraded shard reads slower)
        or a write (degrading slows no writes).  A segment whose raw key
        has no readable copy stays where it is.  Access counts are halved
        afterwards so heat reflects a sliding window rather than all time.
        """
        fast = self.config.fast
        demoted = 0
        for seg in list(self._promoted):
            if self._accesses.get(seg, 0) < self.config.demote_accesses:
                placement = self._promoted[seg]
                shard = _served_shard(slow, seg, placement.fmt_text)
                if shard is None:
                    continue
                del self._promoted[seg]
                self.fast_bytes -= placement.nbytes
                slow_seconds = slow.write_seconds(shard, placement.nbytes)
                self._charge(clock,
                             transfer_seconds(placement.nbytes,
                                              fast.read_bandwidth,
                                              fast.request_overhead)
                             + slow_seconds,
                             placement.nbytes)
                slow.note_slow_io(shard, slow_seconds)
                self.demotions += 1
                demoted += 1

        hot = sorted(
            (
                (count, seg) for seg, count in self._accesses.items()
                if count >= self.config.promote_accesses
                and seg not in self._promoted
            ),
            key=lambda item: (-item[0], item[1]),
        )
        promoted = 0
        for count, seg in hot:
            nbytes, fmt_text = self._raw[seg]
            if nbytes <= 0 or self.fast_bytes + nbytes > self.config.capacity_bytes:
                continue
            shard = _served_shard(slow, seg, fmt_text)
            if shard is None:
                continue
            self._promoted[seg] = _Placement(nbytes, count, fmt_text)
            self.fast_bytes += nbytes
            slow_seconds = slow.read_seconds(shard, nbytes)
            self._charge(clock,
                         slow_seconds
                         + transfer_seconds(nbytes, fast.write_bandwidth,
                                            fast.request_overhead),
                         nbytes)
            slow.note_slow_io(shard, slow_seconds)
            self.promotions += 1
            promoted += 1

        self._accesses = {
            seg: count // 2 for seg, count in self._accesses.items()
            if count // 2 > 0 or seg in self._promoted
        }
        # Prune sizes along with the decayed heat: over a long-lived
        # store the observed-bytes map must not outlive the segments'
        # relevance (its siblings are all explicitly byte-budgeted).
        self._raw = {
            seg: raw for seg, raw in self._raw.items()
            if seg in self._accesses or seg in self._promoted
        }
        return promoted, demoted

    def _charge(self, clock: SimClock, seconds: float, nbytes: float) -> None:
        clock.charge(seconds, "migrate")
        self.migration_seconds += seconds
        self.migrated_bytes += nbytes

    # -- invalidation ------------------------------------------------------

    def invalidate(self, stream: str, index: Optional[int] = None) -> int:
        """Forget a segment (or stream): its heat and placement are stale.

        No migration I/O is charged — the segment's bytes were rewritten or
        deleted by the caller; the fast-tier copy is simply dropped.
        """
        doomed = [
            seg for seg in set(self._accesses) | set(self._promoted)
            if seg[0] == stream and (index is None or seg[1] == index)
        ]
        for seg in doomed:
            self._accesses.pop(seg, None)
            self._raw.pop(seg, None)
            placement = self._promoted.pop(seg, None)
            if placement is not None:
                self.fast_bytes -= placement.nbytes
        self.invalidations += len(doomed)
        return len(doomed)
