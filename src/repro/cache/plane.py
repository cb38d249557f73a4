"""The cache plane: configuration, facade, and the stats snapshot.

One :class:`CachePlane` instance spans a whole store.  It bundles the
three cooperating pieces of the tiered retrieval cache —

* the decoded-frame RAM tier (:class:`~repro.cache.frames.DecodedFrameCache`),
* the operator-result tier (:class:`~repro.cache.results.ResultCache`),
* the hot-segment promotion loop (:class:`~repro.cache.tiers.TierManager`) —

behind the handful of operations the read path needs: key construction,
hit-cost modeling (a hit is served at RAM bandwidth), commit/pin hooks for
the executor's single-flight dedup, segment invalidation (wired into the
segment store's write/delete path, so erosion and re-ingest can never leave
stale entries), and a frozen :class:`CacheStats` snapshot for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cache.frames import (
    CacheKey,
    DecodedFrameCache,
    policy_named,
)
from repro.cache.results import ResultCache
from repro.cache.tiers import TierConfig, TierManager
from repro.clock import SimClock
from repro.storage.disk import DiskModel
from repro.units import GB, MB


@dataclass(frozen=True)
class CacheConfig:
    """Knobs of the tiered retrieval cache.

    ``policy`` names the eviction policy shared by both byte-budgeted
    tiers: ``"lru"``, ``"lfu"`` or ``"cost"`` (benefit-per-byte aware).
    ``tiering=None`` disables hot-segment promotion; caching itself is
    enabled by constructing a store with any :class:`CacheConfig` at all.
    Both capacities are simulated RAM: the plane holds residency books,
    never frames or operator outputs, so no knob bounds real memory.
    """

    frame_capacity_bytes: float = 256.0 * MB
    result_capacity_bytes: float = 64.0 * MB
    policy: str = "lru"
    ram_bandwidth: float = 20.0 * GB  # bytes/second a cache hit streams at
    single_flight: bool = True
    tiering: Optional[TierConfig] = None


@dataclass(frozen=True)
class RetrievalAccess:
    """What the cache had to say about one planned segment retrieval."""

    key: CacheKey
    hit: bool
    full_seconds: float  # the miss cost (disk/decode) of this retrieval
    hit_seconds: float  # the RAM cost a hit pays instead
    nbytes: float  # decoded bytes the entry holds
    stored_bytes: float = 0.0  # on-disk size of the stored segment
    raw: bool = False  # raw storage format (disk-bound retrieval)

    @property
    def saved_seconds(self) -> float:
        return max(0.0, self.full_seconds - self.hit_seconds)


@dataclass(frozen=True)
class TierCounters:
    """Counters of one byte-budgeted cache tier."""

    hits: int
    misses: int
    insertions: int
    evictions: int
    rejections: int
    invalidations: int
    entries: int
    occupancy_bytes: float
    capacity_bytes: float
    bytes_saved: float
    seconds_saved: float

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        accesses = self.accesses
        return self.hits / accesses if accesses else 0.0


@dataclass(frozen=True)
class TieringStats:
    """Counters of the hot-segment promotion loop."""

    promotions: int
    demotions: int
    invalidations: int
    promoted_segments: int
    fast_occupancy_bytes: float
    fast_capacity_bytes: float
    migrated_bytes: float
    migration_seconds: float


@dataclass(frozen=True)
class CacheStats:
    """Frozen snapshot of the whole cache plane, for reports."""

    policy: str
    frames: TierCounters
    results: TierCounters
    single_flight_hits: int  # retrievals deduplicated onto an in-flight one
    single_flight_seconds_saved: float
    tiering: Optional[TieringStats]
    #: Dependency-blocked tasks released through the executor's event
    #: queue (0 under the rescan-loop parity oracle).
    single_flight_wakeups: int = 0

    @property
    def seconds_saved(self) -> float:
        """Simulated *resource work* seconds the plane avoided charging.

        Summed per pool unit (a consume deduplicated across 4 contexts
        counts its full per-segment costs), so this measures contention
        removed, and can legitimately exceed the wall-clock makespan
        reduction.
        """
        return (self.frames.seconds_saved + self.results.seconds_saved
                + self.single_flight_seconds_saved)

    @property
    def bytes_saved(self) -> float:
        return self.frames.bytes_saved + self.results.bytes_saved


class CachePlane:
    """The store-wide cache: frame tier + result tier + tier manager."""

    def __init__(self, config: Optional[CacheConfig] = None):
        self.config = config or CacheConfig()
        policy = policy_named(self.config.policy)
        self.frames = DecodedFrameCache(self.config.frame_capacity_bytes,
                                        policy)
        self.results = ResultCache(self.config.result_capacity_bytes,
                                   policy_named(self.config.policy))
        self.tiers: Optional[TierManager] = (
            TierManager(self.config.tiering)
            if self.config.tiering is not None else None
        )
        self.single_flight_hits = 0
        self.single_flight_seconds_saved = 0.0
        self.single_flight_wakeups = 0

    # -- cost model --------------------------------------------------------

    def hit_seconds(self, nbytes: float) -> float:
        """Simulated seconds to serve ``nbytes`` from the RAM tier."""
        if self.config.ram_bandwidth <= 0:
            return 0.0
        return nbytes / self.config.ram_bandwidth

    # -- keys --------------------------------------------------------------

    @staticmethod
    def frame_key(stream: str, index: int, fmt_label: str,
                  consumer_label: str) -> CacheKey:
        return DecodedFrameCache.key(stream, index, fmt_label, consumer_label)

    @staticmethod
    def result_key(stream: str, index: int, dataset: str, operator: str,
                   fidelity_label: str, sampling: str) -> CacheKey:
        return ResultCache.key(stream, index, dataset, operator,
                               fidelity_label, sampling)

    # -- executor hooks ----------------------------------------------------
    #
    # Plan-time cache consultation is side-effect-free (peeks only); all
    # counters move through these hooks when the corresponding task
    # actually runs on the simulated clock — so a plan that is never
    # executed leaves no trace, and single-flight followers are counted
    # as dedups rather than as extra misses.

    def note_access(self, access: RetrievalAccess) -> None:
        """Record a served retrieval with the tier manager (hot tracking).

        Only raw-format retrievals build tier heat: they are the
        disk-bound ones a fast tier can speed up, and migration moves
        (and budgets) the segment's *stored* bytes, not the decoded RAM
        footprint.
        """
        if self.tiers is not None and access.raw:
            self.tiers.record_access(access.key[0], access.key[1],
                                     access.stored_bytes)

    def record_frame_hit(self, access: RetrievalAccess) -> None:
        """A committed decoded-frame hit was served in simulated time."""
        self.frames.record_hit(access.key, access.nbytes,
                               access.saved_seconds)

    def record_result_hit(self, key: CacheKey, saved_seconds: float) -> None:
        """A committed operator result zeroed a consume in simulated time."""
        self.results.record_charged_hit(key, saved_seconds)

    def commit_frames(self, access: RetrievalAccess, pins: int = 0) -> bool:
        """A miss completed: count it and make its frames resident."""
        self.frames.misses += 1
        return self.frames.put(access.key, access.nbytes,
                               access.saved_seconds, pins=pins)

    def serve_follower(self, access: RetrievalAccess) -> None:
        """A single-flight follower was served off the leader's entry."""
        self.frames.unpin(access.key)
        self.single_flight_hits += 1
        self.single_flight_seconds_saved += access.saved_seconds

    def note_wakeups(self, count: int) -> None:
        """Dependency-blocked tasks were woken through the event queue.

        The executor's event loop wakes single-flight followers (and
        deduplicated consumes) by decrementing dependency counters when
        their leader completes — no rescan ever rediscovers them.  This
        counter makes that path observable: it tracks how many blocked
        tasks were released event-driven, which the rescan-loop parity
        oracle in ``tests/oracles`` leaves at zero.
        """
        self.single_flight_wakeups += count

    def dedup_consume(self, saved_seconds: float, count: int = 1) -> None:
        """Stage segment consumes deduplicated onto in-flight producers."""
        self.single_flight_hits += count
        self.single_flight_seconds_saved += saved_seconds

    def sweep_tiers(self, clock: SimClock, slow: DiskModel) -> Tuple[int, int]:
        """Run one promotion/demotion round (no-op without tiering)."""
        if self.tiers is None:
            return (0, 0)
        return self.tiers.sweep(clock, slow)

    # -- invalidation ------------------------------------------------------

    def invalidate(self, stream: str, index: Optional[int] = None) -> int:
        """Drop every cached artifact of a segment (or stream)."""
        dropped = self.frames.invalidate(stream, index)
        dropped += self.results.invalidate(stream, index)
        if self.tiers is not None:
            self.tiers.invalidate(stream, index)
        return dropped

    # -- reporting ---------------------------------------------------------

    @staticmethod
    def _counters(cache) -> TierCounters:
        return TierCounters(
            hits=cache.hits,
            misses=cache.misses,
            insertions=cache.insertions,
            evictions=cache.evictions,
            rejections=cache.rejections,
            invalidations=cache.invalidations,
            entries=len(cache),
            occupancy_bytes=cache.occupancy_bytes,
            capacity_bytes=cache.capacity_bytes,
            bytes_saved=cache.bytes_saved,
            seconds_saved=cache.seconds_saved,
        )

    def stats(self) -> CacheStats:
        tiering = None
        if self.tiers is not None:
            tiering = TieringStats(
                promotions=self.tiers.promotions,
                demotions=self.tiers.demotions,
                invalidations=self.tiers.invalidations,
                promoted_segments=self.tiers.promoted_segments,
                fast_occupancy_bytes=self.tiers.fast_bytes,
                fast_capacity_bytes=self.tiers.config.capacity_bytes,
                migrated_bytes=self.tiers.migrated_bytes,
                migration_seconds=self.tiers.migration_seconds,
            )
        return CacheStats(
            policy=self.config.policy,
            frames=self._counters(self.frames),
            results=self._counters(self.results.committed),
            single_flight_hits=self.single_flight_hits,
            single_flight_seconds_saved=self.single_flight_seconds_saved,
            tiering=tiering,
            single_flight_wakeups=self.single_flight_wakeups,
        )
