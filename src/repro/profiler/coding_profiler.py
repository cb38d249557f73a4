"""Coding profiler: storage format -> (size, encode cost, retrieval speed).

Heuristic-based coalescing (Section 4.3) profiles candidate storage
formats: it encodes a sample clip to measure the video size and ingestion
cost, and decodes it to measure retrieval speed.  Results are memoized —
Section 6.4 reports that 92% of formats examined during coalescing had
already been profiled.

Since the vectorized profiling plane, the numeric answers come from a
shared :class:`~repro.codec.tables.ProfileTable` (one NumPy evaluation of
each codec surface over the whole knob grid, cached per codec/disk/
activity) instead of per-call scalar arithmetic.  The simulated profiling
*work* is unchanged: the first query for a format still charges the clock
for encoding and decoding the sample clip, and the stats still count runs
vs memoized lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from repro.clock import SimClock
from repro.codec.model import CodecModel, DEFAULT_CODEC
from repro.codec.tables import ProfileTable, get_profile_table
from repro.retrieval.speed import retrieval_speed
from repro.storage.disk import DiskModel, DEFAULT_DISK
from repro.units import PROFILE_CLIP_SECONDS
from repro.video.fidelity import sampling_index
from repro.video.format import StorageFormat


@dataclass(frozen=True)
class CodingProfile:
    """Measured properties of one storage format."""

    fmt: StorageFormat
    bytes_per_second: float  # on-disk size per video second
    ingest_cost: float  # one-core CPU seconds per video second
    base_retrieval_speed: float  # x realtime, consumer taking every frame


@dataclass
class CodingProfilerStats:
    """Accounting of coding-profiling effort (Section 6.4).

    ``memo_hits`` counts lookups served from the profiler's own memos;
    ``adequacy_hits`` counts planner-level adequacy-cache reuse of profiled
    results (kept in a separate counter so the pure profiler-memo metric
    stays comparable).  The paper's 92% figure counts format examinations
    that reused an existing profile — the sum of both.
    """

    runs: int = 0
    memo_hits: int = 0
    adequacy_hits: int = 0
    seconds: float = 0.0

    @property
    def examined(self) -> int:
        """Format examinations: profiling runs plus all memoized reuse."""
        return self.runs + self.memo_hits + self.adequacy_hits

    @property
    def reuse_rate(self) -> float:
        """Fraction of examinations served from a cache (Section 6.4)."""
        examined = self.examined
        if examined == 0:
            return 0.0
        return (self.memo_hits + self.adequacy_hits) / examined


class CodingProfiler:
    """Profiles storage formats on a sample clip."""

    def __init__(
        self,
        activity: float = 0.35,
        clip_seconds: float = PROFILE_CLIP_SECONDS,
        codec: CodecModel = DEFAULT_CODEC,
        disk: DiskModel = DEFAULT_DISK,
        clock: Optional[SimClock] = None,
    ):
        #: Mean content activity of the profiled stream (size calibration).
        self.activity = activity
        self.clip_seconds = clip_seconds
        self.codec = codec
        self.disk = disk
        self.clock = clock or SimClock()
        self.stats = CodingProfilerStats()
        self._memo: Dict[StorageFormat, CodingProfile] = {}
        #: Keyed (format, sampling knob index) for a lattice rate, so a
        #: lookup hashes cached ints; (format, None, rate) for ``None``
        #: and off-grid rates.
        self._speed_memo: Dict[tuple, float] = {}
        self._table: ProfileTable = get_profile_table(codec, disk, activity)

    @property
    def table(self) -> ProfileTable:
        """The shared profile table."""
        return self._table

    def profile(self, fmt: StorageFormat) -> CodingProfile:
        """Measure one storage format (memoized)."""
        cached = self._memo.get(fmt)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached

        bytes_per_second, ingest_cost, base_speed = \
            self._table.profile_values(fmt)

        # Simulated profiling work: encode the sample clip, then decode it
        # (or read it back for raw formats).
        decode_cost = (
            0.0 if base_speed == float("inf") else self.clip_seconds / base_speed
        )
        run_seconds = ingest_cost * self.clip_seconds + decode_cost
        self.clock.charge(run_seconds, "profiling")
        self.stats.runs += 1
        self.stats.seconds += run_seconds

        result = CodingProfile(fmt, bytes_per_second, ingest_cost, base_speed)
        self._memo[fmt] = result
        return result

    def retrieval_speed(
        self, fmt: StorageFormat, consumer_sampling: Optional[Fraction] = None
    ) -> float:
        """Retrieval speed of ``fmt`` for a consumer sampling at the given
        rate, memoized per (format, sampling rate); the format itself must
        have been profiled for accounting."""
        si = sampling_index(consumer_sampling)
        key = (fmt, None, consumer_sampling) if si is None else (fmt, si)
        cached = self._speed_memo.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached

        self.profile(fmt)
        speed = self._table.retrieval_speed(fmt, consumer_sampling)
        if speed is None:  # a query outside the table grid
            speed = retrieval_speed(
                fmt, consumer_sampling, self.codec, self.disk
            )
        self._speed_memo[key] = speed
        return speed

    def reset_stats(self) -> None:
        self.stats = CodingProfilerStats()

    def clear_memo(self) -> None:
        self._memo.clear()
        self._speed_memo.clear()
