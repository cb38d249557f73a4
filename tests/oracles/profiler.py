"""Profiler parity oracle: the scalar codec surfaces.

``CodingProfiler`` reads every format's size, encode cost and retrieval
speed from the shared vectorized :class:`~repro.codec.tables.ProfileTable`.
:class:`ScalarSurfaces` answers the same lookups — and the planner's
size ranking of codings — with the per-call scalar codec arithmetic the
table replaced, and :func:`scalar_profiler` builds a profiler that reads
it in the table's place: the reference the table-backed planner must
match bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple
from unittest import mock

from repro.codec.model import CodecModel
from repro.profiler import coding_profiler
from repro.profiler.coding_profiler import CodingProfiler
from repro.retrieval.speed import retrieval_speed
from repro.storage.disk import DiskModel
from repro.video.coding import Coding, coding_space
from repro.video.fidelity import Fidelity
from repro.video.format import StorageFormat

__all__ = ["ScalarSurfaces", "scalar_profiler"]


class ScalarSurfaces:
    """The scalar branches of ``CodingProfiler.profile`` and the
    coalescing planner's storage ranking, shaped like the
    :class:`~repro.codec.tables.ProfileTable` lookups that replaced them."""

    def __init__(self, codec: CodecModel, disk: DiskModel, activity: float):
        self.codec = codec
        self.disk = disk
        self.activity = activity

    def profile_values(self, fmt: StorageFormat) -> Tuple[float, float, float]:
        fidelity, coding = fmt.fidelity, fmt.coding
        bytes_per_second = self.codec.encoded_bytes_per_second(
            fidelity, coding, self.activity
        )
        ingest_cost = self.codec.encode_seconds_per_video_second(
            fidelity, coding
        )
        base_speed = retrieval_speed(fmt, None, self.codec, self.disk)
        return bytes_per_second, ingest_cost, base_speed

    def retrieval_speed(self, fmt: StorageFormat,
                        consumer_sampling: Optional[Fraction]) -> float:
        return retrieval_speed(fmt, consumer_sampling, self.codec, self.disk)

    def storage_rank(self, fidelity: Fidelity) -> List[Coding]:
        options = list(coding_space(include_raw=False))
        options.sort(
            key=lambda c: self.codec.encoded_bytes_per_second(
                fidelity, c, self.activity
            )
        )
        return options


def scalar_profiler(**kwargs) -> CodingProfiler:
    """A ``CodingProfiler(**kwargs)`` on :class:`ScalarSurfaces`.

    No profile table is built or fetched, so the surface evaluations it
    makes are all scalar ones.
    """
    with mock.patch.object(coding_profiler, "get_profile_table",
                           ScalarSurfaces):
        return CodingProfiler(**kwargs)
