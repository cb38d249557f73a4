"""Video segments: the unit of storage, retrieval, and erosion.

The paper splits footage into 8-second segments, stores each segment of each
storage format as one value in the key-value backend, and retrieves or
deletes segments independently (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.units import SEGMENT_SECONDS


@dataclass(frozen=True)
class Segment:
    """One 8-second slice of a stream, identified by its index."""

    stream: str
    index: int
    seconds: float = SEGMENT_SECONDS

    @property
    def t0(self) -> float:
        """Start time of the segment within the stream, in seconds."""
        return self.index * self.seconds

    @property
    def t1(self) -> float:
        """End time (exclusive) of the segment."""
        return self.t0 + self.seconds

    @property
    def key(self) -> str:
        """Stable key for this segment (format-agnostic part)."""
        return f"{self.stream}/{self.index:012d}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.key


def segment_index_for(t: float, seconds: float = SEGMENT_SECONDS) -> int:
    """Index of the segment containing stream time ``t``."""
    return int(t // seconds)


def segments_for_range(
    stream: str, t0: float, t1: float, seconds: float = SEGMENT_SECONDS
) -> List[Segment]:
    """All segments overlapping the half-open range [t0, t1)."""
    if t1 <= t0:
        return []
    first = segment_index_for(t0, seconds)
    last = segment_index_for(max(t0, t1 - 1e-9), seconds)
    return [Segment(stream, i, seconds) for i in range(first, last + 1)]
