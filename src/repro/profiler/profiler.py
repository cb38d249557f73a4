"""Operator profiler: fidelity -> (accuracy, consumption speed).

For each profiling run the store prepares sample frames at fidelity f, runs
the operator over them and measures accuracy and consumption speed
(Section 4.2).  Within one configuration process results are memoized — the
paper notes that profiling an operator's four accuracy levels shares runs,
and Section 6.4 reports 92% memoization during coalescing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.clock import SimClock
from repro.operators.base import Operator
from repro.operators.library import OperatorLibrary
from repro.units import PROFILE_CLIP_SECONDS
from repro.video.content import ClipTruth
from repro.video.datasets import get_dataset
from repro.video.fidelity import Fidelity


@dataclass(frozen=True)
class OperatorProfile:
    """One profiling measurement."""

    operator: str
    fidelity: Fidelity
    accuracy: float
    consumption_speed: float  # x realtime


#: Tracks a representative profile clip holds at least.
PROFILE_MIN_TRACKS = 4
#: Object-presence fraction a representative profile clip comes closest to.
PROFILE_TARGET_PRESENCE = 0.6
#: Seconds between the candidate clip offsets the scan tries.
PROFILE_SCAN_STEP = 16.0
#: Stream second before which every candidate clip offset lies.
PROFILE_SCAN_LIMIT = 2048.0
#: Fixed simulated seconds per operator profiling run for preparing
#: sample frames (decoding and resizing the sample clip).
PROFILE_PREP_SECONDS = 0.35


def select_profile_clip(dataset: str) -> ClipTruth:
    """Pick a representative ``PROFILE_CLIP_SECONDS`` sample clip.

    Profiling is only informative on footage that actually contains events
    (the paper profiles hand-picked benchmark videos).  This helper scans
    candidate offsets and returns the clip that has at least
    :data:`PROFILE_MIN_TRACKS` tracks, at least one readable plate, and an
    object-presence fraction closest to :data:`PROFILE_TARGET_PRESENCE`
    (so both positives and negatives occur).  Falls back to the densest
    clip seen when no candidate qualifies.
    """
    model = get_dataset(dataset).content()
    best: Optional[Tuple[float, ClipTruth]] = None
    densest: Optional[Tuple[int, ClipTruth]] = None
    t0 = 0.0
    while t0 < PROFILE_SCAN_LIMIT:
        clip = model.clip(t0, PROFILE_CLIP_SECONDS)
        n = len(clip.tracks)
        if densest is None or n > densest[0]:
            densest = (n, clip)
        if n >= PROFILE_MIN_TRACKS and any(tr.plate for tr in clip.tracks):
            presence = (
                float(clip.visible.any(axis=0).mean()) if clip.tracks else 0.0
            )
            score = abs(presence - PROFILE_TARGET_PRESENCE)
            if best is None or score < best[0]:
                best = (score, clip)
            if score < 0.1:
                break
        t0 += PROFILE_SCAN_STEP
    if best is not None:
        return best[1]
    # The scan's first offset, 0.0, is below PROFILE_SCAN_LIMIT, so some
    # clip was seen.
    return densest[1]


@dataclass
class ProfilerStats:
    """Accounting of profiling effort (Figure 14)."""

    runs: int = 0
    memo_hits: int = 0
    seconds: float = 0.0
    runs_by_operator: Dict[str, int] = field(default_factory=dict)
    seconds_by_operator: Dict[str, float] = field(default_factory=dict)


class OperatorProfiler:
    """Profiles operators of a library over one dataset's sample clip."""

    def __init__(
        self,
        library: OperatorLibrary,
        dataset: str,
        clock: Optional[SimClock] = None,
    ):
        self.library = library
        self.dataset = dataset
        self.clock = clock or SimClock()
        self.stats = ProfilerStats()
        self._clip = select_profile_clip(dataset)
        self._memo: Dict[Tuple[str, Fidelity], OperatorProfile] = {}

    @property
    def clip(self) -> ClipTruth:
        """The profiling sample clip's ground truth."""
        return self._clip

    def profile(self, operator: str, fidelity: Fidelity) -> OperatorProfile:
        """Measure (accuracy, speed) for one operator at one fidelity.

        Memoized: repeated requests within this profiler are free, which is
        what lets the boundary search and multiple accuracy levels share
        profiling runs.
        """
        key = (operator, fidelity)
        cached = self._memo.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached

        op: Operator = self.library.get(operator)
        accuracy = op.accuracy(self._clip, fidelity)
        speed = op.consumption_speed(fidelity)
        # Charge the simulated cost of actually running the operator over
        # the sample clip, plus sample preparation.
        run_seconds = (
            op.consumption_seconds(fidelity, PROFILE_CLIP_SECONDS)
            + PROFILE_PREP_SECONDS
        )
        self.clock.charge(run_seconds, "profiling")
        self.stats.runs += 1
        self.stats.seconds += run_seconds
        self.stats.runs_by_operator[operator] = (
            self.stats.runs_by_operator.get(operator, 0) + 1
        )
        self.stats.seconds_by_operator[operator] = (
            self.stats.seconds_by_operator.get(operator, 0.0) + run_seconds
        )

        result = OperatorProfile(operator, fidelity, accuracy, speed)
        self._memo[key] = result
        return result

    def reset_stats(self) -> None:
        """Zero the accounting counters (the memo is kept)."""
        self.stats = ProfilerStats()

    def clear_memo(self) -> None:
        """Forget memoized profiles (a fresh configuration round)."""
        self._memo.clear()
