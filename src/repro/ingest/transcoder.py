"""Transcoder: one stream's fan-out into its storage formats.

The paper creates one FFmpeg instance per ingested stream (Section 5);
this class plays that role, wrapping an :class:`~repro.codec.Encoder` and
producing one encoded segment per storage format per 8-second slice.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.clock import SimClock
from repro.codec.encoder import EncodedSegment, Encoder
from repro.errors import BudgetError
from repro.ingest.budget import IngestBudget, cores_required
from repro.video.format import StorageFormat
from repro.video.segment import Segment


class Transcoder:
    """Transcodes one stream's segments into a set of storage formats."""

    def __init__(
        self,
        formats: Sequence[StorageFormat],
        clock: Optional[SimClock] = None,
        budget: IngestBudget = IngestBudget(),
    ):
        self.formats = list(formats)
        self.clock = clock or SimClock()
        self.encoder = Encoder(self.clock)
        if not budget.allows(self.formats):
            raise BudgetError(
                f"storage formats need {cores_required(self.formats):.2f} "
                f"cores, over the {budget.cores}-core ingestion budget"
            )
        self.budget = budget

    @property
    def cores_required(self) -> float:
        """Cores needed to keep up with the live stream."""
        return cores_required(self.formats)

    @property
    def cpu_utilization_percent(self) -> float:
        """Transcoding CPU usage as the paper's Figure 11c reports it."""
        return self.cores_required * 100.0

    def transcode(
        self, segment: Segment, activity: float, materialize: bool = False
    ) -> List[EncodedSegment]:
        """Produce one stored version of ``segment`` per storage format."""
        return [
            self.encoder.encode(segment, fmt, activity, materialize)
            for fmt in self.formats
        ]
