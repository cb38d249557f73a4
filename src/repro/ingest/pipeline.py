"""Ingestion pipeline: a stream flowing into the segment store.

Two modes cover the experiments:

* ``ingest_segments`` actually encodes and stores N segments, charging
  simulated transcode time — used by end-to-end query tests;
* ``report`` analytically extrapolates storage growth (GB/day, Figure 11b)
  and transcode CPU (Figure 11c) from a sample window, which is how
  multi-day costs are accounted without simulating a day frame by frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.clock import SimClock
from repro.codec.model import DEFAULT_CODEC
from repro.ingest.budget import IngestBudget
from repro.ingest.transcoder import Transcoder
from repro.storage.segment_store import SegmentStore
from repro.units import DAY
from repro.video.content import ContentModel
from repro.video.datasets import get_dataset
from repro.video.format import StorageFormat
from repro.video.segment import Segment


@dataclass(frozen=True)
class IngestionReport:
    """Analytic per-stream ingestion/storage cost summary."""

    stream: str
    bytes_per_second: float  # total across storage formats
    bytes_per_day: float
    cores_required: float
    cpu_utilization_percent: float
    per_format_bytes_per_second: Dict[str, float]


class IngestionPipeline:
    """Ingests one dataset's stream into a set of storage formats."""

    #: Sample window (seconds) for estimating a stream's mean activity.
    ACTIVITY_WINDOW = 120.0

    def __init__(
        self,
        dataset: str,
        formats: Sequence[StorageFormat],
        store: Optional[SegmentStore] = None,
        clock: Optional[SimClock] = None,
        budget: IngestBudget = IngestBudget(),
        stream: Optional[str] = None,
    ):
        self.dataset = dataset
        #: Stream name segments are stored under.  Defaults to the dataset
        #: name; an alias lets one content model stand in for many cameras
        #: of a fleet ("cam07" ingested with jackson's statistics).
        self.stream = stream or dataset
        if "/" in self.stream:
            # Segment-store keys are "/"-structured; a "/" in the stream
            # name would leak this stream into other streams' prefix scans.
            raise ValueError(f"stream name must not contain '/': {self.stream!r}")
        self.content: ContentModel = get_dataset(dataset).content()
        self.formats = list(formats)
        self.store = store
        self.clock = clock or SimClock()
        self.transcoder = Transcoder(self.formats, self.clock, budget)

    # -- activity ------------------------------------------------------------
    # Both read the dataset's shared content model, which memoizes them.

    def mean_activity(self) -> float:
        """Mean frame-change activity over a sample window."""
        return self.content.mean_activity(0.0, self.ACTIVITY_WINDOW, fps=2)

    def segment_activity(self, segment: Segment) -> float:
        """Activity of one segment (coarse 2 fps ground-truth pass)."""
        return self.content.mean_activity(segment.t0, segment.seconds, fps=2)

    # -- actual ingestion -----------------------------------------------------

    def ingest_segments(
        self, n_segments: int, start_index: int = 0, materialize: bool = False
    ) -> List[Segment]:
        """Encode and store ``n_segments`` consecutive segments."""
        if self.store is None:
            raise ValueError("ingest_segments requires a SegmentStore")
        done = []
        for i in range(start_index, start_index + n_segments):
            segment = Segment(self.stream, i)
            activity = self.segment_activity(segment)
            for encoded in self.transcoder.transcode(segment, activity, materialize):
                self.store.put(encoded)
            done.append(segment)
        return done

    # -- analytic accounting -----------------------------------------------------

    def report(self) -> IngestionReport:
        """Extrapolated storage and CPU cost of ingesting this stream."""
        activity = self.mean_activity()
        per_format = {
            fmt.label: DEFAULT_CODEC.encoded_bytes_per_second(
                fmt.fidelity, fmt.coding, activity
            )
            for fmt in self.formats
        }
        total = sum(per_format.values())
        cores = self.transcoder.cores_required
        return IngestionReport(
            stream=self.stream,
            bytes_per_second=total,
            bytes_per_day=total * DAY,
            cores_required=cores,
            cpu_utilization_percent=cores * 100.0,
            per_format_bytes_per_second=per_format,
        )
