"""Encoder: turns a segment of an ingested stream into one stored version.

The encoder charges its simulated CPU cost to the clock (category
``"ingest"``) and produces an :class:`EncodedSegment` record whose size comes
from the codec size model.  Payload bytes are optional: long-running
experiments account sizes analytically, while storage tests can ask for a
materialized payload to exercise the byte path end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.clock import SimClock
from repro.codec.model import DEFAULT_CODEC
from repro.rng import rng_for
from repro.video.format import StorageFormat
from repro.video.segment import Segment


@dataclass(frozen=True)
class EncodedSegment:
    """One stored segment of one storage format."""

    segment: Segment
    fmt: StorageFormat
    size_bytes: int
    n_frames: int
    activity: float
    payload: Optional[bytes] = None

    @property
    def key(self) -> str:
        """Storage key: segment key qualified by the format label."""
        return f"{self.segment.key}@{self.fmt.label}"


class Encoder:
    """A software encoder instance (one FFmpeg process in the paper)."""

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock or SimClock()
        self.segments_encoded = 0
        self.bytes_produced = 0

    def encode(
        self,
        segment: Segment,
        fmt: StorageFormat,
        activity: float,
        materialize: bool = False,
    ) -> EncodedSegment:
        """Transcode ``segment`` into storage format ``fmt``.

        ``activity`` is the clip's mean frame-change measure (content model);
        it drives encoded size.  When ``materialize`` is set, a deterministic
        pseudo-bitstream payload of the modeled size is generated so the
        storage backend moves real bytes.
        """
        fidelity, coding = fmt.fidelity, fmt.coding
        seconds = segment.seconds
        cost = DEFAULT_CODEC.encode_seconds_per_video_second(
            fidelity, coding
        ) * seconds
        self.clock.charge(cost, "ingest")

        size = int(round(
            DEFAULT_CODEC.encoded_bytes_per_second(fidelity, coding, activity)
            * seconds
        ))
        n_frames = int(round(fidelity.fps * seconds))
        payload = None
        if materialize:
            rng = rng_for("payload", segment.key, fmt.label)
            payload = rng.integers(0, 256, size=max(1, size), dtype=np.uint8).tobytes()
        self.segments_encoded += 1
        self.bytes_produced += size
        return EncodedSegment(
            segment=segment,
            fmt=fmt,
            size_bytes=size,
            n_frames=n_frames,
            activity=activity,
            payload=payload,
        )

    def encode_speed(self, fmt: StorageFormat) -> float:
        """Realtime multiple at which this encoder produces ``fmt``."""
        return DEFAULT_CODEC.encode_speed(fmt.fidelity, fmt.coding)
