"""Ingestion budget: CPU cores available to transcode one stream.

The required core count for a storage-format set is the sum of one-core
encode costs per video second — a format that encodes at 0.5x realtime on
one core needs two cores to keep up with a live stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.codec.model import DEFAULT_CODEC
from repro.video.format import StorageFormat


def cores_required(formats: Iterable[StorageFormat]) -> float:
    """CPU cores needed to transcode one live stream into ``formats``."""
    return sum(
        DEFAULT_CODEC.encode_seconds_per_video_second(f.fidelity, f.coding)
        for f in formats
    )


#: Float tolerance for budget comparisons: a format set within this many
#: cores of the cap counts as exactly on budget.  ``allows`` and
#: ``headroom`` share it, so a set is allowed iff its headroom is >= 0.
CORE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class IngestBudget:
    """A cap on transcoding cores per ingested stream (None = unlimited)."""

    cores: Optional[float] = None

    def allows(self, formats: Iterable[StorageFormat]) -> bool:
        """Whether the format set can be sustained within the budget."""
        return self.headroom(formats) >= 0.0

    def headroom(self, formats: Iterable[StorageFormat]) -> float:
        """Remaining cores (negative when over budget; inf when unlimited).

        Overruns within :data:`CORE_TOLERANCE` clamp to 0.0 so an allowed
        format set never reports negative headroom.
        """
        if self.cores is None:
            return float("inf")
        room = self.cores - cores_required(formats)
        if -CORE_TOLERANCE <= room < 0.0:
            return 0.0
        return room
