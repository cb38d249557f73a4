"""Video data model: knobs, formats, synthetic content, datasets.

This subpackage defines the vocabulary the rest of the system speaks:

* :mod:`repro.video.fidelity` — the four fidelity knobs of Table 1 and the
  richer-than partial order over fidelity options;
* :mod:`repro.video.coding` — the three coding knobs (speed step, keyframe
  interval, coding bypass);
* :mod:`repro.video.format` — storage formats ``SF<f, c>`` and consumption
  formats ``CF<f>``;
* :mod:`repro.video.content` — the synthetic scene/ground-truth model that
  substitutes for the paper's real video datasets;
* :mod:`repro.video.datasets` — the six benchmark streams (jackson, miami,
  tucson, dashcam, park, airport);
* :mod:`repro.video.segment` — 8-second segments, the storage unit.
"""

from repro.video.coding import (
    Coding,
    KEYFRAME_INTERVALS,
    RAW,
    SPEED_STEPS,
    coding_space,
)
from repro.video.content import ContentModel, Track
from repro.video.datasets import DATASETS, Dataset, get_dataset
from repro.video.fidelity import (
    CROP_FACTORS,
    Fidelity,
    QUALITIES,
    RESOLUTIONS,
    SAMPLING_RATES,
    fidelity_space,
    knobwise_max,
)
from repro.video.format import ConsumptionFormat, StorageFormat
from repro.video.segment import Segment, segments_for_range

__all__ = [
    "Coding",
    "ConsumptionFormat",
    "ContentModel",
    "CROP_FACTORS",
    "Dataset",
    "DATASETS",
    "Fidelity",
    "fidelity_space",
    "get_dataset",
    "KEYFRAME_INTERVALS",
    "knobwise_max",
    "QUALITIES",
    "RAW",
    "RESOLUTIONS",
    "SAMPLING_RATES",
    "Segment",
    "segments_for_range",
    "SPEED_STEPS",
    "StorageFormat",
    "Track",
    "coding_space",
]
