"""The six benchmark datasets (Section 6.1), as synthetic content models.

The paper uses jackson, miami, tucson (surveillance, queried with Query A)
and dashcam, park, airport (queried with Query B).  Each entry below mirrors
the qualitative description in the paper: dash-camera footage has intense
camera motion (which makes coding expensive — the 2.6 TB/day outlier of
Fig. 11b); surveillance streams range from heavy to light traffic.

All streams are ingested at 720p, 30 fps (the paper's ingestion format).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import KnobError
from repro.video.content import ContentModel, ContentParams


@dataclass(frozen=True)
class Dataset:
    """One named video stream and its content statistics."""

    name: str
    kind: str  # "surveillance" or "dashcam"
    description: str
    params: ContentParams

    def content(self) -> ContentModel:
        """This stream's content model, built on first use and shared by
        every caller in the process: the footage is a pure function of the
        dataset and the time, so one window cache serves them all."""
        key = (self.name, self.params)
        model = _MODELS.get(key)
        if model is None:
            model = _MODELS[key] = ContentModel(self.name, self.params)
        return model


#: The one content model per (name, params), see :meth:`Dataset.content`.
_MODELS: Dict[Tuple[str, ContentParams], ContentModel] = {}


def _d(name: str, kind: str, description: str, **kw) -> Dataset:
    return Dataset(name, kind, description, ContentParams(**kw))


DATASETS: Dict[str, Dataset] = {
    d.name: d
    for d in (
        _d(
            "jackson",
            "surveillance",
            "Jackson Town Square surveillance camera; steady medium traffic.",
            arrival_rate=0.30,
            dwell_mean=5.0,
            dwell_min=0.8,
            size_mean=0.085,
            size_sigma=0.45,
            speed_mean=0.08,
            plate_fraction=0.55,
            person_fraction=0.25,
            camera_motion=0.0,
            activity_floor=0.03,
        ),
        _d(
            "miami",
            "surveillance",
            "Miami Beach crosswalk; heavy pedestrian and vehicle traffic.",
            arrival_rate=0.50,
            dwell_mean=4.0,
            dwell_min=0.6,
            size_mean=0.075,
            size_sigma=0.5,
            speed_mean=0.06,
            plate_fraction=0.45,
            person_fraction=0.55,
            camera_motion=0.0,
            activity_floor=0.05,
        ),
        _d(
            "tucson",
            "surveillance",
            "Tucson 4th Avenue; light-to-medium street traffic.",
            arrival_rate=0.20,
            dwell_mean=5.0,
            dwell_min=0.7,
            size_mean=0.09,
            size_sigma=0.4,
            speed_mean=0.09,
            plate_fraction=0.5,
            person_fraction=0.3,
            camera_motion=0.0,
            activity_floor=0.03,
        ),
        _d(
            "dashcam",
            "dashcam",
            "Dash camera driving through a parking lot; intense camera motion.",
            arrival_rate=0.50,
            dwell_mean=3.5,
            dwell_min=0.4,
            size_mean=0.16,
            size_sigma=0.5,
            speed_mean=0.16,
            plate_fraction=0.65,
            person_fraction=0.15,
            camera_motion=0.9,
            activity_floor=0.08,
        ),
        _d(
            "park",
            "surveillance",
            "Stationary camera over a parking lot; sparse slow traffic.",
            arrival_rate=0.12,
            dwell_mean=8.0,
            dwell_min=1.0,
            size_mean=0.11,
            size_sigma=0.4,
            speed_mean=0.04,
            plate_fraction=0.6,
            person_fraction=0.2,
            camera_motion=0.0,
            activity_floor=0.02,
        ),
        _d(
            "airport",
            "surveillance",
            "JAC airport parking-lot camera; light traffic, distant objects.",
            arrival_rate=0.15,
            dwell_mean=6.0,
            dwell_min=0.9,
            size_mean=0.07,
            size_sigma=0.45,
            speed_mean=0.05,
            plate_fraction=0.5,
            person_fraction=0.2,
            camera_motion=0.0,
            activity_floor=0.025,
        ),
    )
}

#: Datasets benchmarked with Query A (Diff + S-NN + NN) in the paper.
QUERY_A_DATASETS: Tuple[str, ...] = ("jackson", "miami", "tucson")
#: Datasets benchmarked with Query B (Motion + License + OCR).
QUERY_B_DATASETS: Tuple[str, ...] = ("dashcam", "park", "airport")


def get_dataset(name: str) -> Dataset:
    """Look up a dataset by name, raising a helpful error when unknown."""
    try:
        return DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise KnobError(f"unknown dataset {name!r}; known datasets: {known}") from None
