"""Operator base class: cost model, detection model, scoring plumbing.

Every operator consumes raw frames at some fidelity and emits per-frame
output.  Two families share the scoring machinery:

* **detector operators** (S-NN, NN, License, OCR, Color, Contour) emit
  per-object detections; see :mod:`repro.operators.detector`;
* **signal operators** (Diff, Motion, Opflow) emit a binary per-frame
  label driven by a scalar scene signal; see
  :mod:`repro.operators.signal_op`.

Accuracy is computed frame-wise against the operator's own output at the
ingest fidelity, with sampled outputs propagated forward in time until the
next consumed frame (the standard label-hold convention of NoScope-style
engines).  Consequently accuracy at the ingest fidelity is exactly 1.0.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from repro.operators.accuracy import Confusion
from repro.video.content import ClipTruth
from repro.video.fidelity import Fidelity, richest_fidelity

#: Fraction of fine image detail surviving each quality level; feeds the
#: effective-size computation of detection models.  ``best`` keeps all
#: detail so ingest-fidelity accuracy is exact.
QUALITY_DETAIL = {"best": 1.0, "good": 0.85, "bad": 0.55, "worst": 0.30}


def logistic(x: np.ndarray) -> np.ndarray:
    """Numerically safe logistic sigmoid."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


class Operator(abc.ABC):
    """An algorithmic video consumer."""

    #: Operator name as listed in Table 2 (e.g. ``"License"``).
    name: str = "?"
    #: Whether the implementation runs on CPU or GPU in the paper (metadata).
    platform: str = "cpu"
    #: Fixed per-frame cost in seconds, independent of resolution.
    cost_base: float = 1e-4
    #: Per-frame cost per megapixel (to the power ``cost_gamma``).
    cost_per_mp: float = 1e-3
    #: Resolution-scaling exponent of the variable cost term.
    cost_gamma: float = 1.0

    # -- consumption cost (observation O2: quality never appears here) -------

    def cost_per_frame(self, fidelity: Fidelity) -> float:
        """Simulated seconds to consume one frame at ``fidelity``."""
        mp = fidelity.pixels / 1e6
        return self.cost_base + self.cost_per_mp * mp**self.cost_gamma

    def consumption_seconds(self, fidelity: Fidelity, video_seconds: float) -> float:
        """Simulated seconds to consume ``video_seconds`` of footage."""
        return self.cost_per_frame(fidelity) * fidelity.fps * video_seconds

    def consumption_speed(self, fidelity: Fidelity) -> float:
        """Consumption speed in x realtime (reciprocal of cost)."""
        per_second = self.cost_per_frame(fidelity) * fidelity.fps
        return float("inf") if per_second <= 0 else 1.0 / per_second

    # -- accuracy ---------------------------------------------------------------

    @abc.abstractmethod
    def expected_confusion(self, clip: ClipTruth, fidelity: Fidelity) -> Confusion:
        """Expected confusion counts of this operator on ``clip`` at
        ``fidelity``, scored against its own ingest-fidelity output."""

    @abc.abstractmethod
    def expected_positive_fraction(self, clip: ClipTruth,
                                   fidelity: Fidelity) -> float:
        """Expected fraction of frames this operator flags positive —
        the selectivity it contributes inside a query cascade."""

    def accuracy(self, clip: ClipTruth, fidelity: Fidelity) -> float:
        """Measured F1 score on ``clip`` at ``fidelity``."""
        return self.expected_confusion(clip, fidelity).f1

    def profile(self, clip: ClipTruth, fidelity: Fidelity) -> Tuple[float, float]:
        """(accuracy, consumption speed) — the pair the profiler records."""
        return self.accuracy(clip, fidelity), self.consumption_speed(fidelity)

    # -- misc ----------------------------------------------------------------------

    @property
    def ingest_fidelity(self) -> Fidelity:
        """The ground-truth fidelity (the ingest format)."""
        return richest_fidelity()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
