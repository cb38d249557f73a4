"""Detector operators: per-object detection with logistic size response.

A detector fires on objects whose *effective apparent size* — pixel height
scaled down by lost image detail — clears the operator's working point:

    p_detect(track, f) = sigmoid((log2(size_eff) - theta) / width)

where ``size_eff = track.size · res_height · feature_scale ·
detail(quality)^quality_alpha · contrast^0.5``.  This single expression
yields the three behaviours Section 2.4 documents:

* monotone accuracy in resolution and quality (O1);
* the quality/resolution interaction: at rich resolutions the logistic is
  saturated and quality barely matters, at poor resolutions a quality step
  moves accuracy a lot;
* per-operator differences: shallow specialized NNs (large theta, large
  quality_alpha) degrade much sooner than a full NN.

Scoring is frame-wise with label propagation, against the operator's own
output at the ingest fidelity: ground-truth positives are (track, frame)
pairs the operator detects at full fidelity; cropping removes objects from
view; sparse sampling misreads event boundaries; low quality adds excess
false positives.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.operators.accuracy import Confusion
from repro.operators.base import Operator, QUALITY_DETAIL, logistic
from repro.video.content import ClipTruth, Track, readonly
from repro.video.fidelity import Fidelity, RESOLUTIONS


class DetectorOperator(Operator):
    """Base class for per-object detectors (S-NN, NN, License, OCR, ...)."""

    #: Track kinds this operator looks for (e.g. only cars for S-NN).
    target_kinds: Tuple[str, ...] = ("car",)
    #: Only tracks with a readable plate are targets (License, OCR).
    requires_plate: bool = False
    #: Fraction of the object's height occupied by the detected feature
    #: (1.0 = the whole object; ~0.25 for a license plate).
    feature_scale: float = 1.0
    #: Logistic working point in log2(pixels) of effective feature height.
    theta: float = 3.0
    #: Logistic width; smaller = sharper accuracy cliff.
    width: float = 0.45
    #: Sensitivity to lost image detail (exponent on QUALITY_DETAIL).
    quality_alpha: float = 1.0
    #: Excess false positives per ingest frame at the poorest quality.
    fp_base: float = 0.03

    # -- detection model ---------------------------------------------------------

    def is_target(self, track: Track) -> bool:
        """Whether a track is the kind of object this operator looks for."""
        if track.kind not in self.target_kinds:
            return False
        if self.requires_plate and track.plate is None:
            return False
        return True

    def detection_prob(self, tracks: Sequence[Track],
                       fidelity: Fidelity) -> np.ndarray:
        """Per-track persistent detection probability at ``fidelity``."""
        if not tracks:
            return np.zeros(0)
        return self._detect(self._track_inputs(tracks), fidelity)

    def _track_inputs(
        self, tracks: Sequence[Track]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(size, sqrt(contrast), is-target) per track: what the detection
        model reads of each track, whatever the fidelity."""
        return (
            np.array([t.size for t in tracks]),
            np.sqrt(np.array([t.contrast for t in tracks])),
            np.array([self.is_target(t) for t in tracks]),
        )

    def _detect(self, inputs: Tuple[np.ndarray, np.ndarray, np.ndarray],
                fidelity: Fidelity) -> np.ndarray:
        sizes, sqrt_contrast, targets = inputs
        res_h = RESOLUTIONS[fidelity.resolution][1]
        detail = QUALITY_DETAIL[fidelity.quality] ** self.quality_alpha
        eff = sizes * res_h * self.feature_scale * detail * sqrt_contrast
        p = logistic((np.log2(np.maximum(eff, 1e-6)) - self.theta) / self.width)
        return np.where(targets, p, 0.0)

    def fp_rate(self, fidelity: Fidelity) -> float:
        """Excess false positives per ingest frame (zero at best quality)."""
        lost_detail = 1.0 - QUALITY_DETAIL[fidelity.quality]
        return self.fp_base * lost_detail**1.5

    # -- scoring -------------------------------------------------------------------

    #: Displacement tolerance for a held (propagated) detection to still
    #: match the ground-truth box, relative to the object's own extent
    #: (boxes overlap until the object has moved a couple of widths).
    hold_match_scale: float = 3.0

    def _terms(self, clip: ClipTruth) -> "_DetectorTerms":
        return clip.memo(self, lambda c: _DetectorTerms(self, c))

    def expected_confusion(self, clip: ClipTruth, fidelity: Fidelity) -> Confusion:
        n = clip.n_frames
        if not clip.tracks:
            return Confusion(0.0, self.fp_rate(fidelity) * n, 0.0)
        terms = self._terms(clip)
        truth = terms.truth
        p_pred, match = terms.prediction(clip, fidelity)
        hit = p_pred * match
        tp = float((hit * truth).sum())
        fn = float(((1.0 - hit) * truth).sum())
        # A drifted held box both misses the object (FN above) and claims a
        # detection where there is none (FP here); claims on frames where
        # the truth says absent are plain false positives.
        fp = (
            float((p_pred * terms.absent).sum())
            + float((p_pred * (1.0 - match) * truth).sum())
            + self.fp_rate(fidelity) * n
        )
        return Confusion(tp, fp, fn)

    def expected_positive_fraction(self, clip: ClipTruth,
                                   fidelity: Fidelity) -> float:
        """Fraction of frames with at least one (possibly false) detection."""
        noise = min(1.0, self.fp_rate(fidelity))
        if not clip.tracks:
            return noise
        p_pred, _ = self._terms(clip).prediction(clip, fidelity)
        p_any = 1.0 - np.prod(1.0 - p_pred, axis=0)  # (n,)
        combined = 1.0 - (1.0 - p_any) * (1.0 - noise)
        return float(np.mean(combined))

    # -- stochastic execution (examples, integration tests) ------------------------

    def run(self, clip: ClipTruth, fidelity: Fidelity,
            rng: np.random.Generator) -> np.ndarray:
        """Sample concrete per-frame detections: (n_consumed, n_tracks) bool."""
        consumed = clip.consumed_index(fidelity)
        if not clip.tracks:
            return np.zeros((len(consumed), 0), dtype=bool)
        p = self.detection_prob(clip.tracks, fidelity)
        persistent = rng.random(len(clip.tracks)) < p
        vis = clip.in_crop(fidelity.crop)[:, consumed]
        return (vis & persistent[:, None]).T


class _DetectorTerms:
    """What scoring one detector on one clip shares across fidelities.

    Built on the first probe and kept in the clip's memo under the
    operator: the detection model's per-track inputs, the ingest-fidelity
    detection probability ``p_full`` and the ``detectable`` tracks it
    yields, the ``truth`` mask and its complement, and each track's
    box-drift rate.  ``p_rel`` is kept per (resolution, quality) and
    ``(present_at_sample, match)`` per (sampling, crop), the knobs each
    depends on.  Every array is read-only.  Methods take the clip rather
    than keep it: a reference back from the clip's memo would be a cycle
    that only the garbage collector frees.
    """

    def __init__(self, op: DetectorOperator, clip: ClipTruth):
        self.op = op
        self.inputs = tuple(readonly(a) for a in op._track_inputs(clip.tracks))
        p_full = op._detect(self.inputs, op.ingest_fidelity)
        self.p_full = readonly(p_full)
        self.detectable = readonly(p_full >= 0.5)
        self.truth = readonly(clip.visible & self.detectable[:, None])
        self.absent = readonly(~self.truth)
        self.drift = readonly(np.array([
            tr.speed * tr.duty / (op.hold_match_scale * tr.size + 0.1)
            for tr in clip.tracks
        ]))
        self._p_rel: Dict[Tuple[int, int], np.ndarray] = {}
        self._present_match: Dict[Tuple[int, int],
                                  Tuple[np.ndarray, np.ndarray]] = {}

    def prediction(self, clip: ClipTruth, fidelity: Fidelity
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """(p_pred, match) per (track, frame), scored against ``truth``:

        * ``p_pred`` — probability the operator claims the track present at
          the frame (detected at the covering sample, label held since);
        * ``match`` — probability the held detection still *matches* the
          ground-truth box: objects drift away from a stale box, so the
          match decays with (speed x hold gap) relative to object size.
          This is where sparse sampling costs detector accuracy.
        """
        present_at_sample, match = self.present_match(clip, fidelity)
        return self.p_rel(fidelity)[:, None] * present_at_sample, match

    def p_rel(self, fidelity: Fidelity) -> np.ndarray:
        """Relative detection probability per track: 1 at the ingest
        fidelity by definition, 0 for undetectable tracks."""
        key = (fidelity.resolution_idx, fidelity.quality_idx)
        p_rel = self._p_rel.get(key)
        if p_rel is None:
            p_now = self.op._detect(self.inputs, fidelity)
            with np.errstate(divide="ignore", invalid="ignore"):
                p_rel = np.where(self.detectable,
                                 np.minimum(1.0, p_now / self.p_full), 0.0)
            p_rel = self._p_rel[key] = readonly(p_rel)
        return p_rel

    def present_match(self, clip: ClipTruth, fidelity: Fidelity
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Per (track, frame): whether the track is in the cropped view at
        the covering sample, and the probability its held box still
        matches the ground truth."""
        key = (fidelity.sampling_idx, fidelity.crop_idx)
        pair = self._present_match.get(key)
        if pair is None:
            covering, gaps = clip.label_hold(fidelity)
            vis_crop = clip.in_crop(fidelity.crop)
            # The operator must see the track in the cropped view at the
            # covering sample to report it present at frame j.
            present_at_sample = vis_crop[:, covering]
            match = np.exp(-self.drift[:, None] * gaps[None, :])
            # A held box cannot match once the object has left the cropped
            # view; the stale claim is then a miss plus a spurious box.
            match = match * vis_crop
            pair = self._present_match[key] = (
                readonly(present_at_sample), readonly(match)
            )
        return pair
