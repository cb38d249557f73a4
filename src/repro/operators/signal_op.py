"""Signal operators: binary per-frame labels from a scalar scene signal.

Diff, Motion and Opflow do not localize objects; they threshold a scalar
measure of scene change.  The measured signal at fidelity f is the true
signal with contributions attenuated for objects the fidelity can no longer
resolve, and the label is probabilistic around the threshold with a noise
scale that grows as image quality drops:

    P(label=1 | frame) = sigmoid((signal_f - threshold) / noise(f))

At the ingest fidelity the noise scale is tiny and the measured signal is
the true signal, so labels equal ground truth and F1 is 1.0.
"""

from __future__ import annotations

import numpy as np

from repro.operators.accuracy import Confusion
from repro.operators.base import Operator, QUALITY_DETAIL, logistic
from repro.video.content import ClipTruth, readonly
from repro.video.fidelity import Fidelity, RESOLUTIONS


class SignalOperator(Operator):
    """Base class for Diff/Motion/Opflow-style frame labelers."""

    #: Label threshold on the scalar signal.
    threshold: float = 0.06
    #: Noise scale at best quality (keeps ingest-fidelity labels crisp).
    noise_floor: float = 5.0e-4
    #: Additional noise at the poorest quality.
    quality_noise: float = 0.02
    #: Sensitivity of the noise to lost detail (exponent).
    quality_alpha: float = 1.0
    #: Noise per unit of resolution shrink: a 60x60 frame quantizes the
    #: measured signal far more coarsely than the 720p original.
    res_noise: float = 1.0e-3
    #: Working point (log2 px of object height) below which an object stops
    #: contributing to the measured signal.
    detect_theta: float = 2.0
    detect_width: float = 0.6
    #: Weight of camera-induced activity in the signal.
    camera_weight: float = 1.0
    #: Decay rate (per second of hold gap) of a held label's confidence:
    #: the scene keeps evolving after the sample, so a stale label drifts
    #: toward a coin flip.  This is where sparse sampling costs accuracy.
    hold_decay: float = 0.3

    # -- signal model -------------------------------------------------------------

    def object_contribution(self, clip: ClipTruth) -> np.ndarray:
        """Per-track signal contribution when fully resolved (nt,)."""
        if not clip.tracks:
            return np.zeros(0)
        return np.array(
            [t.size * min(1.0, t.speed / 0.05) for t in clip.tracks]
        )

    def _weight(self, sizes: np.ndarray, res_name: str,
                quality: str) -> np.ndarray:
        """How well tracks of these sizes are resolved at a resolution and
        quality (unnormalized)."""
        res_h = RESOLUTIONS[res_name][1]
        detail = QUALITY_DETAIL[quality] ** (self.quality_alpha * 0.5)
        eff = np.maximum(sizes * res_h * detail, 1e-6)
        return logistic((np.log2(eff) - self.detect_theta) / self.detect_width)

    def signal(self, clip: ClipTruth, fidelity: Fidelity) -> np.ndarray:
        """Measured per-frame signal at ``fidelity`` (n,)."""
        return self._signal(clip, self._terms(clip), fidelity)

    def _signal(self, clip: ClipTruth, terms: "_SignalTerms",
                fidelity: Fidelity) -> np.ndarray:
        if not clip.tracks:
            return terms.base
        # How well each track is resolved at ``fidelity``, in [0, 1],
        # normalized to 1 at the ingest fidelity.
        now = self._weight(terms.sizes, fidelity.resolution, fidelity.quality)
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = np.where(terms.full > 0,
                               np.minimum(1.0, now / terms.full), 0.0)
        # Only objects that are both inside the cropped view and in the
        # moving phase of their duty cycle change pixels frame to frame.
        active = clip.in_crop(fidelity.crop) & clip.moving
        per_frame = (terms.contribution * weights)[:, None] * active
        return terms.base + per_frame.sum(axis=0)

    def noise_scale(self, fidelity: Fidelity) -> float:
        lost = 1.0 - QUALITY_DETAIL[fidelity.quality]
        res_h = RESOLUTIONS[fidelity.resolution][1]
        return (
            self.noise_floor
            + self.quality_noise * lost**self.quality_alpha
            + self.res_noise * (720.0 / res_h - 1.0)
        )

    def label_probability(self, clip: ClipTruth, fidelity: Fidelity) -> np.ndarray:
        """P(positive label) per frame at ``fidelity`` (n,)."""
        sig = self.signal(clip, fidelity)
        return logistic((sig - self.threshold) / self.noise_scale(fidelity))

    # -- scoring --------------------------------------------------------------------

    def _terms(self, clip: ClipTruth) -> "_SignalTerms":
        return clip.memo(self, lambda c: _SignalTerms(self, c))

    def _held_probability(self, clip: ClipTruth,
                          fidelity: Fidelity) -> np.ndarray:
        """Per-frame positive-label probability after label hold: the
        covering sample's label, decayed toward 0.5 with the hold gap."""
        p = self.label_probability(clip, fidelity)
        covering, gaps = clip.label_hold(fidelity)
        confidence = np.exp(-gaps * self.hold_decay)
        return 0.5 + (p[covering] - 0.5) * confidence

    def expected_confusion(self, clip: ClipTruth, fidelity: Fidelity) -> Confusion:
        terms = self._terms(clip)
        p_held = self._held_probability(clip, fidelity)
        held_true = p_held[terms.truth]
        tp = float(held_true.sum())
        fn = float((1.0 - held_true).sum())
        fp = float(p_held[terms.absent].sum())
        return Confusion(tp, fp, fn)

    def expected_positive_fraction(self, clip: ClipTruth,
                                   fidelity: Fidelity) -> float:
        """Fraction of frames labeled positive (cascade selectivity)."""
        return float(np.mean(self._held_probability(clip, fidelity)))

    # -- stochastic execution ----------------------------------------------------------

    def run(self, clip: ClipTruth, fidelity: Fidelity,
            rng: np.random.Generator) -> np.ndarray:
        """Sample concrete binary labels for the consumed frames."""
        consumed = clip.consumed_index(fidelity)
        p = self.label_probability(clip, fidelity)[consumed]
        return rng.random(len(consumed)) < p


def _camera_activity(clip: ClipTruth) -> np.ndarray:
    """Camera-induced component of the clip's per-frame activity."""
    if not clip.tracks:
        return clip.activity.copy()
    boost = (
        np.array([t.size**2 * t.speed * 25.0 for t in clip.tracks])[:, None]
        * clip.moving
    ).sum(axis=0)
    return np.maximum(0.0, clip.activity - boost)


class _SignalTerms:
    """What scoring one signal operator on one clip shares across
    fidelities.

    Built on the first probe and kept in the clip's memo under the
    operator: the camera component of the signal (``base``), per-track
    ``sizes`` and fully-resolved ``contribution``, the ingest-fidelity
    resolve weight ``full`` (these three only when the clip has tracks),
    and the ingest-fidelity labels ``truth`` and their complement.
    Every array is read-only.
    """

    def __init__(self, op: SignalOperator, clip: ClipTruth):
        self.base = readonly(op.camera_weight * _camera_activity(clip))
        if clip.tracks:
            self.sizes = readonly(np.array([t.size for t in clip.tracks]))
            self.contribution = readonly(op.object_contribution(clip))
            self.full = readonly(op._weight(self.sizes, "720p", "best"))
        truth = op._signal(clip, self, op.ingest_fidelity) > op.threshold
        self.truth = readonly(truth)
        self.absent = readonly(~truth)
