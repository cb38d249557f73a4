"""Scoring parity oracle: operator accuracy recomputed on every probe.

Operators score a fidelity from per-clip terms built once
(``ClipTruth``'s memoized knob views and each operator's terms in the
clip's memo).  The functions here are the per-probe scoring code that
replaced, with ``self`` renamed ``op``: every call rebuilds every array
from the clip's raw ground truth, and the clip's frame and crop views
come from the copies below, not from the clip's memo.  Production
scoring must match them bit for bit (``repr``-equal floats).

Only operator methods the change left alone are called on ``op``
(``is_target``, ``fp_rate``, ``noise_scale``, ``object_contribution``,
``gap_confidence`` and the class attributes).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.operators.accuracy import Confusion
from repro.operators.base import QUALITY_DETAIL, Operator, logistic
from repro.operators.detector import DetectorOperator
from repro.operators.opflow import OpflowOperator
from repro.video.content import ClipTruth, Track
from repro.video.fidelity import Fidelity, RESOLUTIONS

__all__ = [
    "consumed_index",
    "expected_confusion",
    "expected_positive_fraction",
]


# -- the clip's frame and crop views -----------------------------------------


def consumed_index(clip: ClipTruth, fidelity: Fidelity) -> np.ndarray:
    """``ClipTruth.consumed_index`` in its ``np.unique`` form."""
    s = float(fidelity.sampling)
    if s >= 1.0:
        return np.arange(clip.n_frames)
    n_consumed = int(np.ceil(clip.n_frames * s))
    idx = np.unique(np.floor(np.arange(n_consumed) / s).astype(int))
    return idx[idx < clip.n_frames]


def in_crop(clip: ClipTruth, crop: float) -> np.ndarray:
    """(n_tracks, n) mask: visible and inside the central crop window."""
    if not clip.tracks:
        return clip.visible
    margin = (1.0 - crop) / 2.0
    inside = (
        (clip.xs >= margin)
        & (clip.xs <= 1.0 - margin)
        & (clip.ys >= margin)
        & (clip.ys <= 1.0 - margin)
    )
    return clip.visible & inside


def propagation_map(n_frames: int, consumed: np.ndarray) -> np.ndarray:
    positions = np.searchsorted(consumed, np.arange(n_frames), side="right") - 1
    return consumed[np.maximum(positions, 0)]


# -- detectors ----------------------------------------------------------------


def detection_prob(op: DetectorOperator, tracks: Sequence[Track],
                   fidelity: Fidelity) -> np.ndarray:
    if not tracks:
        return np.zeros(0)
    res_h = RESOLUTIONS[fidelity.resolution][1]
    detail = QUALITY_DETAIL[fidelity.quality] ** op.quality_alpha
    sizes = np.array([t.size for t in tracks])
    contrast = np.array([t.contrast for t in tracks])
    eff = sizes * res_h * op.feature_scale * detail * np.sqrt(contrast)
    p = logistic((np.log2(np.maximum(eff, 1e-6)) - op.theta) / op.width)
    targets = np.array([op.is_target(t) for t in tracks])
    return np.where(targets, p, 0.0)


def prediction_probs(
    op: DetectorOperator, clip: ClipTruth, fidelity: Fidelity
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``DetectorOperator._prediction_probs``: (truth, p_pred, match)."""
    p_full = detection_prob(op, clip.tracks, op.ingest_fidelity)
    detectable = p_full >= 0.5
    p_now = detection_prob(op, clip.tracks, fidelity)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_rel = np.where(detectable, np.minimum(1.0, p_now / p_full), 0.0)

    truth = clip.visible & detectable[:, None]  # (nt, n)
    consumed = consumed_index(clip, fidelity)
    covering = propagation_map(clip.n_frames, consumed)  # (n,)
    vis_crop = in_crop(clip, fidelity.crop)
    present_at_sample = vis_crop[:, covering]
    p_pred = p_rel[:, None] * present_at_sample

    gaps = (np.arange(clip.n_frames) - covering) / float(clip.fps)  # (n,)
    if clip.tracks:
        drift = np.array([
            tr.speed * tr.duty / (op.hold_match_scale * tr.size + 0.1)
            for tr in clip.tracks
        ])
        match = np.exp(-drift[:, None] * gaps[None, :])
        match = match * vis_crop
    else:
        match = np.ones((0, clip.n_frames))
    return truth, p_pred, match


def detector_confusion(op: DetectorOperator, clip: ClipTruth,
                       fidelity: Fidelity) -> Confusion:
    n = clip.n_frames
    if not clip.tracks:
        return Confusion(0.0, op.fp_rate(fidelity) * n, 0.0)
    truth, p_pred, match = prediction_probs(op, clip, fidelity)
    hit = p_pred * match
    tp = float((hit * truth).sum())
    fn = float(((1.0 - hit) * truth).sum())
    fp = (
        float((p_pred * ~truth).sum())
        + float((p_pred * (1.0 - match) * truth).sum())
        + op.fp_rate(fidelity) * n
    )
    return Confusion(tp, fp, fn)


def detector_positive_fraction(op: DetectorOperator, clip: ClipTruth,
                               fidelity: Fidelity) -> float:
    noise = min(1.0, op.fp_rate(fidelity))
    if not clip.tracks:
        return noise
    _, p_pred, _ = prediction_probs(op, clip, fidelity)
    p_any = 1.0 - np.prod(1.0 - p_pred, axis=0)  # (n,)
    combined = 1.0 - (1.0 - p_any) * (1.0 - noise)
    return float(np.mean(combined))


# -- signal operators -----------------------------------------------------------


def camera_activity(clip: ClipTruth) -> np.ndarray:
    if not clip.tracks:
        return clip.activity.copy()
    boost = (
        np.array([t.size**2 * t.speed * 25.0 for t in clip.tracks])[:, None]
        * clip.moving
    ).sum(axis=0)
    return np.maximum(0.0, clip.activity - boost)


def resolve_weight(op, clip: ClipTruth, fidelity: Fidelity) -> np.ndarray:
    if not clip.tracks:
        return np.zeros(0)

    def weight(res_name: str, quality: str) -> np.ndarray:
        res_h = RESOLUTIONS[res_name][1]
        detail = QUALITY_DETAIL[quality] ** (op.quality_alpha * 0.5)
        sizes = np.array([t.size for t in clip.tracks])
        eff = np.maximum(sizes * res_h * detail, 1e-6)
        return logistic((np.log2(eff) - op.detect_theta) / op.detect_width)

    full = weight("720p", "best")
    now = weight(fidelity.resolution, fidelity.quality)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(full > 0, np.minimum(1.0, now / full), 0.0)


def signal(op, clip: ClipTruth, fidelity: Fidelity) -> np.ndarray:
    base = op.camera_weight * camera_activity(clip)
    if not clip.tracks:
        return base
    contribution = op.object_contribution(clip)
    weights = resolve_weight(op, clip, fidelity)
    active = in_crop(clip, fidelity.crop) & clip.moving
    per_frame = (contribution * weights)[:, None] * active
    return base + per_frame.sum(axis=0)


def label_probability(op, clip: ClipTruth, fidelity: Fidelity) -> np.ndarray:
    """``SignalOperator.label_probability``, with ``OpflowOperator``'s
    override folded in."""
    sig = signal(op, clip, fidelity)
    p = logistic((sig - op.threshold) / op.noise_scale(fidelity))
    if isinstance(op, OpflowOperator):
        confidence = op.gap_confidence(clip, fidelity)
        p = 0.5 + (p - 0.5) * confidence
    return p


def held_probability(op, clip: ClipTruth, fidelity: Fidelity) -> np.ndarray:
    """``SignalOperator._held_probability``."""
    p = label_probability(op, clip, fidelity)
    consumed = consumed_index(clip, fidelity)
    covering = propagation_map(clip.n_frames, consumed)
    gaps = (np.arange(clip.n_frames) - covering) / float(clip.fps)
    confidence = np.exp(-gaps * op.hold_decay)
    return 0.5 + (p[covering] - 0.5) * confidence


def signal_confusion(op, clip: ClipTruth, fidelity: Fidelity) -> Confusion:
    truth = signal(op, clip, op.ingest_fidelity) > op.threshold
    p_held = held_probability(op, clip, fidelity)
    tp = float(p_held[truth].sum())
    fn = float((1.0 - p_held[truth]).sum())
    fp = float(p_held[~truth].sum())
    return Confusion(tp, fp, fn)


# -- dispatch ---------------------------------------------------------------------


def expected_confusion(op: Operator, clip: ClipTruth,
                       fidelity: Fidelity) -> Confusion:
    """``op.expected_confusion(clip, fidelity)``, recomputed per probe."""
    if isinstance(op, DetectorOperator):
        return detector_confusion(op, clip, fidelity)
    return signal_confusion(op, clip, fidelity)


def expected_positive_fraction(op: Operator, clip: ClipTruth,
                               fidelity: Fidelity) -> float:
    """``op.expected_positive_fraction(clip, fidelity)``, per probe."""
    if isinstance(op, DetectorOperator):
        return detector_positive_fraction(op, clip, fidelity)
    return float(np.mean(held_probability(op, clip, fidelity)))
