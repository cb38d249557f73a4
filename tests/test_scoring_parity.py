"""Operator scoring from per-clip terms against the per-probe oracle.

Production scoring builds each operator's fidelity-invariant terms once
per clip and each knob view once per knob value; ``oracles.scoring``
rebuilds everything on every probe, as scoring did before.  Accuracy
feeds ``accuracy >= target`` in the boundary walk, where one ulp can
flip a decision, so the two must agree to the last bit: every float is
compared by ``repr``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from oracles import scoring
from repro.operators.library import default_library
from repro.units import SEGMENT_SECONDS
from repro.video.content import ClipTruth
from repro.video.datasets import DATASETS, get_dataset
from repro.video.fidelity import (
    CROP_FACTORS,
    SAMPLING_RATES,
    fidelity_at,
    fidelity_space,
)

LIBRARY = list(default_library())
FIDELITIES = list(fidelity_space())
SAMPLE = random.Random(0).sample(FIDELITIES, 60)


def _confusion(c) -> tuple:
    return repr(c.tp), repr(c.fp), repr(c.fn)


def _mismatches(clip, fidelities, confusion=True, positive=True):
    """(operator, fidelity, what) for every probe where production scoring
    and the oracle differ in any bit."""
    bad = []
    for op in LIBRARY:
        for fid in fidelities:
            if confusion and (
                _confusion(op.expected_confusion(clip, fid))
                != _confusion(scoring.expected_confusion(op, clip, fid))
            ):
                bad.append((op.name, fid.label, "confusion"))
            if positive and (
                repr(op.expected_positive_fraction(clip, fid))
                != repr(scoring.expected_positive_fraction(op, clip, fid))
            ):
                bad.append((op.name, fid.label, "positive fraction"))
    return bad


def _trackless_clip(n_frames: int, fps: int = 30) -> ClipTruth:
    times = np.arange(n_frames) / float(fps)
    empty = np.zeros((0, n_frames))
    return ClipTruth("none", 0.0, fps, times, [], empty.astype(bool),
                     empty, empty, empty.astype(bool),
                     np.full(n_frames, 0.04))


@pytest.mark.parametrize("which", ["jackson", "dashcam"])
def test_confusion_matches_oracle_at_every_fidelity(which, jackson_clip,
                                                    dashcam_clip):
    clip = jackson_clip if which == "jackson" else dashcam_clip
    assert _mismatches(clip, FIDELITIES, positive=False) == []


@pytest.mark.parametrize("which", ["jackson", "dashcam"])
def test_positive_fraction_matches_oracle(which, jackson_clip, dashcam_clip):
    clip = jackson_clip if which == "jackson" else dashcam_clip
    assert _mismatches(clip, SAMPLE, confusion=False) == []


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_segment_clip_positive_fraction_matches_oracle(dataset):
    clip = get_dataset(dataset).content().clip(0.0, SEGMENT_SECONDS)
    assert _mismatches(clip, SAMPLE, confusion=False) == []


def test_trackless_clip_matches_oracle():
    assert _mismatches(_trackless_clip(240), SAMPLE) == []


def test_consumed_index_matches_unique_form():
    for n_frames in range(1, 601):
        clip = _trackless_clip(n_frames)
        for sampling_idx in range(len(SAMPLING_RATES)):
            fid = fidelity_at(3, 9, sampling_idx, 2)
            got = clip.consumed_index(fid)
            want = scoring.consumed_index(clip, fid)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (n_frames, fid.label)


def test_memoized_views_and_terms_are_shared_and_read_only(jackson_clip):
    clip = jackson_clip
    fid = fidelity_at(3, 5, 1, 1)
    nn, motion = default_library().get("NN"), default_library().get("Motion")
    nn.expected_confusion(clip, fid)
    motion.expected_confusion(clip, fid)
    covering, gaps = clip.label_hold(fid)
    views = [
        clip.consumed_index(fid),
        covering,
        gaps,
        clip.in_crop(CROP_FACTORS[1]),
        nn._terms(clip).truth,
        nn._terms(clip).p_rel(fid),
        *nn._terms(clip).present_match(clip, fid),
        motion._terms(clip).base,
        motion._terms(clip).truth,
    ]
    assert clip.consumed_index(fid) is views[0]
    assert clip.in_crop(CROP_FACTORS[1]) is views[3]
    for view in views:
        with pytest.raises(ValueError):
            view[..., 0] = view[..., 0]


def test_trackless_crop_view_leaves_the_clip_writable():
    clip = _trackless_clip(30)
    assert not clip.in_crop(0.5).flags.writeable
    assert clip.visible.flags.writeable

