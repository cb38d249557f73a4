"""Synthetic content model: determinism, geometry, clip truth."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.video.content import ContentModel, WINDOW_SECONDS
from repro.video.datasets import DATASETS, get_dataset
from repro.video.fidelity import Fidelity

from oracles import content as per_track


@pytest.fixture(scope="module")
def model():
    return get_dataset("jackson").content()


def test_tracks_are_deterministic(model):
    # A second, independent model: ``content()`` would hand back ``model``.
    again = ContentModel("jackson", DATASETS["jackson"].params)
    a = model.tracks_between(0.0, 300.0)
    b = again.tracks_between(0.0, 300.0)
    assert [t.tid for t in a] == [t.tid for t in b]
    assert [t.x0 for t in a] == [t.x0 for t in b]


def test_tracks_differ_across_datasets():
    a = get_dataset("jackson").content().tracks_between(0.0, 300.0)
    b = get_dataset("tucson").content().tracks_between(0.0, 300.0)
    assert [t.tid for t in a] != [t.tid for t in b] or len(a) != len(b)


def test_tracks_between_overlap_semantics(model):
    tracks = model.tracks_between(100.0, 200.0)
    assert all(t.t1 >= 100.0 and t.t0 < 200.0 for t in tracks)
    assert tracks == sorted(tracks, key=lambda t: t.t0)


def test_arrival_rate_roughly_matches(model):
    horizon = 3000.0
    tracks = [t for t in model.tracks_between(0.0, horizon) if t.t0 < horizon]
    rate = len(tracks) / horizon
    expected = DATASETS["jackson"].params.arrival_rate
    assert rate == pytest.approx(expected, rel=0.35)


def test_track_geometry(model):
    for t in model.tracks_between(0.0, 600.0):
        assert t.t1 > t.t0
        assert 0.0 < t.size <= 0.6


def test_moving_duty_cycle(model):
    for t in model.tracks_between(0.0, 600.0):
        assert 0.0 < t.duty <= 1.0


def test_camera_activity_static_vs_dashcam():
    static = get_dataset("park").content()
    dash = get_dataset("dashcam").content()
    ts = np.linspace(0.0, 120.0, 400)
    s = np.array([static.camera_activity(t) for t in ts])
    d = np.array([dash.camera_activity(t) for t in ts])
    assert (s == s[0]).all()  # a static camera has constant floor
    assert d.mean() > 5 * s.mean()
    assert d.min() < 0.15  # the dash camera does stop


def test_clip_truth_shapes(model):
    clip = model.clip(64.0, 10.0)
    n = clip.n_frames
    assert n == 300
    assert clip.duration == pytest.approx(10.0)
    nt = len(clip.tracks)
    for arr in (clip.visible, clip.xs, clip.ys, clip.moving):
        assert arr.shape == (nt, n)
    assert clip.activity.shape == (n,)
    assert (clip.activity >= 0).all()


def test_clip_truth_visibility_consistent(model):
    clip = model.clip(64.0, 10.0)
    for i, tr in enumerate(clip.tracks):
        vis = clip.visible[i]
        # xs/ys defined exactly where visible
        assert np.isfinite(clip.xs[i][vis]).all()
        assert np.isnan(clip.xs[i][~vis]).all()
        # moving implies visible
        assert not (clip.moving[i] & ~vis).any()


def test_in_crop_mask_monotone_in_crop(model):
    clip = model.clip(64.0, 10.0)
    narrow = clip.in_crop(0.5)
    mid = clip.in_crop(0.75)
    wide = clip.in_crop(1.0)
    assert not (narrow & ~mid).any()
    assert not (mid & ~wide).any()
    assert (wide == clip.visible).all()


@given(st.sampled_from([Fraction(1, 30), Fraction(1, 6), Fraction(1, 2),
                        Fraction(2, 3), Fraction(1)]))
@settings(max_examples=10, deadline=None)
def test_consumed_index_keeps_sampling_fraction(sampling):
    model = get_dataset("tucson").content()
    clip = model.clip(0.0, 10.0)
    f = Fidelity("best", "720p", sampling, 1.0)
    idx = clip.consumed_index(f)
    assert idx[0] == 0
    assert (np.diff(idx) >= 1).all()
    # The consumed fraction matches the sampling rate (within one frame).
    assert len(idx) == pytest.approx(300 * float(sampling), abs=1.01)
    # Integer strides are exact (e.g. 1/30 keeps frames 0, 30, 60, ...).
    if (1 / sampling).denominator == 1:
        assert (np.diff(idx) == int(1 / sampling)).all()


def test_window_cache_returns_same_objects(model):
    a = model.tracks_between(0.0, 10.0)
    b = model.tracks_between(0.0, 10.0)
    assert all(x is y for x, y in zip(a, b))


def test_window_seconds_sane():
    assert WINDOW_SECONDS > 0


# -- parity with the per-track clip build -------------------------------------

#: Clip shapes as (fps, seconds, offsets): 10-s clips at the ingest rate, as
#: profiling scans them, and 8-s segments at ingest's 2-fps activity pass.
CLIP_SHAPES = [
    pytest.param(30, 10.0, (0.0, 64.0, 320.0, 1000.0), id="30fps"),
    pytest.param(2, 8.0, tuple(8.0 * i for i in range(32)), id="2fps"),
]


def assert_same_clip(got, want):
    """Equal tracks, and every array equal in dtype, shape and bytes."""
    assert got.tracks == want.tracks
    for name in ("times", "visible", "xs", "ys", "moving", "activity"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                   b.tobytes()), name


@pytest.mark.parametrize("fps, seconds, offsets", CLIP_SHAPES)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_clip_matches_the_per_track_build(dataset, fps, seconds, offsets):
    model = ContentModel(dataset, DATASETS[dataset].params)
    clips = [model.clip(t0, seconds, fps) for t0 in offsets]
    assert any(clip.tracks for clip in clips)
    for t0, clip in zip(offsets, clips):
        assert_same_clip(clip, per_track.clip(model, t0, seconds, fps))


# dashcam's moving camera and park's static one: both activity branches.
CAMERAS = pytest.mark.parametrize("dataset", ["dashcam", "park"])


@CAMERAS
@pytest.mark.parametrize("fps, seconds", [(30, 10.0), (2, 8.0)])
def test_trackless_clip_matches_the_per_track_build(dataset, fps, seconds):
    params = dataclasses.replace(DATASETS[dataset].params, arrival_rate=0.0)
    model = ContentModel(dataset, params)
    clip = model.clip(64.0, seconds, fps)
    assert not clip.tracks
    assert_same_clip(clip, per_track.clip(model, 64.0, seconds, fps))


@CAMERAS
def test_camera_activity_is_one_formula_for_scalars_and_arrays(dataset):
    model = ContentModel(dataset, DATASETS[dataset].params)
    times = 64.0 + np.arange(300) / 30.0
    want = [per_track.camera_activity(model, t) for t in times]
    assert model.camera_activity(times).tolist() == want
    assert [float(model.camera_activity(float(t))) for t in times] == want
    assert (len(set(want)) > 1) == (model.params.camera_motion > 0.0)
