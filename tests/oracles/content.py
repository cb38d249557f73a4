"""The clip build :meth:`ClipTruth.build` replaced: one NumPy round per
track and one scalar camera-activity call per frame.

``clip(model, t0, duration, fps)`` must equal ``model.clip(t0, duration,
fps)`` bit for bit in every array (``tests/test_content.py``).
"""

from __future__ import annotations

import numpy as np

from repro.video.content import ClipTruth, ContentModel
from repro.video.fidelity import INGEST_FPS


def camera_activity(model: ContentModel, t: float) -> float:
    """Camera-induced frame change at one instant."""
    p = model.params
    if p.camera_motion <= 0.0:
        return p.activity_floor
    raw = np.sin(t / 2.9) + 0.3 * np.sin(t / 1.1 + 1.0)
    wave = float(np.clip(raw, 0.0, 1.2)) / 1.2
    return p.activity_floor + p.camera_motion * (0.03 + 0.97 * wave)


def clip(model: ContentModel, t0: float, duration: float,
         fps: int = INGEST_FPS) -> ClipTruth:
    """Ground truth for a clip, one track at a time."""
    n = max(1, int(round(duration * fps)))
    times = t0 + np.arange(n) / float(fps)
    tracks = model.tracks_between(t0, t0 + duration)
    nt = len(tracks)
    visible = np.zeros((nt, n), dtype=bool)
    xs = np.full((nt, n), np.nan)
    ys = np.full((nt, n), np.nan)
    moving = np.zeros((nt, n), dtype=bool)
    for i, tr in enumerate(tracks):
        alive = (times >= tr.t0) & (times <= tr.t1)
        dt = times - tr.t0
        x = tr.x0 + tr.vx * dt
        y = tr.y0 + tr.vy * dt
        vis = alive & (x >= 0) & (x <= 1) & (y >= 0) & (y <= 1)
        visible[i] = vis
        xs[i, vis] = x[vis]
        ys[i, vis] = y[vis]
        cycle = (dt / tr.period + tr.phase) % 1.0
        moving[i] = vis & (cycle < tr.duty)
    activity = np.array([camera_activity(model, t) for t in times])
    if nt:
        boost = (np.array([tr.size**2 * tr.speed * 25.0 for tr in tracks])
                 [:, None] * moving)
        activity = activity + boost.sum(axis=0)
    return ClipTruth(model.name, t0, fps, times, tracks, visible, xs, ys,
                     moving, np.minimum(activity, 2.0))
