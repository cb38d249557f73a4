"""Synthetic scene content: the ground truth behind every dataset.

The paper evaluates on six real videos.  Offline we cannot ship those, so
each dataset is replaced by a deterministic generative model of its *content*
— the aspects analytics actually observe:

* **tracks**: vehicles (and people) entering the scene, moving along linear
  trajectories and leaving; each has a size, speed, color, and possibly a
  readable license plate;
* **per-frame activity**: how much the image changes frame to frame, which
  drives both codec efficiency (motion makes video bigger) and the behaviour
  of Diff/Motion-style operators.

Everything is seeded from the dataset name and the absolute time window, so
any clip can be regenerated bit-identically at any point of the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar,
)

import numpy as np

from repro.rng import rng_for
from repro.video.fidelity import Fidelity, INGEST_FPS

#: Length of the generation window; tracks are drawn per window.
WINDOW_SECONDS = 64.0

#: Colors a vehicle may have (the Color operator searches for one of these).
VEHICLE_COLORS: Tuple[str, ...] = ("white", "black", "silver", "red", "blue")

#: Characters a synthetic license plate is made of.
_PLATE_ALPHABET = "ABCDEFGHJKLMNPRSTUVWXYZ0123456789"

_T = TypeVar("_T")


def readonly(array: np.ndarray) -> np.ndarray:
    """``array``, frozen: a memoized view is shared by every caller, so
    writing into it raises instead of corrupting later scores."""
    array.flags.writeable = False
    return array


def propagation_map(n_frames: int, consumed: np.ndarray) -> np.ndarray:
    """For each ingest frame j, the index of the consumed frame whose output
    covers j (the latest consumed frame at or before j)."""
    positions = np.searchsorted(consumed, np.arange(n_frames), side="right") - 1
    return consumed[np.maximum(positions, 0)]


@dataclass(frozen=True)
class Track:
    """One object moving through the scene during [t0, t1]."""

    tid: int
    kind: str  # "car" or "person"
    t0: float
    t1: float
    x0: float  # normalized center position at t0
    y0: float
    vx: float  # normalized units per second
    vy: float
    size: float  # normalized bbox height (fraction of frame height)
    speed: float  # |velocity| in normalized units/s (cached for convenience)
    color: str
    plate: Optional[str]  # license plate text, None if not readable
    contrast: float  # 0..1, how much the object stands out
    # Stop-and-go gating: the object only *moves* during a ``duty`` fraction
    # of each ``period`` seconds (cars idle at intersections, park, etc.).
    duty: float = 1.0
    period: float = 8.0
    phase: float = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class ContentParams:
    """Per-dataset content statistics (set in :mod:`repro.video.datasets`)."""

    arrival_rate: float  # expected new tracks per second
    dwell_mean: float  # mean seconds a track stays in frame
    dwell_min: float  # shortest possible dwell
    size_mean: float  # mean normalized object height
    size_sigma: float  # lognormal sigma of sizes
    speed_mean: float  # mean normalized speed (units/s)
    plate_fraction: float  # fraction of cars with a readable plate
    person_fraction: float  # fraction of tracks that are people, not cars
    camera_motion: float  # 0 (static camera) .. 1 (driving dash camera)
    activity_floor: float  # background activity (foliage, shadows, noise)


class ContentModel:
    """Deterministic scene generator for one dataset.

    Tracks are seeded by (dataset, window), so two models of one dataset
    generate the same footage; :meth:`Dataset.content` keeps one model per
    dataset so that every stream alias, profiler and query engine of a
    process reads one window cache and one segment-activity memo.
    """

    def __init__(self, name: str, params: ContentParams):
        self.name = name
        self.params = params
        self._window_cache: Dict[int, List[Track]] = {}
        self._activity: Dict[Tuple[float, float, int], float] = {}

    # -- track generation ----------------------------------------------------

    def _tracks_in_window(self, window: int) -> List[Track]:
        """Tracks whose lifetime starts inside generation window ``window``."""
        cached = self._window_cache.get(window)
        if cached is not None:
            return cached
        p = self.params
        rng = rng_for(self.name, "window", window)
        n = int(rng.poisson(p.arrival_rate * WINDOW_SECONDS))
        tracks: List[Track] = []
        base = window * WINDOW_SECONDS
        for i in range(n):
            t0 = base + float(rng.uniform(0.0, WINDOW_SECONDS))
            dwell = max(p.dwell_min, float(rng.exponential(p.dwell_mean)))
            kind = "person" if rng.random() < p.person_fraction else "car"
            size = float(np.clip(rng.lognormal(np.log(p.size_mean), p.size_sigma),
                                 0.01, 0.6))
            if kind == "person":
                size *= 0.6
            angle = float(rng.uniform(0.0, 2.0 * np.pi))
            speed = max(0.0, float(rng.normal(p.speed_mean, p.speed_mean * 0.4)))
            vx, vy = speed * np.cos(angle), speed * np.sin(angle)
            # Cameras are pointed at the area of interest: trajectories are
            # biased toward the frame center (which is also what makes the
            # paper's crop factor a mild rather than catastrophic knob).
            x0 = float(np.clip(rng.normal(0.5, 0.17), 0.03, 0.97))
            y0 = float(np.clip(rng.normal(0.5, 0.15), 0.05, 0.95))
            plate = None
            if kind == "car" and rng.random() < p.plate_fraction:
                plate = "".join(
                    _PLATE_ALPHABET[j]
                    for j in rng.integers(0, len(_PLATE_ALPHABET), size=7)
                )
            tracks.append(
                Track(
                    tid=window * 100_000 + i,
                    kind=kind,
                    t0=t0,
                    t1=t0 + dwell,
                    x0=x0,
                    y0=y0,
                    vx=vx,
                    vy=vy,
                    size=size,
                    speed=speed,
                    color=VEHICLE_COLORS[int(rng.integers(0, len(VEHICLE_COLORS)))],
                    plate=plate,
                    contrast=float(rng.uniform(0.4, 1.0)),
                    duty=float(rng.uniform(0.3, 1.0)),
                    period=float(rng.uniform(5.0, 12.0)),
                    phase=float(rng.uniform(0.0, 1.0)),
                )
            )
        self._window_cache[window] = tracks
        return tracks

    def tracks_between(self, t0: float, t1: float) -> List[Track]:
        """All tracks whose lifetime intersects [t0, t1), ordered by start."""
        first = int(max(0.0, t0 - 120.0) // WINDOW_SECONDS)
        last = int(t1 // WINDOW_SECONDS)
        out = [
            tr
            for w in range(first, last + 1)
            for tr in self._tracks_in_window(w)
            if tr.t1 >= t0 and tr.t0 < t1
        ]
        out.sort(key=lambda tr: tr.t0)
        return out

    # -- per-frame truth -----------------------------------------------------

    def camera_activity(self, t: "float | np.ndarray") -> np.ndarray:
        """Camera-induced frame change at time ``t``, a scalar or an array
        of frame times (high and bursty for dash cameras)."""
        p = self.params
        if p.camera_motion <= 0.0:
            return np.full(np.shape(t), p.activity_floor)
        # A clipped oscillation models driving/stopping cycles: the vehicle
        # actually stops (activity ~ floor) for stretches of most windows.
        raw = np.sin(t / 2.9) + 0.3 * np.sin(t / 1.1 + 1.0)
        wave = np.clip(raw, 0.0, 1.2) / 1.2
        return p.activity_floor + p.camera_motion * (0.03 + 0.97 * wave)

    def clip(self, t0: float, duration: float, fps: int = INGEST_FPS) -> "ClipTruth":
        """Materialize ground truth for a clip (used by profiler and queries)."""
        return ClipTruth.build(self, t0, duration, fps)

    def mean_activity(self, t0: float, duration: float, fps: int) -> float:
        """The mean activity of :meth:`clip` ``(t0, duration, fps)``,
        memoized: ingest reads one per segment, so stream aliases of this
        dataset clip each segment once between them."""
        key = (t0, duration, fps)
        activity = self._activity.get(key)
        if activity is None:
            activity = self._activity[key] = self.clip(
                t0, duration, fps).mean_activity()
        return activity


class ClipTruth:
    """Vectorized ground truth for one clip at the ingest frame rate.

    Holds, for each of ``n`` frames and each of the clip's tracks, visibility
    and position, plus the per-frame activity signal.  Operators evaluate
    their detection models against these arrays.

    The per-knob views (:meth:`consumed_index` and :meth:`label_hold` per
    sampling rate, :meth:`in_crop` per crop factor) are computed once per
    clip and returned read-only; :meth:`memo` keeps any other per-clip
    terms (operators keep their scoring terms there).  All of it lives as
    long as the clip.
    """

    def __init__(
        self,
        dataset: str,
        t0: float,
        fps: int,
        times: np.ndarray,
        tracks: Sequence[Track],
        visible: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        moving: np.ndarray,
        activity: np.ndarray,
    ):
        self.dataset = dataset
        self.t0 = t0
        self.fps = fps
        self.times = times  # (n,)
        self.tracks = list(tracks)
        self.visible = visible  # (n_tracks, n) bool
        self.xs = xs  # (n_tracks, n) normalized x, NaN when not alive
        self.ys = ys
        self.moving = moving  # (n_tracks, n) bool: in the moving duty phase
        self.activity = activity  # (n,)
        self._consumed: Dict[int, np.ndarray] = {}  # by sampling knob index
        self._hold: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._in_crop: Dict[float, np.ndarray] = {}  # by crop factor
        self._memo: Dict[Hashable, object] = {}

    @classmethod
    def build(cls, model: ContentModel, t0: float, duration: float,
              fps: int) -> "ClipTruth":
        n = max(1, int(round(duration * fps)))
        times = t0 + np.arange(n) / float(fps)
        tracks = model.tracks_between(t0, t0 + duration)
        activity = model.camera_activity(times)
        if not tracks:
            hidden, nowhere = np.zeros((0, n), dtype=bool), np.zeros((0, n))
            return cls(model.name, t0, fps, times, tracks, hidden, nowhere,
                       nowhere, hidden, np.minimum(activity, 2.0))
        # Per-track columns, each (n_tracks, 1), broadcast against times;
        # ``boost`` is the activity a moving track adds.
        start, end, x0, y0, vx, vy, period, phase, duty, boost = np.array(
            [(tr.t0, tr.t1, tr.x0, tr.y0, tr.vx, tr.vy, tr.period, tr.phase,
              tr.duty, tr.size**2 * tr.speed * 25.0) for tr in tracks]
        ).T[:, :, None]
        dt = times - start
        x = x0 + vx * dt
        y = y0 + vy * dt
        visible = ((times >= start) & (times <= end)
                   & (x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0))
        moving = visible & ((dt / period + phase) % 1.0 < duty)
        activity = activity + (boost * moving).sum(axis=0)
        return cls(model.name, t0, fps, times, tracks, visible,
                   np.where(visible, x, np.nan), np.where(visible, y, np.nan),
                   moving, np.minimum(activity, 2.0))

    @property
    def n_frames(self) -> int:
        return len(self.times)

    @property
    def duration(self) -> float:
        return self.n_frames / float(self.fps)

    def in_crop(self, crop: float) -> np.ndarray:
        """(n_tracks, n) mask: visible and inside the central crop window."""
        mask = self._in_crop.get(crop)
        if mask is None:
            if not self.tracks:
                mask = self.visible.view()
            else:
                margin = (1.0 - crop) / 2.0
                inside = (
                    (self.xs >= margin)
                    & (self.xs <= 1.0 - margin)
                    & (self.ys >= margin)
                    & (self.ys <= 1.0 - margin)
                )
                mask = self.visible & inside
            mask = self._in_crop[crop] = readonly(mask)
        return mask

    def consumed_index(self, fidelity: Fidelity) -> np.ndarray:
        """Indices of frames a consumer at ``fidelity`` actually receives.

        Sampling rate s keeps a fraction s of ingest frames, evenly spaced
        and starting at frame 0 (e.g. 1/30 keeps frames 0, 30, 60, ...;
        2/3 keeps frames 0, 1, 3, 4, 6, ...).  Since 1/s >= 1, consecutive
        indices floor(k/s) differ by at least one, so they come out
        strictly increasing with no duplicates to remove.
        """
        idx = self._consumed.get(fidelity.sampling_idx)
        if idx is None:
            s = float(fidelity.sampling)
            if s >= 1.0:
                idx = np.arange(self.n_frames)
            else:
                n_consumed = int(np.ceil(self.n_frames * s))
                idx = np.floor(np.arange(n_consumed) / s).astype(int)
                idx = idx[idx < self.n_frames]
            idx = self._consumed[fidelity.sampling_idx] = readonly(idx)
        return idx

    def label_hold(self, fidelity: Fidelity) -> Tuple[np.ndarray, np.ndarray]:
        """(covering, gaps) per ingest frame under label hold at
        ``fidelity``'s sampling rate: the consumed frame whose output covers
        each frame (:func:`propagation_map`), and how many seconds that
        output is stale."""
        hold = self._hold.get(fidelity.sampling_idx)
        if hold is None:
            covering = propagation_map(self.n_frames,
                                       self.consumed_index(fidelity))
            gaps = (np.arange(self.n_frames) - covering) / float(self.fps)
            hold = self._hold[fidelity.sampling_idx] = (
                readonly(covering), readonly(gaps)
            )
        return hold

    def memo(self, key: Hashable, build: Callable[["ClipTruth"], _T]) -> _T:
        """``build(self)``, computed on the first call for ``key`` and
        returned by every later one while this clip lives."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build(self)
        return value

    def mean_activity(self) -> float:
        """Average frame-change activity; drives the codec size model."""
        return float(np.mean(self.activity)) if self.n_frames else 0.0
