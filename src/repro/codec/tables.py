"""Materialized codec response surfaces: the vectorized profiling plane.

The storage-format planner evaluates the same codec surfaces thousands of
times per coalescing run — size, encode cost and retrieval speed over the
(fidelity x coding) knob grid.  A :class:`ProfileTable` evaluates each
surface once, in one NumPy pass per quantity, and turns every subsequent
planner query into an O(1) table lookup:

* ``profile_values``   — (bytes/s, ingest cost, base retrieval speed);
* ``retrieval_speed``  — per consumer sampling rate, chunk skipping included;
* ``storage_rank``     — the per-fidelity cheapest-storage-first coding
  order, a precomputed argsort instead of a sort per
  ``cheapest_adequate_coding`` call; ``storage_formats`` is the same
  order as interned storage formats, which the planner's walk reads.

The surfaces are those of the one calibrated machine, ``DEFAULT_CODEC``
reading from ``DEFAULT_DISK``, so tables are cached per content activity
alone and every profiler, sweep point and benchmark in a process shares
one build per activity.  All table cells are bit-identical to the scalar
code paths in :mod:`repro.codec.model` and :mod:`repro.retrieval.speed` —
the planner's plans must not change by a single ULP when the table is
switched on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from repro.codec.chunks import decoded_frame_fraction
from repro.codec.model import DEFAULT_CODEC
from repro.storage.disk import DEFAULT_DISK, raw_read_seconds
from repro.units import SEGMENT_SECONDS
from repro.video.coding import Coding, coding_space
from repro.video.fidelity import (
    SAMPLING_RATES,
    Fidelity,
    fidelity_space,
    sampling_index,
)
from repro.video.format import StorageFormat


class ProfileTable:
    """Codec/disk response surfaces over the full knob grid, as arrays."""

    def __init__(self, activity: float):
        self.activity = activity

        # Rows and columns follow the lattice order of repro.video, so a
        # format's cells sit at (fidelity.index, coding.index).
        self._fidelities = tuple(fidelity_space())
        self._codings = tuple(coding_space(include_raw=False))

        fids, cods = self._fidelities, self._codings
        fps = np.array([f.fps for f in fids])
        sidx = np.array([f.sampling_idx for f in fids])
        kf_values = list(dict.fromkeys(c.keyframe_interval for c in cods))
        kfidx = np.array([kf_values.index(c.keyframe_interval) for c in cods])

        # -- size and encode cost -------------------------------------------
        self._size = DEFAULT_CODEC.encoded_bytes_per_second_grid(
            fids, cods, activity
        )
        if activity == 0.35:
            size_default = self._size
        else:
            size_default = DEFAULT_CODEC.encoded_bytes_per_second_grid(
                fids, cods
            )
        self._raw_size = DEFAULT_CODEC.raw_bytes_per_second_vector(fids)
        self._encode = DEFAULT_CODEC.encode_seconds_grid(fids, cods)
        self._raw_encode = DEFAULT_CODEC.raw_encode_seconds_vector(fids)

        # -- retrieval speed, encoded formats -------------------------------
        # decoded_frame_fraction per (stored sampling, consumer sampling,
        # keyframe interval); NaN marks consumer-faster-than-store combos,
        # which the scalar path rejects.
        n_s, n_kf = len(SAMPLING_RATES), len(kf_values)
        frac = np.full((n_s, n_s, n_kf), np.nan)
        for i_st, s_stored in enumerate(SAMPLING_RATES):
            for i_co, s_cons in enumerate(SAMPLING_RATES):
                if s_cons > s_stored:
                    continue
                stride = max(1, int(s_stored / s_cons))
                for i_kf, kf in enumerate(kf_values):
                    frac[i_st, i_co, i_kf] = decoded_frame_fraction(stride, kf)

        dec_frame = DEFAULT_CODEC.decode_frame_seconds_grid(fids, cods)
        disk_speed = DEFAULT_DISK.read_bandwidth / size_default
        self._retr_enc = np.empty(
            (len(fids), len(cods), len(SAMPLING_RATES))
        )
        for i_co in range(len(SAMPLING_RATES)):
            frac_grid = frac[sidx[:, None], i_co, kfidx[None, :]]
            cost = (fps[:, None] * frac_grid) * dec_frame
            self._retr_enc[:, :, i_co] = np.minimum(1.0 / cost, disk_speed)

        # -- retrieval speed, raw formats -----------------------------------
        # One video second per (fidelity, consumer sampling) cell, as
        # DiskModel.raw_read_speed costs it: one scan request per segment.
        frame_bytes = np.array(
            [DEFAULT_CODEC.raw_frame_bytes(f) for f in fids]
        )
        consumed = np.minimum(
            fps[:, None], 30.0 * np.array([float(s) for s in SAMPLING_RATES])
        )
        self._retr_raw = 1.0 / raw_read_seconds(
            fps[:, None], consumed, frame_bytes[:, None],
            DEFAULT_DISK.read_bandwidth, DEFAULT_DISK.request_overhead,
            scan_requests=1 / SEGMENT_SECONDS,
        )

        # Base retrieval (consumer taking every stored frame) is the column
        # matching each fidelity's own sampling rate.
        self._base_enc = np.take_along_axis(
            self._retr_enc, sidx[:, None, None], axis=2
        )[:, :, 0]
        self._base_raw = self._retr_raw[np.arange(len(fids)), sidx]

        # -- storage rank ----------------------------------------------------
        # Stable argsort matches list.sort over coding_space order, so the
        # cheapest-adequate walk visits candidates in the exact legacy order.
        self._rank = np.argsort(self._size, axis=1, kind="stable")
        self._rank_formats: Dict[int, Tuple[StorageFormat, ...]] = {}

    # -- lookups -------------------------------------------------------------

    def profile_values(self, fmt: StorageFormat) -> Tuple[float, float, float]:
        """(bytes per video second, ingest cost, base retrieval speed)."""
        fi = fmt.fidelity.index
        if fmt.is_raw:
            return (
                float(self._raw_size[fi]),
                float(self._raw_encode[fi]),
                float(self._base_raw[fi]),
            )
        ci = fmt.coding.index
        return (
            float(self._size[fi, ci]),
            float(self._encode[fi, ci]),
            float(self._base_enc[fi, ci]),
        )

    def retrieval_speed(
        self, fmt: StorageFormat, consumer_sampling: Optional[Fraction] = None
    ) -> Optional[float]:
        """Table lookup of the retrieval speed; ``None`` when the query is
        outside the tabulated grid (caller falls back to the scalar path)."""
        fi = fmt.fidelity.index
        if consumer_sampling is None:
            if fmt.is_raw:
                return float(self._base_raw[fi])
            return float(self._base_enc[fi, fmt.coding.index])
        si = sampling_index(consumer_sampling)
        if si is None:
            return None
        if fmt.is_raw:
            return float(self._retr_raw[fi, si])
        speed = self._retr_enc[fi, fmt.coding.index, si]
        if np.isnan(speed):  # consumer samples faster than the store holds
            return None
        return float(speed)

    def storage_rank(self, fidelity: Fidelity) -> Tuple[Coding, ...]:
        """Encoded coding options ordered by on-disk size, cheapest first."""
        return tuple(fmt.coding for fmt in self.storage_formats(fidelity))

    def storage_formats(self, fidelity: Fidelity
                        ) -> Tuple[StorageFormat, ...]:
        """``fidelity``'s encoded storage formats in :meth:`storage_rank`
        order, interned."""
        fi = fidelity.index
        cached = self._rank_formats.get(fi)
        if cached is None:
            cached = tuple(StorageFormat(fidelity, self._codings[k])
                           for k in self._rank[fi])
            self._rank_formats[fi] = cached
        return cached


#: Table cache keyed by content activity.
_TABLE_CACHE: Dict[float, ProfileTable] = {}


def get_profile_table(activity: float) -> ProfileTable:
    """The shared :class:`ProfileTable` for this content activity."""
    key = float(activity)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = ProfileTable(activity)
        _TABLE_CACHE[key] = table
    return table


def clear_profile_table_cache() -> None:
    """Drop all cached tables (benchmarks measure cold builds with this)."""
    _TABLE_CACHE.clear()
