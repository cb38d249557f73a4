"""Analytic codec response surfaces: encode cost, decode cost, size.

All constants below are calibrated so the model reproduces the qualitative
shapes of the paper's measurements:

* Figure 3a: across speed steps, ~40x encoding-speed range and ~2.5x size
  range; decoding speed varies mildly;
* Figure 3b: under sparse consumer sampling, smaller keyframe intervals
  speed decoding up to ~6x at the cost of a larger encoded video;
* Table 3b: the golden 720p/30fps "slowest" format decodes at a few tens of
  x realtime and costs ~1.4 MB per video second; image-quality steps change
  size by ~5x per step (Section 2.4).

Costs are expressed in *simulated CPU-seconds per video-second* on one core,
so "x realtime" speeds are simply their reciprocal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence

import numpy as np

from repro.codec.chunks import decoded_frame_fraction
from repro.errors import CodecError
from repro.video.coding import Coding
from repro.video.fidelity import Fidelity

#: Bits per pixel by image quality (CRF 0/23/40/50).  Each quality step is
#: roughly a 5x size change, matching the paper's observation for Fig. 4b.
BITS_PER_PIXEL: Dict[str, float] = {
    "best": 0.45,
    "good": 0.09,
    "bad": 0.018,
    "worst": 0.0045,
}

#: Encode-time multiplier per speed step (slowest first).  The ratio between
#: the extremes is 40x, matching Figure 3a.
ENCODE_TIME_FACTOR: Dict[str, float] = {
    "slowest": 8.0,
    "slow": 2.8,
    "med": 1.0,
    "fast": 0.42,
    "fastest": 0.2,
}

#: Size multiplier per speed step: faster presets compress less (~2.5x range).
SIZE_FACTOR: Dict[str, float] = {
    "slowest": 1.0,
    "slow": 1.12,
    "med": 1.35,
    "fast": 1.75,
    "fastest": 2.5,
}

#: Decode-time multiplier per speed step (mild; decoding is less sensitive).
DECODE_TIME_FACTOR: Dict[str, float] = {
    "slowest": 1.30,
    "slow": 1.15,
    "med": 1.00,
    "fast": 0.85,
    "fastest": 0.75,
}

#: Encode-time multiplier per image quality (CRF 0 searches harder).
QUALITY_ENCODE_FACTOR: Dict[str, float] = {
    "best": 1.8,
    "good": 1.0,
    "bad": 0.85,
    "worst": 0.75,
}

#: Extra bytes a keyframe costs relative to a predicted frame.
KEYFRAME_OVERHEAD = 9.0

#: Raw YUV420 pixel cost in bytes per pixel.
RAW_BYTES_PER_PIXEL = 1.5


class SurfaceCallCounter:
    """Counts codec response-surface evaluations.

    ``scalar`` counts one-point evaluations (the per-call path the planner
    used before the vectorized profiling plane); ``grid`` counts whole-grid
    batch evaluations.  The planner perf benchmark reads the deltas.
    """

    __slots__ = ("scalar", "grid")

    def __init__(self) -> None:
        self.scalar = 0
        self.grid = 0

    @property
    def total(self) -> int:
        return self.scalar + self.grid


#: Process-wide accounting of codec-surface evaluations.
SURFACE_CALLS = SurfaceCallCounter()


@dataclass(frozen=True)
class CodecModel:
    """Codec response-surface model with tunable base constants.

    ``encode_ms_per_mp`` / ``decode_ms_per_mp`` are per-frame costs for one
    megapixel at the ``med`` speed step and ``good`` quality; fixed per-frame
    overheads model container/bitstream handling.
    """

    encode_ms_per_mp: float = 12.0
    encode_ms_fixed: float = 0.5
    decode_ms_per_mp: float = 1.05
    decode_ms_fixed: float = 0.15
    #: Maps content activity (see ContentModel) to a size multiplier.
    activity_size_base: float = 0.5
    activity_size_slope: float = 1.4

    # -- size ----------------------------------------------------------------

    def activity_factor(self, activity: float) -> float:
        """Size multiplier for a clip with mean frame-change ``activity``."""
        return self.activity_size_base + self.activity_size_slope * max(0.0, activity)

    def encoded_bytes_per_second(
        self, fidelity: Fidelity, coding: Coding, activity: float = 0.35
    ) -> float:
        """On-disk bytes per video second for an encoded storage format."""
        if coding.raw:
            return self.raw_bytes_per_second(fidelity)
        SURFACE_CALLS.scalar += 1
        kf = coding.keyframe_interval
        kf_factor = (1.0 + KEYFRAME_OVERHEAD / kf) / (1.0 + KEYFRAME_OVERHEAD / 250.0)
        bits = (
            fidelity.pixels
            * fidelity.fps
            * BITS_PER_PIXEL[fidelity.quality]
            * SIZE_FACTOR[coding.speed_step]
            * kf_factor
            * self.activity_factor(activity)
        )
        return bits / 8.0

    def raw_bytes_per_second(self, fidelity: Fidelity) -> float:
        """On-disk bytes per video second when storing raw YUV420 frames."""
        SURFACE_CALLS.scalar += 1
        return fidelity.pixels * RAW_BYTES_PER_PIXEL * fidelity.fps

    def raw_frame_bytes(self, fidelity: Fidelity) -> float:
        """Size of one raw frame at this fidelity."""
        return fidelity.pixels * RAW_BYTES_PER_PIXEL

    # -- encode cost -----------------------------------------------------------

    def encode_seconds_per_video_second(
        self, fidelity: Fidelity, coding: Coding
    ) -> float:
        """One-core CPU seconds to transcode one video second into SF<f,c>.

        Raw storage bypasses the encoder entirely; only a cheap resize/copy
        cost remains (an order of magnitude below real encoding).
        """
        SURFACE_CALLS.scalar += 1
        mp = fidelity.pixels / 1e6
        if coding.raw:
            return fidelity.fps * 0.05e-3 * (1.0 + mp)
        per_frame_ms = (
            (self.encode_ms_fixed + self.encode_ms_per_mp * mp)
            * ENCODE_TIME_FACTOR[coding.speed_step]
            * QUALITY_ENCODE_FACTOR[fidelity.quality]
        )
        return fidelity.fps * per_frame_ms / 1000.0

    def encode_speed(self, fidelity: Fidelity, coding: Coding) -> float:
        """Encoding speed in x realtime on one core."""
        cost = self.encode_seconds_per_video_second(fidelity, coding)
        return float("inf") if cost <= 0 else 1.0 / cost

    # -- decode cost -----------------------------------------------------------

    def decode_frame_seconds(self, fidelity: Fidelity, coding: Coding) -> float:
        """CPU seconds to decode a single frame of SF<f,c>."""
        if coding.raw:
            raise CodecError("raw storage formats are read, not decoded")
        SURFACE_CALLS.scalar += 1
        mp = fidelity.pixels / 1e6
        per_frame_ms = (
            self.decode_ms_fixed + self.decode_ms_per_mp * mp
        ) * DECODE_TIME_FACTOR[coding.speed_step]
        return per_frame_ms / 1000.0

    def consumer_stride(
        self, stored: Fidelity, consumer_sampling: Fraction
    ) -> int:
        """Sampling stride of a consumer, measured in *stored* frames.

        A consumer sampling 1/30 of the ingest rate over a store holding
        1/6 of the ingest rate touches one stored frame in five.
        """
        if consumer_sampling > stored.sampling:
            raise CodecError(
                f"consumer sampling {consumer_sampling} exceeds stored "
                f"sampling {stored.sampling}"
            )
        ratio = stored.sampling / consumer_sampling
        return max(1, int(ratio))

    def decode_seconds_per_video_second(
        self,
        stored: Fidelity,
        coding: Coding,
        consumer_sampling: Optional[Fraction] = None,
    ) -> float:
        """CPU seconds to decode one video second for a consumer.

        When the consumer samples sparsely relative to the stored frame rate,
        whole chunks can be skipped (Figure 3b); the exact decoded fraction
        comes from :func:`repro.codec.chunks.decoded_frame_fraction`.
        """
        if coding.raw:
            raise CodecError("raw storage formats are read, not decoded")
        if consumer_sampling is None:
            consumer_sampling = stored.sampling
        stride = self.consumer_stride(stored, consumer_sampling)
        fraction = decoded_frame_fraction(stride, coding.keyframe_interval)
        frames = stored.fps * fraction
        return frames * self.decode_frame_seconds(stored, coding)

    def decode_speed(
        self,
        stored: Fidelity,
        coding: Coding,
        consumer_sampling: Optional[Fraction] = None,
    ) -> float:
        """Decoding speed in x realtime for a consumer of this format."""
        cost = self.decode_seconds_per_video_second(stored, coding, consumer_sampling)
        return float("inf") if cost <= 0 else 1.0 / cost

    # -- batch surfaces (the vectorized profiling plane) -----------------------
    #
    # Each grid method evaluates a whole (fidelity x coding) surface in one
    # NumPy pass.  The elementwise operation order deliberately mirrors the
    # scalar methods above so grid cells are bit-identical to per-call
    # results — plan parity depends on it.

    @staticmethod
    def _fidelity_columns(fidelities: Sequence[Fidelity]):
        pixels = np.array([f.pixels for f in fidelities], dtype=np.float64)
        fps = np.array([f.fps for f in fidelities], dtype=np.float64)
        return pixels, fps

    def encoded_bytes_per_second_grid(
        self,
        fidelities: Sequence[Fidelity],
        codings: Sequence[Coding],
        activity: float = 0.35,
    ) -> np.ndarray:
        """``encoded_bytes_per_second`` over a (fidelity x coding) grid."""
        SURFACE_CALLS.grid += 1
        pixels, fps = self._fidelity_columns(fidelities)
        bpp = np.array([BITS_PER_PIXEL[f.quality] for f in fidelities])
        size_f = np.array([SIZE_FACTOR[c.speed_step] for c in codings])
        kf_f = np.array([
            (1.0 + KEYFRAME_OVERHEAD / c.keyframe_interval)
            / (1.0 + KEYFRAME_OVERHEAD / 250.0)
            for c in codings
        ])
        bits = (
            ((pixels * fps * bpp)[:, None] * size_f[None, :])
            * kf_f[None, :]
            * self.activity_factor(activity)
        )
        return bits / 8.0

    def raw_bytes_per_second_vector(
        self, fidelities: Sequence[Fidelity]
    ) -> np.ndarray:
        """``raw_bytes_per_second`` over a fidelity axis."""
        SURFACE_CALLS.grid += 1
        pixels, fps = self._fidelity_columns(fidelities)
        return pixels * RAW_BYTES_PER_PIXEL * fps

    def encode_seconds_grid(
        self, fidelities: Sequence[Fidelity], codings: Sequence[Coding]
    ) -> np.ndarray:
        """``encode_seconds_per_video_second`` over a (fidelity x coding) grid."""
        SURFACE_CALLS.grid += 1
        pixels, fps = self._fidelity_columns(fidelities)
        mp = pixels / 1e6
        enc_f = np.array([ENCODE_TIME_FACTOR[c.speed_step] for c in codings])
        q_f = np.array([QUALITY_ENCODE_FACTOR[f.quality] for f in fidelities])
        per_frame_ms = (
            (self.encode_ms_fixed + self.encode_ms_per_mp * mp)[:, None]
            * enc_f[None, :]
            * q_f[:, None]
        )
        return fps[:, None] * per_frame_ms / 1000.0

    def raw_encode_seconds_vector(
        self, fidelities: Sequence[Fidelity]
    ) -> np.ndarray:
        """Raw-path ``encode_seconds_per_video_second`` over a fidelity axis."""
        SURFACE_CALLS.grid += 1
        pixels, fps = self._fidelity_columns(fidelities)
        mp = pixels / 1e6
        return fps * 0.05e-3 * (1.0 + mp)

    def decode_frame_seconds_grid(
        self, fidelities: Sequence[Fidelity], codings: Sequence[Coding]
    ) -> np.ndarray:
        """``decode_frame_seconds`` over a (fidelity x coding) grid."""
        SURFACE_CALLS.grid += 1
        pixels, _ = self._fidelity_columns(fidelities)
        mp = pixels / 1e6
        dec_f = np.array([DECODE_TIME_FACTOR[c.speed_step] for c in codings])
        per_frame_ms = (
            (self.decode_ms_fixed + self.decode_ms_per_mp * mp)[:, None]
            * dec_f[None, :]
        )
        return per_frame_ms / 1000.0


#: The model instance shared by default across the library.
DEFAULT_CODEC = CodecModel()
