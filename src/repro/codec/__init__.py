"""Codec substrate: encode/decode cost and size models with GOP structure.

The paper uses libx264 (encode) and NVDEC (decode).  This subpackage models
both with analytic response surfaces calibrated to the shapes the paper
reports (Figure 3, Table 3):

* speed step trades encoding speed (~40x range) against size (~2.5x range);
* keyframe interval trades size against decode-time chunk skipping when
  consumers sample sparsely (Figure 3b);
* content activity (motion) inflates encoded size (dashcam vs park);
* the coding bypass stores raw YUV420 frames.
"""

from repro.codec.chunks import decoded_frame_count, decoded_frame_fraction, gop_layout
from repro.codec.decoder import DecoderPool
from repro.codec.encoder import EncodedSegment, Encoder
from repro.codec.model import CodecModel, DEFAULT_CODEC, SURFACE_CALLS
from repro.codec.tables import (
    ProfileTable,
    clear_profile_table_cache,
    get_profile_table,
)

__all__ = [
    "CodecModel",
    "DEFAULT_CODEC",
    "DecoderPool",
    "EncodedSegment",
    "Encoder",
    "ProfileTable",
    "SURFACE_CALLS",
    "clear_profile_table_cache",
    "decoded_frame_count",
    "decoded_frame_fraction",
    "get_profile_table",
    "gop_layout",
]
