"""Retrieval-speed estimation for storage formats (requirement R2).

For an encoded storage format the bottleneck is the decoder; reading the
compressed bytes from disk is an order of magnitude faster and overlaps
with decoding, so the estimate is the decode speed with chunk skipping.
For a raw storage format there is nothing to decode and the disk dictates
speed; sparse consumers benefit from reading sampled frames individually
(Table 3, note 2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro.codec.model import DEFAULT_CODEC
from repro.storage.disk import DEFAULT_DISK
from repro.video.format import StorageFormat


def retrieval_speed(
    fmt: StorageFormat,
    consumer_sampling: Optional[Fraction] = None,
) -> float:
    """Realtime multiple at which ``fmt`` supplies a consumer.

    ``consumer_sampling`` is the consumer's sampling rate relative to the
    ingest frame rate (defaults to consuming every stored frame).
    """
    if fmt.is_raw:
        return DEFAULT_DISK.raw_read_speed(
            fmt.fidelity,
            DEFAULT_CODEC.raw_frame_bytes(fmt.fidelity),
            consumer_sampling,
        )
    decode = DEFAULT_CODEC.decode_speed(fmt.fidelity, fmt.coding,
                                        consumer_sampling)
    # Encoded reads are pipelined with decoding; the disk is effectively
    # never the bottleneck for compressed data (Section 2.2), but we still
    # take the minimum for correctness with extreme parameterizations.
    stream_bytes = DEFAULT_CODEC.encoded_bytes_per_second(fmt.fidelity,
                                                          fmt.coding)
    disk_speed = DEFAULT_DISK.sequential_read_speed(stream_bytes)
    return min(decode, disk_speed)
