"""Decoder contexts: the bounded hardware decode pool (NVDEC in the paper).

Decode cost per segment, including chunk skipping for sparse consumers, is
worked out by :class:`~repro.retrieval.reader.SegmentReader`; the concurrent
executor runs each decode as a task on the ``decoder`` pool sized here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CodecError


@dataclass(frozen=True)
class DecoderPool:
    """A bounded set of hardware decoder contexts (NVDEC sessions).

    The paper's decode path runs on a GPU decoder with a fixed number of
    concurrent sessions.  The concurrent query executor admits at most
    ``contexts`` segment decodes at once; queries needing the decoder
    beyond that wait, modeling multi-tenant decode contention.
    """

    contexts: int = 2

    def __post_init__(self) -> None:
        if self.contexts < 1:
            raise CodecError(f"need at least one decoder context: {self.contexts}")
