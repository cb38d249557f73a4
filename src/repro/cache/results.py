"""Cross-query operator-result residency.

Operator outputs in this reproduction are deterministic:
``QueryEngine._stage_output`` seeds each one by ``(operator, dataset,
segment, fidelity)`` over the dataset's content model — the stream is
not part of the seed, so every stream alias of a dataset gets the same
output — and one query's stage output over a segment is every other
query's output too.  The store's stage-outcome memo (see
``VStore.engine``) already spares repeat planning the real compute, so
the result cache models simulated residency only: a **committed set** (a
:class:`~repro.cache.frames.ByteBudgetCache` over the outputs' byte
sizes) holds which results are resident in simulated RAM.  Only
committed results zero the stage's simulated consume cost, and capacity
pressure evicts them like any cache.

Results are keyed by ``(stream, segment, dataset, operator, fidelity,
sampling)``, because invalidation and simulated residency are per
stream.  The dataset is part of the key on purpose: a stream alias is
normally bound to one dataset, but nothing forces a caller to keep that
pairing at query time, and two datasets' results over the same stream
must never alias.

Invalidation drops a segment's committed results: erosion (``age``) and
re-ingest reach this through the segment store's write/delete hooks, so
no stale result stays resident across a content change.

Accounting follows the simulated timeline: :meth:`is_committed` (used at
plan time) is side-effect-free; hits are counted by
:meth:`record_charged_hit` and misses by :meth:`commit` when the producing
consume actually runs on the clock.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.frames import ByteBudgetCache, CacheKey, EvictionPolicy


class ResultCache:
    """Which per-segment operator results are resident in simulated RAM."""

    def __init__(self, capacity_bytes: float, policy: EvictionPolicy):
        self.committed = ByteBudgetCache(capacity_bytes, policy)

    @staticmethod
    def key(stream: str, index: int, dataset: str, operator: str,
            fidelity_label: str, sampling: str) -> CacheKey:
        return (stream, index, dataset, operator, fidelity_label, sampling)

    def is_committed(self, key: CacheKey) -> bool:
        """True when ``key`` is resident in simulated RAM (no counters)."""
        return self.committed.peek(key) is not None

    def record_charged_hit(self, key: CacheKey, saved_seconds: float) -> None:
        """Count a committed hit when its consume runs on the clock.

        ``saved_seconds`` is the simulated consume time the hit avoided.
        """
        entry = self.committed.peek(key)
        nbytes = entry.nbytes if entry is not None else 0.0
        self.committed.record_hit(key, nbytes, saved_seconds)

    def commit(self, key: CacheKey, saved_seconds: float,
               nbytes: float) -> bool:
        """A consume computed this result: count the miss, make it resident.

        ``nbytes`` is the output's size as measured by the producer.  An
        empty result is *not* committed — a zero-byte entry would exert no
        capacity pressure and live forever.
        """
        self.committed.misses += 1
        if nbytes <= 0:
            return False
        return self.committed.put(key, nbytes, saved_seconds)

    def invalidate(self, stream: str, index: Optional[int] = None) -> int:
        return self.committed.invalidate(stream, index)
