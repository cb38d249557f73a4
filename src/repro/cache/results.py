"""Cross-query operator-result memoization.

Operator outputs in this reproduction are deterministic:
``QueryEngine._stage_output`` seeds each one by ``(operator, dataset,
segment, fidelity)`` over the dataset's content model — the stream is
not part of the seed, so every stream alias of a dataset gets the same
output — and one query's stage output over a segment is every other
query's output too.  Results are keyed more finely, by ``(stream,
segment, dataset, operator, fidelity, sampling)``, because invalidation
and simulated residency are per stream.  The result cache exploits the
determinism twice:

* an **output memo** keeps the actual output arrays (byte-bounded, LRU),
  so planning a repeat query never re-runs the operator's real compute.
  The query engine keeps its own per-engine memo of stage outcomes in
  front of it, so ``memo_hits``/``memo_misses`` count only the lookups
  that engine memo missed;
* a **committed set** (a :class:`~repro.cache.frames.ByteBudgetCache` over
  the outputs' byte sizes) models which results are resident in simulated
  RAM — only committed results zero the stage's simulated consume cost,
  and capacity pressure evicts them like any cache.

The memo without a committed entry is the honest middle state: the repeat
query skips redundant *real* compute (a planning convenience) but is still
*charged* full simulated consume time, because the simulated store no
longer holds the result.

The dataset is part of the key on purpose: a stream alias is normally
bound to one dataset, but nothing forces a caller to keep that pairing at
query time, and two datasets' outputs over the same stream must never
alias in the memo.

Invalidation drops both layers for a segment: erosion (``age``) and
re-ingest reach this through the segment store's write/delete hooks, so no
stale output survives a content change.

Accounting follows the simulated timeline: :meth:`is_committed` (used at
plan time) is side-effect-free; hits are counted by
:meth:`record_charged_hit` and misses by :meth:`commit` when the producing
consume actually runs on the clock.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.cache.frames import ByteBudgetCache, CacheKey, EvictionPolicy


class ResultCache:
    """Memoizes per-segment operator outputs across queries."""

    def __init__(self, capacity_bytes: float, policy: EvictionPolicy,
                 memo_capacity_bytes: Optional[float] = None):
        self.committed = ByteBudgetCache(capacity_bytes, policy)
        self.memo_capacity_bytes = (
            memo_capacity_bytes if memo_capacity_bytes is not None
            else 4.0 * capacity_bytes
        )
        self._outputs: "OrderedDict[CacheKey, np.ndarray]" = OrderedDict()
        self._memo_bytes = 0.0
        self.memo_hits = 0
        self.memo_misses = 0

    @staticmethod
    def key(stream: str, index: int, dataset: str, operator: str,
            fidelity_label: str, sampling: str) -> CacheKey:
        return (stream, index, dataset, operator, fidelity_label, sampling)

    # -- output memo (real compute) ----------------------------------------

    def get_output(self, key: CacheKey) -> Optional[np.ndarray]:
        output = self._outputs.get(key)
        if output is None:
            self.memo_misses += 1
            return None
        self._outputs.move_to_end(key)
        self.memo_hits += 1
        return output

    def record_output(self, key: CacheKey, output: np.ndarray) -> None:
        if key in self._outputs:
            self._memo_bytes -= float(self._outputs[key].nbytes)
        self._outputs[key] = output
        self._outputs.move_to_end(key)
        self._memo_bytes += float(output.nbytes)
        # The memo holds real arrays in real process RAM: bound it (LRU)
        # so a long-lived store cannot grow without limit.
        while (self._memo_bytes > self.memo_capacity_bytes
               and len(self._outputs) > 1):
            _, dropped = self._outputs.popitem(last=False)
            self._memo_bytes -= float(dropped.nbytes)

    # -- committed set (simulated RAM) -------------------------------------

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
               nbytes: Optional[float] = None) -> bool:
        """A consume computed this result: count the miss, make it resident.

        ``nbytes`` is the output's size as measured by the producer; when
        omitted it is read from the memo.  A result whose size is unknown
        (memo already evicted it) is *not* committed — a zero-byte entry
        would exert no capacity pressure and live forever.
        """
        self.committed.misses += 1
        if nbytes is None:
            output = self._outputs.get(key)
            nbytes = float(output.nbytes) if output is not None else 0.0
        if nbytes <= 0:
            return False
        return self.committed.put(key, nbytes, saved_seconds)

    # -- invalidation ------------------------------------------------------

    def invalidate(self, stream: str, index: Optional[int] = None) -> int:
        doomed = [
            key for key in self._outputs
            if key[0] == stream and (index is None or key[1] == index)
        ]
        for key in doomed:
            self._memo_bytes -= float(self._outputs.pop(key).nbytes)
        return self.committed.invalidate(stream, index)
