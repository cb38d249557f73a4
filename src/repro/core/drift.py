"""Query-mix drift detection (the trigger of online format evolution).

The paper's configurations are derived *backward* from the consumers the
operator declared; when the live query mix wanders away from that
declaration — new operators, new accuracy points, a different balance of
retrieval versus compute — the stored formats stop matching demand and
retrieval cost regresses toward the golden-format fallback.  The repro's
cross-layer feedback channel for this is deliberately thin (MetaSys-style):
the executor already accounts every task it schedules, so the detector
just folds finished runs into a sliding window and compares demand mixes.

:class:`DriftDetector` consumes :class:`~repro.query.scheduler.QueryOutcome`
objects (or raw trace events) and maintains, over a sliding window of the
most recent queries:

* per-(operator, accuracy) demand — the planned retrieve + consume seconds
  each consumer asked of the store, which is scheduling-independent;
* per-stream demand, for tiering/placement decisions.

``rebase()`` pins the current mix as the baseline (called whenever a plan
is adopted); ``drift_score()`` is the total-variation distance between the
baseline and current demand mixes, and ``drifted`` flags when it crosses
the threshold.  ``demanded_consumers()`` hands the re-planner the consumer
set the window actually observed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.operators.library import Consumer

__all__ = ["DriftDetector", "DriftSnapshot"]

#: Mix distance above which the detector flags drift.  Total variation
#: lives in [0, 1]; 0.25 means a quarter of the demand mass moved to
#: consumers the baseline did not anticipate (or away from ones it did).
DEFAULT_THRESHOLD = 0.25

#: Sliding window length, in queries.
DEFAULT_WINDOW = 32


@dataclass(frozen=True)
class DriftSnapshot:
    """One observed query's contribution to the demand estimate."""

    consumers: Tuple[Tuple[Consumer, float], ...]  # (consumer, seconds)
    stream: str
    seconds: float  # total demanded service seconds of the query


@dataclass
class DriftDetector:
    """Sliding-window demand estimator over executor outcomes."""

    window: int = DEFAULT_WINDOW
    threshold: float = DEFAULT_THRESHOLD
    #: Queries required in the window before ``drifted`` may fire; a
    #: single stray query should not trigger a store-wide migration.
    min_samples: int = 4
    _recent: Deque[DriftSnapshot] = field(default_factory=deque, repr=False)
    _baseline: Dict[Consumer, float] = field(default_factory=dict, repr=False)
    #: True while a rebase is waiting for its first full window: the plan
    #: was adopted before any query ran, so the baseline mix pins itself
    #: from the first ``min_samples`` observed queries.
    _pending: bool = field(default=False, repr=False)

    # -- folding in observations -------------------------------------------

    def observe(self, outcome) -> DriftSnapshot:
        """Fold one finished query into the window.

        Demand is read off the *plan* (retrieve + consume durations per
        stage), so the estimate is independent of how contention happened
        to schedule the run.  Background jobs (``session.klass != 0``)
        are skipped — evolution must not count its own migration I/O as
        query demand.
        """
        session = outcome.session
        if getattr(session, "klass", 0) != 0:
            snapshot = DriftSnapshot((), session.stream, 0.0)
            return snapshot
        per_op: List[Tuple[Consumer, float]] = []
        total = 0.0
        for stage in session.plan.stages:
            seconds = sum(t.duration for t in stage.tasks)
            per_op.append(
                (Consumer(stage.operator, session.accuracy), seconds)
            )
            total += seconds
        snapshot = DriftSnapshot(tuple(per_op), session.stream, total)
        self._recent.append(snapshot)
        while len(self._recent) > self.window:
            self._recent.popleft()
        if self._pending and len(self._recent) >= self.min_samples:
            # A plan adopted before any query ran: its baseline is the
            # first full window of demand it actually served.
            self._baseline = self.demand_by_consumer()
            self._pending = False
        return snapshot

    def observe_run(self, outcomes: Iterable) -> None:
        """Fold a whole run's outcomes (admission order) into the window.

        The same state as :meth:`observe` on every outcome, folding only
        the outcomes that can still matter: while a rebase is pending, one
        by one until the first ``min_samples`` queries pin the baseline;
        after that, only the last ``window`` foreground outcomes, since
        the window would evict every earlier one.
        """
        outcomes = list(outcomes)
        start = 0
        # A pending rebase can only pin once the window holds min_samples.
        while (self._pending and self.min_samples <= self.window
               and start < len(outcomes)):
            self.observe(outcomes[start])
            start += 1
        tail = []
        for outcome in reversed(outcomes[start:]):
            if len(tail) >= self.window:
                break
            if getattr(outcome.session, "klass", 0) == 0:
                tail.append(outcome)
        for outcome in reversed(tail):
            self.observe(outcome)

    # -- demand mixes ------------------------------------------------------

    def demand_by_consumer(self) -> Dict[Consumer, float]:
        """Windowed demanded seconds per (operator, accuracy)."""
        demand: Dict[Consumer, float] = {}
        for snap in self._recent:
            for consumer, seconds in snap.consumers:
                demand[consumer] = demand.get(consumer, 0.0) + seconds
        return demand

    def demand_by_stream(self) -> Dict[str, float]:
        """Windowed demanded seconds per stream."""
        demand: Dict[str, float] = {}
        for snap in self._recent:
            demand[snap.stream] = demand.get(snap.stream, 0.0) + snap.seconds
        return demand

    def demanded_consumers(self) -> List[Consumer]:
        """Consumers the window observed, heaviest demand first."""
        demand = self.demand_by_consumer()
        return sorted(demand, key=lambda c: (-demand[c], c.operator,
                                             c.accuracy))

    # -- drift scoring -----------------------------------------------------

    def rebase(self, consumers: Optional[Iterable[Consumer]] = None) -> None:
        """Pin the current window's mix as the baseline.

        Called when a configuration is adopted (including by
        ``VStore.evolve_online``), so drift is always measured against
        the mix the *current* plan was derived for.  Before any query ran
        the window is empty; the baseline then pins itself from the first
        ``min_samples`` observed queries, so a stationary workload on a
        freshly configured store is not flagged as drift.  (``consumers``
        is accepted for callers that pass the plan's consumer set; the
        observed window supersedes it.)
        """
        baseline = self.demand_by_consumer()
        self._baseline = baseline
        self._pending = not baseline

    @staticmethod
    def _normalize(demand: Dict[Consumer, float]) -> Dict[Consumer, float]:
        total = sum(demand.values())
        if total <= 0:
            return {}
        return {c: v / total for c, v in demand.items()}

    def drift_score(self) -> float:
        """Total-variation distance between baseline and current mixes.

        0 = identical mixes, 1 = fully disjoint.  An empty baseline scores
        1.0 against any non-empty window (the detector was never rebased:
        everything the window wants is unanticipated) — except while a
        rebase is still waiting to pin itself from the first full window,
        which scores 0.0 (no mix to have drifted from yet).
        """
        current = self._normalize(self.demand_by_consumer())
        baseline = self._normalize(self._baseline)
        if not current:
            return 0.0
        if not baseline:
            return 0.0 if self._pending else 1.0
        # Baseline keys, then the window's new ones: a fixed summation
        # order, so the score's last bits do not follow PYTHONHASHSEED.
        keys = dict.fromkeys(baseline)
        keys.update(dict.fromkeys(current))
        return 0.5 * sum(
            abs(current.get(k, 0.0) - baseline.get(k, 0.0)) for k in keys
        )

    @property
    def samples(self) -> int:
        return len(self._recent)

    @property
    def drifted(self) -> bool:
        """Whether the window's mix has drifted past the threshold."""
        if self.samples < self.min_samples:
            return False
        return self.drift_score() >= self.threshold
