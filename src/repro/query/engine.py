"""Query engine: estimating and planning cascades against the store.

``estimate`` composes per-stage speeds analytically (how Figure 11a is
produced); ``plan`` lays out the task chain that streams segments from a
segment store through the decoder/disk to stochastic operator runs — the
full data path of Figure 1 — for the concurrent executor
(:mod:`repro.query.scheduler`) to run on a simulated clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.cache.plane import CachePlane

from repro.core.config import Configuration
from repro.errors import QueryError
from repro.operators.library import Consumer, OperatorLibrary
from repro.query.alternatives import AlternativeScheme, vstore_scheme
from repro.query.cascade import QueryCascade, stages_with_coverage
from repro.retrieval.reader import SegmentReader
from repro.retrieval.speed import retrieval_speed
from repro.rng import rng_for
from repro.storage.segment_store import SegmentStore
from repro.video.content import ClipTruth
from repro.video.datasets import get_dataset
from repro.video.fidelity import Fidelity
from repro.video.format import StorageFormat
from repro.video.segment import segments_for_range


@dataclass(frozen=True)
class StageReport:
    """Speed breakdown of one cascade stage."""

    operator: str
    accuracy: float  # target accuracy (1.0 under the 1->1 scheme)
    fidelity: Fidelity
    storage_format: StorageFormat
    consumption_speed: float  # x realtime
    retrieval_speed: float  # x realtime
    coverage: float  # fraction of the queried span this stage scans
    selectivity: float  # fraction of frames it passes downstream

    @property
    def effective_speed(self) -> float:
        """The stage runs at the slower of retrieval and consumption."""
        return min(self.consumption_speed, self.retrieval_speed)


@dataclass(frozen=True)
class QueryReport:
    """End-to-end analytic query outcome."""

    query: str
    dataset: str
    scheme: str
    accuracy: float
    duration: float  # queried video seconds
    stages: List[StageReport]

    @property
    def total_seconds(self) -> float:
        return sum(
            s.coverage * self.duration / s.effective_speed
            for s in self.stages
            if s.effective_speed > 0
        )

    @property
    def speed(self) -> float:
        """Query speed in x video realtime (Figure 11a's metric)."""
        total = self.total_seconds
        return float("inf") if total <= 0 else self.duration / total


@dataclass
class ExecutionResult:
    """Outcome of actually executing a cascade against a segment store."""

    query: str
    dataset: str
    video_seconds: float
    compute_seconds: float
    speed: float
    positives_per_stage: Dict[str, int] = field(default_factory=dict)
    segments_per_stage: Dict[str, int] = field(default_factory=dict)


class QueryEngine:
    """Plans and estimates cascades on one dataset under one configuration."""

    #: Sample length (video seconds) used for selectivity estimation.
    SELECTIVITY_SAMPLE = 32.0

    def __init__(
        self,
        config: Configuration,
        library: OperatorLibrary,
        dataset: str,
        cache: Optional["CachePlane"] = None,
        stage_outcomes: Optional[Dict[tuple, Tuple[int, float]]] = None,
    ):
        self.config = config
        self.library = library
        self.dataset = dataset
        self.cache = cache
        self._content = get_dataset(dataset).content()
        #: (positive frames, output bytes) per (operator, segment index,
        #: consumer-fidelity label) — see :meth:`_stage_outcome`.  A store
        #: passes its memo for this dataset, so every engine it builds
        #: shares one; a standalone engine keeps its own.
        self._outcomes: Dict[tuple, Tuple[int, float]] = (
            {} if stage_outcomes is None else stage_outcomes
        )

    @cached_property
    def _sample(self) -> ClipTruth:
        """The clip selectivity estimates run on (only ``estimate*`` reads
        it, so planning-only engines never clip it)."""
        return self._content.clip(0.0, self.SELECTIVITY_SAMPLE)

    # -- analytic estimation --------------------------------------------------------

    def estimate(
        self,
        query: QueryCascade,
        accuracy: float,
        duration: float,
        scheme: Optional[AlternativeScheme] = None,
    ) -> QueryReport:
        """Analytic end-to-end query speed under a configuration scheme."""
        return self.estimate_mixed(
            query, {name: accuracy for name in query}, duration, scheme
        )

    def estimate_mixed(
        self,
        query: QueryCascade,
        accuracies: Dict[str, float],
        duration: float,
        scheme: Optional[AlternativeScheme] = None,
    ) -> QueryReport:
        """Like :meth:`estimate`, with a per-operator accuracy selection —
        users pick accuracy levels per constituting operator (Section 6.1).
        """
        scheme = scheme or vstore_scheme(self.config)
        selectivities: List[float] = []
        stages: List[StageReport] = []
        for name in query:
            op = self.library.get(name)
            try:
                accuracy = accuracies[name]
            except KeyError:
                raise QueryError(
                    f"no accuracy selected for operator {name!r}"
                ) from None
            consumer = Consumer(name, accuracy)
            fidelity = scheme.consumption_fidelity(consumer)
            fmt = scheme.storage_format(consumer)
            selectivities.append(
                op.expected_positive_fraction(self._sample, fidelity)
            )
            stages.append(
                StageReport(
                    operator=name,
                    accuracy=accuracy if scheme.honors_targets else 1.0,
                    fidelity=fidelity,
                    storage_format=fmt,
                    consumption_speed=op.consumption_speed(fidelity),
                    retrieval_speed=retrieval_speed(fmt, fidelity.sampling),
                    coverage=1.0,  # placeholder, fixed below
                    selectivity=selectivities[-1],
                )
            )
        coverages = stages_with_coverage(selectivities)
        stages = [
            StageReport(
                operator=s.operator,
                accuracy=s.accuracy,
                fidelity=s.fidelity,
                storage_format=s.storage_format,
                consumption_speed=s.consumption_speed,
                retrieval_speed=s.retrieval_speed,
                coverage=c,
                selectivity=s.selectivity,
            )
            for s, c in zip(stages, coverages)
        ]
        return QueryReport(
            query=query.label,
            dataset=self.dataset,
            scheme=scheme.name,
            accuracy=min(accuracies[name] for name in query),
            duration=duration,
            stages=stages,
        )

    # -- actual execution ----------------------------------------------------------------

    def plan(
        self,
        query: QueryCascade,
        accuracy: float,
        store: SegmentStore,
        t0: float,
        t1: float,
        *,
        stream: Optional[str] = None,
        scheme: Optional[AlternativeScheme] = None,
        contexts: int = 1,
    ) -> "QueryPlan":
        """Plan a query's full task chain without charging any clock.

        Stage i+1 only touches segments in which stage i produced at least
        one positive frame — the cascade structure of Figure 2 at segment
        granularity.  Operator outputs are seeded per segment, so the plan
        is independent of how its tasks are later scheduled.  ``stream``
        lets one content model (this engine's dataset) stand in for footage
        ingested under another stream name (a camera fleet).

        Stage outcomes (positive frames and output bytes per segment) are
        reused across every plan that reads this engine's memo, for any
        stream: each operator runs at most once per (operator, segment,
        fidelity) per memo — per store for the engines a
        :class:`~repro.core.store.VStore` builds, per engine otherwise.
        Retrieval costs, shard routing and cache hits are assessed afresh
        on every call, each segment of a stage routed once (its
        :class:`~repro.storage.segment_store.StoredSegment`'s ``shard``
        costs the read and names the retrieve task's pool).  A segment is
        clipped at most once per call, however many stages miss the memo
        on it; the clips are dropped when the call returns.
        """
        from repro.query.scheduler import (
            QueryPlan,
            ResourceTask,
            StagePlan,
            dispatch,
        )

        if not (math.isfinite(t0) and math.isfinite(t1)) or t0 < 0:
            raise QueryError(f"query range [{t0}, {t1}) must be finite and "
                             f"start at or after 0")
        if t1 <= t0:
            raise QueryError(f"empty query range [{t0}, {t1})")
        stream = stream or self.dataset
        scheme = scheme or vstore_scheme(self.config)
        active = list(segments_for_range(stream, t0, t1))
        stages: List[StagePlan] = []
        clips: Dict[int, ClipTruth] = {}  # by segment index

        for name in query:
            op = self.library.get(name)
            consumer = Consumer(name, accuracy)
            fidelity = scheme.consumption_fidelity(consumer)
            fmt = scheme.storage_format(consumer)
            reader = SegmentReader(store, fmt, fidelity, cache=self.cache)
            tasks: List[ResourceTask] = []
            survivors = []
            n_pos = 0
            consume_costs: List[float] = []
            result_keys: List[Optional[tuple]] = []
            result_nbytes: List[float] = []  # output bytes, for commits
            result_hits: List[tuple] = []  # (key, saved seconds) per hit
            # One vectorized pass builds the whole stage's retrieval costs
            # and consume-cost array (bit-identical to the scalar loop);
            # only the stochastic operator outputs stay per-segment.
            assessed = reader.assess_cached_many(
                stream, [segment.index for segment in active]
            )
            base_costs = (
                op.cost_per_frame(fidelity)
                * np.asarray([r.n_frames for r, _ in assessed],
                             dtype=np.int64)
            ).tolist()
            for segment, (retrieved, access), cost in zip(
                    active, assessed, base_costs):
                hits, nbytes = self._stage_outcome(op, name, segment,
                                                   fidelity, clips)
                rkey = None
                result_hit = False
                if self.cache is not None:
                    rkey = self.cache.result_key(
                        stream, segment.index, self.dataset, name,
                        fidelity.label, str(fidelity.sampling),
                    )
                    if self.cache.results.is_committed(rkey):
                        # The result is resident in simulated RAM: this
                        # segment's consume is free for this stage (the
                        # hit is counted when the consume task runs).
                        # Result outputs are orders of magnitude smaller
                        # than frames, so unlike frame hits no RAM-read
                        # time is modeled — charging a near-zero epsilon
                        # would only poison latency/service ratios.
                        result_hits.append((rkey, cost))
                        cost = 0.0
                        result_hit = True
                consume_costs.append(cost)
                # A committed hit has nothing to produce or deduplicate:
                # its key is cleared so the executor's single-flight pass
                # leaves it alone.
                result_keys.append(None if result_hit else rkey)
                result_nbytes.append(nbytes)
                if hits > 0:
                    survivors.append(segment)
                    n_pos += hits
                if result_hit:
                    # The stage output is already resident: the frames are
                    # never needed, so no retrieval is planned at all —
                    # charging disk/decode for provably unused data would
                    # overstate warm latency and pool contention.
                    continue
                cache_hit = access is not None and access.hit
                tasks.append(ResourceTask(
                    kind="retrieve",
                    resource="cache" if cache_hit
                    else ("disk" if fmt.is_raw else "decoder"),
                    units=1,
                    duration=retrieved.retrieval_seconds,
                    category="cache" if cache_hit else reader.category,
                    operator=name,
                    access=access,
                    hit=cache_hit,
                    shard=retrieved.stored.shard,
                ))
            # A stage with fewer segments than contexts can never load the
            # extra contexts (least-loaded dispatch leaves them idle), and
            # zero-cost (result-cache-hit) segments do no work either, so
            # only hold as many pool units as can actually do work.
            busy_segments = sum(1 for c in consume_costs if c > 0)
            tasks.append(ResourceTask(
                kind="consume",
                resource="operators",
                units=max(1, min(contexts, busy_segments)),
                duration=dispatch(consume_costs, contexts).makespan,
                category="consume",
                operator=name,
            ))
            stages.append(StagePlan(
                operator=name,
                tasks=tuple(tasks),
                touched=len(active),
                positives=n_pos,
                consume_costs=tuple(consume_costs),
                result_keys=tuple(result_keys),
                result_nbytes=tuple(result_nbytes),
                result_hits=tuple(result_hits),
            ))
            active = survivors

        return QueryPlan(
            label=query.label,
            dataset=self.dataset,
            stream=stream,
            video_seconds=t1 - t0,
            stages=tuple(stages),
            contexts=contexts,
        )

    def _stage_outcome(self, op, name: str, segment, fidelity: Fidelity,
                       clips: Dict[int, ClipTruth]) -> Tuple[int, float]:
        """(positive frames, output bytes) of one stage over one segment.

        Memoized under (operator, segment index, fidelity label) in this
        engine's memo, which is per dataset: :meth:`_stage_output` is
        seeded without the stream, over the dataset's deterministic
        content model, so the outcome holds for every stream alias,
        configuration, store state, shard health and cache plane — and
        for every engine of one store, whose library only ever gains
        operators.  Only a miss runs the operator, on the segment's clip
        from ``clips`` (the calling plan's, clipped on first need).
        """
        key = (name, segment.index, fidelity.label)
        outcome = self._outcomes.get(key)
        if outcome is None:
            clip = clips.get(segment.index)
            if clip is None:
                clip = clips[segment.index] = self._content.clip(
                    segment.t0, segment.seconds)
            output = self._stage_output(op, name, clip, fidelity,
                                        segment.index)
            outcome = self._outcomes[key] = (int(np.asarray(output).sum()),
                                             float(output.nbytes))
        return outcome

    def _stage_output(self, op, name: str, clip, fidelity: Fidelity,
                      index: int) -> np.ndarray:
        """One stage's deterministic output over one segment, seeded per
        (operator, dataset, segment, fidelity)."""
        rng = rng_for("query", name, self.dataset, index, fidelity.label)
        return np.asarray(op.run(clip, fidelity, rng))
