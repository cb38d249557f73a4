"""Deriving storage formats by iterative coalescing (Section 4.3).

Starting from one storage format per unique consumption format, plus the
*golden* format (knob-wise maximum fidelity, cheapest-storage coding, the
ultimate erosion fallback), VStore coalesces pairs:

* the merged fidelity is the knob-wise maximum (satisfiable fidelity, R1);
* the merged coding is the cheapest-storage option whose retrieval speed
  still beats every downstream consumer (adequate retrieval, R2), falling
  back to raw frames when no encoded option keeps up;
* **heuristic selection** first harvests "free" merges (less ingest, no
  extra storage), then — only if the ingestion budget is exceeded — trades
  storage for ingest by merging further and by stepping individual formats
  to faster (cheaper to encode, bulkier) coding;
* **distance-based selection** (the evaluated alternative) merges the
  closest pair in normalized knob space without profiling pair outcomes;
* **exhaustive enumeration** (validation baseline) scores every set
  partition of the consumption formats.

Coalescing is *incremental*: pair-merge and coding-bump evaluations are
cached across rounds, so after a merge only moves involving the new format
are scored (O(n) fresh evaluations per round instead of an O(n^2) rescan),
and retrieval-adequacy verdicts are memoized per (format, demand).  The
caches only avoid recomputation — move scoring, iteration order and
tie-breaking of ``heuristic_coalesce`` and ``distance_coalesce`` are
unchanged, so their plans are identical to the non-incremental planner's.
``exhaustive`` enumerates partitions in restricted-growth-string order
(the legacy recursion visited them differently); a partition whose score
*exactly ties* the optimum may therefore resolve to a different, equally
optimal plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.consumption import ConsumptionDecision
from repro.errors import BudgetError, ConfigurationError
from repro.ingest.budget import IngestBudget
from repro.operators.library import Consumer
from repro.profiler.coding_profiler import CodingProfiler
from repro.video.coding import Coding, RAW, SPEED_STEPS
from repro.video.fidelity import (
    CROP_FACTORS,
    Fidelity,
    QUALITIES,
    RESOLUTION_ORDER,
    SAMPLING_RATES,
    knobwise_max,
)
from repro.video.format import StorageFormat

_EPS = 1e-9


@dataclass(frozen=True)
class Demand:
    """One consumer's requirement on its storage format.

    Demands key the planner's adequacy memo, so the hash is computed once,
    at construction.
    """

    consumer: Consumer
    cf_fidelity: Fidelity
    required_speed: float  # the consumer's consumption speed (x realtime)
    #: True for a Section-7 legacy subscription: the consumer was bound to
    #: an existing (satisfiable but not derived-for-it) format because
    #: transcoding old footage on its behalf was deferred.  The next
    #: incremental re-plan treats such consumers as newcomers — a legacy
    #: binding is provisional, not a format the planner chose for them.
    legacy: bool = False
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((
            self.consumer, self.cf_fidelity, self.required_speed, self.legacy
        )))

    def __hash__(self) -> int:
        return self._hash


@dataclass
class SFPlan:
    """A storage format under construction, with its downstream demands."""

    fidelity: Fidelity
    coding: Coding
    demands: List[Demand] = field(default_factory=list)
    golden: bool = False

    @property
    def fmt(self) -> StorageFormat:
        return StorageFormat(self.fidelity, self.coding)

    @property
    def label(self) -> str:
        return self.fmt.label


@dataclass
class CoalescePlan:
    """The outcome of storage-format derivation."""

    formats: List[SFPlan]
    storage_bytes_per_second: float
    ingest_cores: float
    rounds: int = 0

    @property
    def golden(self) -> SFPlan:
        for sf in self.formats:
            if sf.golden:
                return sf
        raise ConfigurationError("plan lost its golden format")

    def subscription(self, consumer: Consumer) -> SFPlan:
        """The storage format a consumer's CF subscribes to."""
        for sf in self.formats:
            if any(d.consumer == consumer for d in sf.demands):
                return sf
        raise ConfigurationError(f"consumer {consumer} has no storage format")


def coding_is_adequate(
    profiler: CodingProfiler,
    fmt: StorageFormat,
    demands: Sequence[Demand],
) -> bool:
    """R2 check: retrieval beats every downstream consumer's speed."""
    for demand in demands:
        speed = profiler.retrieval_speed(fmt, demand.cf_fidelity.sampling)
        if speed < demand.required_speed - _EPS:
            return False
    return True


def cheapest_adequate_coding(
    profiler: CodingProfiler,
    fidelity: Fidelity,
    demands: Sequence[Demand],
) -> Coding:
    """The lowest-storage coding option meeting all retrieval demands.

    Walks encoded options from smallest on-disk size upward, profiling each
    candidate (memoized by the profiler); when even the cheapest-to-decode
    encoded option is too slow, the coding bypass (raw frames) is chosen —
    exactly the rule of Section 4.3.
    """
    for fmt in profiler.table.storage_formats(fidelity):
        if coding_is_adequate(profiler, fmt, demands):
            return fmt.coding
    return RAW


class _MoveCache:
    """Caches pair-merge and coding-bump evaluations across rounds.

    Entries are keyed by the identity of the participating :class:`SFPlan`
    objects (and hold strong references to them, so ids cannot be reused
    while the cache lives).  Formats removed by a merge simply stop being
    looked up; only pairs involving the freshly merged format are ever
    evaluated anew.
    """

    def __init__(self, planner: "StorageFormatPlanner"):
        self._planner = planner
        self._pairs: Dict[tuple, tuple] = {}
        self._bumps: Dict[int, tuple] = {}

    def pair_move(
        self, a: SFPlan, b: SFPlan
    ) -> Optional[Tuple[float, float, SFPlan]]:
        """(d_storage, d_ingest, merged) for a safe merge, else ``None``."""
        key = (id(a), id(b))
        entry = self._pairs.get(key)
        if entry is None:
            p = self._planner
            merged = p.coalesce_pair(a, b)
            if not p._merge_is_safe(merged, (a, b)):
                move = None
            else:
                d_sto = (
                    p.sf_storage(merged) - p.sf_storage(a) - p.sf_storage(b)
                )
                d_ing = p.sf_ingest(merged) - p.sf_ingest(a) - p.sf_ingest(b)
                move = (d_sto, d_ing, merged)
            entry = (a, b, move)
            self._pairs[key] = entry
        return entry[2]

    def bump_move(self, sf: SFPlan) -> Optional[Tuple[float, float, SFPlan]]:
        """(d_storage, d_ingest, bumped) for a useful coding step, else
        ``None`` (raw, already fastest, inadequate, or no ingest saved)."""
        entry = self._bumps.get(id(sf))
        if entry is None:
            entry = (sf, self._planner._evaluate_bump(sf))
            self._bumps[id(sf)] = entry
        return entry[1]


class StorageFormatPlanner:
    """Coalesces consumption formats into storage formats."""

    def __init__(self, profiler: CodingProfiler,
                 budget: IngestBudget = IngestBudget()):
        self.profiler = profiler
        self.budget = budget
        self._adequacy: Dict[Tuple[StorageFormat, Demand], bool] = {}

    # -- construction of the initial SF set ----------------------------------------

    def initial_formats(
        self, decisions: Sequence[ConsumptionDecision]
    ) -> List[SFPlan]:
        """One SF per unique CF (identical fidelity), plus the golden SF."""
        if not decisions:
            raise ConfigurationError("cannot plan storage with no consumers")
        by_cf: Dict[Fidelity, List[Demand]] = {}
        for d in decisions:
            demand = Demand(d.consumer, d.fidelity, d.consumption_speed)
            by_cf.setdefault(d.fidelity, []).append(demand)

        formats = [
            SFPlan(
                fidelity=fid,
                coding=self._cheapest_adequate_coding(fid, demands),
                demands=demands,
            )
            for fid, demands in by_cf.items()
        ]
        golden_fid = knobwise_max([d.fidelity for d in decisions])
        golden_coding = self._cheapest_adequate_coding(golden_fid, [])
        formats.append(SFPlan(golden_fid, golden_coding, demands=[], golden=True))
        return formats

    # -- memoized adequacy ------------------------------------------------------------

    def _demand_adequate(self, fmt: StorageFormat, demand: Demand) -> bool:
        """Memoized R2 verdict for one (format, demand) pair.

        A cache hit is a format examination that reused profiled results;
        it is tallied in ``stats.adequacy_hits``, separate from the
        profiler's own ``memo_hits`` (see :class:`CodingProfilerStats`).
        """
        key = (fmt, demand)
        verdict = self._adequacy.get(key)
        if verdict is None:
            speed = self.profiler.retrieval_speed(
                fmt, demand.cf_fidelity.sampling
            )
            verdict = speed >= demand.required_speed - _EPS
            self._adequacy[key] = verdict
        else:
            self.profiler.stats.adequacy_hits += 1
        return verdict

    def _adequate(self, fmt: StorageFormat, demands: Sequence[Demand]) -> bool:
        return all(self._demand_adequate(fmt, d) for d in demands)

    def _cheapest_adequate_coding(
        self, fidelity: Fidelity, demands: Sequence[Demand]
    ) -> Coding:
        """:func:`cheapest_adequate_coding` through the adequacy memo.

        Visits the same (format, demand) pairs in the same order as
        ``_adequate`` over each ranked format would, so every counter
        and clock charge is the same; a memo hit is inlined.
        """
        adequacy = self._adequacy
        for fmt in self.profiler.table.storage_formats(fidelity):
            for demand in demands:
                verdict = adequacy.get((fmt, demand))
                if verdict is None:
                    verdict = self._demand_adequate(fmt, demand)
                else:
                    self.profiler.stats.adequacy_hits += 1
                if not verdict:
                    break
            else:
                return fmt.coding
        return RAW

    # -- cost accounting --------------------------------------------------------------

    def sf_storage(self, sf: SFPlan) -> float:
        return self.profiler.profile(sf.fmt).bytes_per_second

    def sf_ingest(self, sf: SFPlan) -> float:
        return self.profiler.profile(sf.fmt).ingest_cost

    def storage_cost(self, formats: Sequence[SFPlan]) -> float:
        return sum(self.sf_storage(sf) for sf in formats)

    def ingest_cost(self, formats: Sequence[SFPlan]) -> float:
        return sum(self.sf_ingest(sf) for sf in formats)

    def _within_budget(self, formats: Sequence[SFPlan]) -> bool:
        """The ingestion-budget check of :meth:`IngestBudget.allows`, fed
        from memoized profiles instead of fresh codec-surface calls."""
        if self.budget.cores is None:
            return True
        return self.ingest_cost(formats) <= self.budget.cores + _EPS

    # -- pair coalescing ---------------------------------------------------------------

    def coalesce_pair(self, a: SFPlan, b: SFPlan) -> SFPlan:
        """Merge two storage formats (Section 4.3's three-effect move)."""
        fidelity = knobwise_max([a.fidelity, b.fidelity])
        demands = list(a.demands) + list(b.demands)
        coding = self._cheapest_adequate_coding(fidelity, demands)
        return SFPlan(fidelity, coding, demands, golden=a.golden or b.golden)

    def _merge_is_safe(self, merged: SFPlan, parents: Sequence[SFPlan]) -> bool:
        """A merge must not take retrieval adequacy away from a consumer
        that had it before (some ultra-fast consumers are retrieval-bound
        even on raw frames; those may stay retrieval-bound, but an adequate
        consumer must remain adequate)."""
        merged_fmt = merged.fmt
        for parent in parents:
            parent_fmt = parent.fmt
            for demand in parent.demands:
                had = self._demand_adequate(parent_fmt, demand)
                if had and not self._demand_adequate(merged_fmt, demand):
                    return False
        return True

    def _evaluate_bump(
        self, sf: SFPlan
    ) -> Optional[Tuple[float, float, SFPlan]]:
        """Score one format's step to the next-faster coding option."""
        if sf.coding.raw:
            return None
        step_idx = sf.coding.speed_idx
        if step_idx + 1 >= len(SPEED_STEPS):
            return None
        faster = Coding(
            speed_step=SPEED_STEPS[step_idx + 1],
            keyframe_interval=sf.coding.keyframe_interval,
        )
        bumped = replace(sf, coding=faster)
        if not self._adequate(bumped.fmt, bumped.demands):
            return None
        d_sto = self.sf_storage(bumped) - self.sf_storage(sf)
        d_ing = self.sf_ingest(bumped) - self.sf_ingest(sf)
        if d_ing >= -_EPS:
            return None
        return d_sto, d_ing, bumped

    def _pair_moves(
        self, formats: List[SFPlan], cache: Optional[_MoveCache] = None
    ) -> Iterator[Tuple[float, float, int, int, SFPlan]]:
        """All safe pairwise merges as (d_storage, d_ingest, i, j, merged)."""
        cache = cache or _MoveCache(self)
        for i in range(len(formats)):
            for j in range(i + 1, len(formats)):
                move = cache.pair_move(formats[i], formats[j])
                if move is None:
                    continue
                d_sto, d_ing, merged = move
                yield d_sto, d_ing, i, j, merged

    def _coding_bump_moves(
        self, formats: List[SFPlan], cache: Optional[_MoveCache] = None
    ) -> Iterator[Tuple[float, float, int, SFPlan]]:
        """Per-format steps to a faster (cheaper-encode) coding option."""
        cache = cache or _MoveCache(self)
        for i, sf in enumerate(formats):
            move = cache.bump_move(sf)
            if move is None:
                continue
            d_sto, d_ing, bumped = move
            yield d_sto, d_ing, i, bumped

    # -- heuristic-based selection --------------------------------------------------------

    def heuristic_coalesce(
        self, decisions: Sequence[ConsumptionDecision]
    ) -> CoalescePlan:
        """The paper's heuristic: free merges first, then pay storage for
        ingest until the budget is met."""
        return self._climb(self.initial_formats(decisions))

    def _climb(self, formats: List[SFPlan],
               rounds: int = 0) -> CoalescePlan:
        """The shared hill-climb behind both planner entry points.

        Runs the two heuristic phases from an arbitrary seed format set:
        ``heuristic_coalesce`` seeds it with one SF per unique CF,
        ``incremental_coalesce`` with the re-demanded current plan.
        """
        cache = _MoveCache(self)

        # Phase 1: harvest free merges (no storage increase, less ingest).
        while True:
            best = None
            for d_sto, d_ing, i, j, merged in self._pair_moves(formats, cache):
                if d_sto > _EPS or d_ing > -_EPS:
                    continue
                key = (d_ing, d_sto)  # most ingest saved, then most storage
                if best is None or key < best[0]:
                    best = (key, i, j, merged)
            if best is None:
                break
            _, i, j, merged = best
            formats = [f for k, f in enumerate(formats) if k not in (i, j)]
            formats.append(merged)
            rounds += 1

        # Phase 2: trade storage for ingest until under budget.
        while not self._within_budget(formats):
            best = None  # (storage paid per core saved, apply-closure)
            for d_sto, d_ing, i, j, merged in self._pair_moves(formats, cache):
                if d_ing > -_EPS:
                    continue
                price = d_sto / -d_ing
                if best is None or price < best[0]:
                    best = (price, ("merge", i, j, merged))
            for d_sto, d_ing, i, bumped in self._coding_bump_moves(
                formats, cache
            ):
                price = d_sto / -d_ing
                if best is None or price < best[0]:
                    best = (price, ("bump", i, None, bumped))
            if best is None:
                raise BudgetError(
                    f"ingestion budget {self.budget.cores} cores is infeasible: "
                    f"cheapest format set needs "
                    f"{self.ingest_cost(formats):.2f} cores"
                )
            _, (kind, i, j, new_sf) = best
            if kind == "merge":
                formats = [f for k, f in enumerate(formats) if k not in (i, j)]
            else:
                formats = [f for k, f in enumerate(formats) if k != i]
            formats.append(new_sf)
            rounds += 1

        return CoalescePlan(
            formats=formats,
            storage_bytes_per_second=self.storage_cost(formats),
            ingest_cores=self.ingest_cost(formats),
            rounds=rounds,
        )

    # -- incremental re-planning ---------------------------------------------------------

    def incremental_coalesce(
        self,
        decisions: Sequence[ConsumptionDecision],
        seed: Sequence[SFPlan],
    ) -> CoalescePlan:
        """Hill-climb from the *current* plan instead of re-enumerating.

        Evolutionary-style re-planning: the input to this round is the
        best plan so far.  The seed's formats are re-seeded with the new
        demand set —

        * a consumer already subscribed in the seed keeps its format (as
          long as that format still covers its CF and the subscription is
          not a provisional legacy binding — see :class:`Demand.legacy`);
        * consumers new to the mix — or whose CF outgrew their old home —
          get dedicated initial formats, one per unique leftover CF;
        * non-golden seed formats left without any demand are dropped;
        * every surviving format's coding is re-tightened to the cheapest
          adequate option for its remaining demands;
        * the golden format follows the new knob-wise maximum (keeping
          the seed's coding when the maximum is unchanged, so stored
          golden segments stay valid)

        — and the shared climb then runs from that set.  On a stationary
        workload the re-seeded set *is* the seed and the climb finds no
        moves, so the plan matches ``heuristic_coalesce``'s; under drift
        only moves touching the changed formats are evaluated, warm via
        the profiler's memo tables.
        """
        if not decisions:
            raise ConfigurationError("cannot plan storage with no consumers")
        seed = list(seed)
        home_of: Dict[Consumer, Tuple[SFPlan, Demand]] = {
            d.consumer: (sf, d) for sf in seed for d in sf.demands
        }
        kept: Dict[int, List[Demand]] = {}
        leftovers: Dict[Fidelity, List[Demand]] = {}
        for d in decisions:
            demand = Demand(d.consumer, d.fidelity, d.consumption_speed)
            home, seed_demand = home_of.get(d.consumer, (None, None))
            if (home is not None and not home.golden
                    and not seed_demand.legacy
                    and home.fidelity.richer_equal(d.fidelity)):
                kept.setdefault(id(home), []).append(demand)
            else:
                leftovers.setdefault(d.fidelity, []).append(demand)

        formats: List[SFPlan] = []
        for sf in seed:
            if sf.golden:
                continue
            demands = kept.get(id(sf))
            if not demands:
                continue  # demand vanished: retire the format
            formats.append(SFPlan(
                sf.fidelity,
                self._cheapest_adequate_coding(sf.fidelity, demands),
                demands,
            ))
        for fid, demands in leftovers.items():
            formats.append(SFPlan(
                fid, self._cheapest_adequate_coding(fid, demands), demands
            ))

        golden_fid = knobwise_max([d.fidelity for d in decisions])
        old_golden = next((sf for sf in seed if sf.golden), None)
        if old_golden is not None and old_golden.fidelity == golden_fid:
            golden_coding = old_golden.coding
        else:
            golden_coding = self._cheapest_adequate_coding(golden_fid, [])
        formats.append(SFPlan(golden_fid, golden_coding, [], golden=True))
        return self._climb(formats)

    # -- distance-based selection ------------------------------------------------------------

    @staticmethod
    def _knob_vector(fidelity: Fidelity) -> np.ndarray:
        """Knob indices normalized to [0, 1] for the similarity metric."""
        return np.array([
            fidelity.quality_idx / (len(QUALITIES) - 1),
            fidelity.resolution_idx / (len(RESOLUTION_ORDER) - 1),
            fidelity.sampling_idx / (len(SAMPLING_RATES) - 1),
            fidelity.crop_idx / (len(CROP_FACTORS) - 1),
        ])

    def distance_coalesce(
        self,
        decisions: Sequence[ConsumptionDecision],
        target_count: Optional[int] = 4,
    ) -> CoalescePlan:
        """The evaluated alternative: merge the closest pair in normalized
        knob space each round, ignoring resource impacts."""
        formats = self.initial_formats(decisions)
        rounds = 0
        vectors: Dict[Fidelity, np.ndarray] = {}
        distances: Dict[Tuple[Fidelity, Fidelity], float] = {}

        def vector(fidelity: Fidelity) -> np.ndarray:
            vec = vectors.get(fidelity)
            if vec is None:
                vec = self._knob_vector(fidelity)
                vectors[fidelity] = vec
            return vec

        def distance(a: SFPlan, b: SFPlan) -> float:
            # Distance depends only on the fidelity pair, so a merged format
            # reuses every distance its fidelity was already scored at.
            key = (a.fidelity, b.fidelity)
            dist = distances.get(key)
            if dist is None:
                dist = float(np.linalg.norm(
                    vector(a.fidelity) - vector(b.fidelity)
                ))
                distances[key] = dist
            return dist

        def done() -> bool:
            under_budget = self._within_budget(formats)
            at_target = target_count is None or len(formats) <= target_count
            return under_budget and at_target

        while len(formats) > 1 and not done():
            best = None
            for i in range(len(formats)):
                for j in range(i + 1, len(formats)):
                    dist = distance(formats[i], formats[j])
                    if best is None or dist < best[0]:
                        best = (dist, i, j)
            _, i, j = best
            merged = self.coalesce_pair(formats[i], formats[j])
            formats = [f for k, f in enumerate(formats) if k not in (i, j)]
            formats.append(merged)
            rounds += 1

        return CoalescePlan(
            formats=formats,
            storage_bytes_per_second=self.storage_cost(formats),
            ingest_cores=self.ingest_cost(formats),
            rounds=rounds,
        )

    # -- exhaustive enumeration (validation baseline, Section 6.4) -------------------------------

    def exhaustive(
        self, decisions: Sequence[ConsumptionDecision], max_cfs: int = 12
    ) -> CoalescePlan:
        """Score every set partition of the CFs; minimize storage cost, then
        ingest cost, subject to the ingestion budget.

        Partitions are enumerated iteratively (restricted growth strings)
        and every block — a subset of CFs — is profiled once: its merged
        fidelity, adequate coding, storage and ingest costs are memoized
        across the Bell-number many partitions that share it, so the loop
        body reduces to summing cached floats.  Fresh :class:`SFPlan`
        objects are built only for the winning partition.  Scoring is
        enumeration-order independent except for exact score ties, where
        the first partition visited wins (the legacy recursive enumerator
        visited partitions in a different order).
        """
        by_cf: Dict[Fidelity, List[Demand]] = {}
        for d in decisions:
            by_cf.setdefault(d.fidelity, []).append(
                Demand(d.consumer, d.fidelity, d.consumption_speed)
            )
        cfs = list(by_cf.items())
        if len(cfs) > max_cfs:
            raise ConfigurationError(
                f"exhaustive enumeration over {len(cfs)} CFs is unaffordable "
                f"(limit {max_cfs}); use heuristic_coalesce"
            )
        golden_fid = knobwise_max([d.fidelity for d in decisions])

        # Reference adequacy: what each CF's own dedicated SF can deliver.
        own_adequate: Dict[Fidelity, bool] = {}
        for fid, demands in cfs:
            coding = self._cheapest_adequate_coding(fid, demands)
            own_adequate[fid] = self._adequate(
                StorageFormat(fid, coding), demands
            )

        # Block memo: CF-index subset -> (fidelity, coding, storage, ingest)
        # for feasible blocks, or None for infeasible ones.
        block_memo: Dict[Tuple[int, ...], Optional[tuple]] = {}

        def block_info(key: Tuple[int, ...]) -> Optional[tuple]:
            if key in block_memo:
                return block_memo[key]
            fidelity = knobwise_max([cfs[k][0] for k in key])
            demands = [dem for k in key for dem in cfs[k][1]]
            coding = self._cheapest_adequate_coding(fidelity, demands)
            fmt = StorageFormat(fidelity, coding)
            info: Optional[tuple] = None
            if all(
                not own_adequate[cfs[k][0]] or self._adequate(fmt, cfs[k][1])
                for k in key
            ):
                profile = self.profiler.profile(fmt)
                info = (
                    fidelity, coding,
                    profile.bytes_per_second, profile.ingest_cost,
                )
            block_memo[key] = info
            return info

        golden_costs: Optional[Tuple[Coding, float, float]] = None

        def golden_info() -> Tuple[Coding, float, float]:
            nonlocal golden_costs
            if golden_costs is None:
                coding = self._cheapest_adequate_coding(golden_fid, [])
                profile = self.profiler.profile(
                    StorageFormat(golden_fid, coding)
                )
                golden_costs = (
                    coding, profile.bytes_per_second, profile.ingest_cost
                )
            return golden_costs

        best: Optional[tuple] = None  # (score, blocks, infos, has_golden)
        for blocks in _index_partitions(len(cfs)):
            infos = []
            for block in blocks:
                info = block_info(tuple(block))
                if info is None:
                    break
                infos.append(info)
            else:
                has_golden = any(info[0] == golden_fid for info in infos)
                storage = sum(info[2] for info in infos)
                ingest = sum(info[3] for info in infos)
                if not has_golden:
                    _, g_storage, g_ingest = golden_info()
                    storage += g_storage
                    ingest += g_ingest
                if (self.budget.cores is not None
                        and ingest > self.budget.cores + _EPS):
                    continue
                score = (storage, ingest)
                if best is None or score < best[0]:
                    best = (score, [list(b) for b in blocks], infos,
                            has_golden)
        if best is None:
            raise BudgetError("no partition satisfies the ingestion budget")

        # Materialize fresh SFPlans for the winning partition only; the
        # first block at the golden fidelity (if any) becomes the golden SF.
        _, blocks, infos, has_golden = best
        formats: List[SFPlan] = []
        golden_marked = False
        for block, (fidelity, coding, _, _) in zip(blocks, infos):
            demands = [dem for k in block for dem in cfs[k][1]]
            is_golden = not golden_marked and fidelity == golden_fid
            golden_marked = golden_marked or is_golden
            formats.append(SFPlan(fidelity, coding, demands, golden=is_golden))
        if not has_golden:
            coding, _, _ = golden_info()
            formats.append(SFPlan(golden_fid, coding, [], golden=True))
        return CoalescePlan(
            formats=formats,
            storage_bytes_per_second=self.storage_cost(formats),
            ingest_cores=self.ingest_cost(formats),
        )


def _index_partitions(n: int) -> Iterator[List[List[int]]]:
    """All set partitions of range(n), via iterative restricted-growth-string
    enumeration (no recursion, no per-partition allocation beyond blocks)."""
    if n == 0:
        yield []
        return
    a = [0] * n  # a[i] = block number of item i; a restricted growth string
    m = [0] * n  # m[i] = max(a[:i + 1])
    while True:
        blocks: List[List[int]] = [[] for _ in range(m[n - 1] + 1)]
        for i, b in enumerate(a):
            blocks[b].append(i)
        yield blocks
        i = n - 1
        while i > 0 and a[i] == m[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        if a[i] > m[i]:
            m[i] = a[i]
        for j in range(i + 1, n):
            a[j] = 0
            m[j] = m[i]


def _set_partitions(items: List[int]) -> Iterator[List[List[int]]]:
    """All set partitions of ``items`` (Bell-number many)."""
    for blocks in _index_partitions(len(items)):
        yield [[items[i] for i in block] for block in blocks]
