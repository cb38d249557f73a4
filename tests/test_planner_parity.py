"""Planner parity: the vectorized plane and incremental coalescing must
reproduce the scalar planner's outputs exactly (Table-3 workload), the
exhaustive baseline must stay optimal, and memoization must cover >=90%
of profiler lookups (the paper's Section 6.4 claim is 92%)."""

import pytest

from repro.core.coalesce import StorageFormatPlanner
from repro.core.consumption import ConsumptionPlanner
from repro.ingest.budget import IngestBudget
from repro.operators.library import Consumer
from repro.profiler.coding_profiler import CodingProfiler

from oracles import scalar_profiler

#: The Table-3 workload: six operators at the four declared accuracies.
_JACKSON_OPS = ("Diff", "S-NN", "NN")
_DASHCAM_OPS = ("Motion", "License", "OCR")
_ACCURACIES = (0.95, 0.9, 0.8, 0.7)


@pytest.fixture(scope="module")
def table3_decisions(jackson_profiler, dashcam_profiler):
    decisions = []
    for planner, ops in (
        (ConsumptionPlanner(jackson_profiler), _JACKSON_OPS),
        (ConsumptionPlanner(dashcam_profiler), _DASHCAM_OPS),
    ):
        for op in ops:
            for acc in _ACCURACIES:
                decisions.append(planner.derive(Consumer(op, acc)))
    return decisions


@pytest.fixture(scope="module")
def small_decisions(dashcam_profiler):
    """A <=6-CF workload the exhaustive baseline can afford."""
    planner = ConsumptionPlanner(dashcam_profiler)
    return [planner.derive(Consumer(op, acc))
            for op in _DASHCAM_OPS for acc in (0.95, 0.8)]


def _planner(table, cores=None):
    """A planner on the shared profile table, or (``table=False``) on the
    scalar-surface oracle."""
    profiler = (CodingProfiler(activity=0.6) if table
                else scalar_profiler(activity=0.6))
    return StorageFormatPlanner(profiler, IngestBudget(cores))


def _assert_plans_identical(a, b, decisions):
    assert [sf.label for sf in a.formats] == [sf.label for sf in b.formats]
    assert a.storage_bytes_per_second == b.storage_bytes_per_second
    assert a.ingest_cores == b.ingest_cores
    assert a.rounds == b.rounds
    assert a.golden.label == b.golden.label
    for d in decisions:
        assert (a.subscription(d.consumer).label
                == b.subscription(d.consumer).label)


class TestVectorizedParity:
    def test_heuristic_plan_identical(self, table3_decisions):
        scalar = _planner(False).heuristic_coalesce(table3_decisions)
        table = _planner(True).heuristic_coalesce(table3_decisions)
        _assert_plans_identical(scalar, table, table3_decisions)

    def test_budgeted_heuristic_plan_identical(self, table3_decisions):
        free = _planner(True).heuristic_coalesce(table3_decisions)
        cores = max(0.4, free.ingest_cores * 0.5)
        scalar = _planner(False, cores).heuristic_coalesce(table3_decisions)
        table = _planner(True, cores).heuristic_coalesce(table3_decisions)
        _assert_plans_identical(scalar, table, table3_decisions)

    def test_distance_plan_identical(self, table3_decisions):
        scalar = _planner(False).distance_coalesce(
            table3_decisions, target_count=4
        )
        table = _planner(True).distance_coalesce(
            table3_decisions, target_count=4
        )
        _assert_plans_identical(scalar, table, table3_decisions)

    def test_exhaustive_plan_identical(self, small_decisions):
        scalar = _planner(False).exhaustive(small_decisions)
        table = _planner(True).exhaustive(small_decisions)
        _assert_plans_identical(scalar, table, small_decisions)


class TestExhaustiveBaseline:
    def test_exhaustive_never_worse_than_heuristic(self, small_decisions):
        heuristic = _planner(True).heuristic_coalesce(small_decisions)
        exhaustive = _planner(True).exhaustive(small_decisions)
        assert (exhaustive.storage_bytes_per_second
                <= heuristic.storage_bytes_per_second * (1 + 1e-9))

    def test_exhaustive_is_repeatable(self, small_decisions):
        """Fresh SFPlans per partition: no state leaks between runs of the
        same planner (the old code mutated golden flags on shared plans)."""
        planner = _planner(True)
        first = planner.exhaustive(small_decisions)
        second = planner.exhaustive(small_decisions)
        assert [sf.label for sf in first.formats] \
            == [sf.label for sf in second.formats]
        assert sum(sf.golden for sf in first.formats) == 1
        assert sum(sf.golden for sf in second.formats) == 1
        assert first.formats[0] is not second.formats[0]

    def test_golden_flag_not_shared_across_candidates(self, small_decisions):
        plan = _planner(True).exhaustive(small_decisions)
        golden = plan.golden
        # Exactly one golden format, and it owns the knob-wise max fidelity.
        for sf in plan.formats:
            if sf is not golden:
                assert not sf.golden


class TestMemoization:
    def test_jackson_memo_hit_rate(self, jackson_profiler):
        """Section 6.4: >=90% of profiler lookups during a heuristic
        coalescing run hit the memo (the paper reports 92%)."""
        planner = ConsumptionPlanner(jackson_profiler)
        decisions = [planner.derive(Consumer(op, acc))
                     for op in _JACKSON_OPS for acc in _ACCURACIES]
        profiler = CodingProfiler(activity=0.6)
        StorageFormatPlanner(profiler).heuristic_coalesce(decisions)
        assert profiler.stats.examined > 0
        assert profiler.stats.reuse_rate >= 0.90
