"""Consumption-format derivation (Section 4.2)."""

import pytest

from repro.core.consumption import ConsumptionPlanner
from repro.core.knobs import boundary_search_run_bound, exhaustive_run_bound
from repro.errors import ConfigurationError
from repro.operators.library import Consumer
from repro.profiler.profiler import OperatorProfiler

CONSUMERS = [
    Consumer("Diff", 0.9),
    Consumer("S-NN", 0.8),
    Consumer("NN", 0.95),
]


@pytest.fixture(scope="module")
def planner(library):
    return ConsumptionPlanner(OperatorProfiler(library, "jackson"))


@pytest.fixture(scope="module")
def planner_b(library):
    return ConsumptionPlanner(OperatorProfiler(library, "dashcam"))


@pytest.mark.parametrize("consumer", CONSUMERS, ids=str)
def test_derived_format_meets_accuracy(planner, consumer):
    d = planner.derive(consumer)
    assert d.accuracy >= consumer.accuracy
    assert d.consumption_speed > 0
    assert d.cf.fidelity == d.fidelity


@pytest.mark.parametrize("consumer", CONSUMERS, ids=str)
def test_boundary_matches_exhaustive_optimum(planner, consumer):
    """The O(rows+cols) walk finds the same minimum-cost format as
    profiling all 600 fidelity options."""
    fast = planner.derive(consumer)
    slow = planner.derive_exhaustive(consumer)
    assert fast.consumption_speed >= slow.consumption_speed * (1 - 1e-9)


def test_lower_accuracy_is_never_slower(planner_b):
    """Figure 11a's premise: dropping the target accuracy lets the store
    hand the operator cheaper video."""
    speeds = [
        planner_b.derive(Consumer("License", acc)).consumption_speed
        for acc in (0.95, 0.9, 0.8, 0.7)
    ]
    assert speeds == sorted(speeds)


def test_profiling_run_bound(library):
    """The search profiles O((Ns+Nr)*Ncrop + Nq) options per consumer —
    far below the 600-option exhaustive bound (Figure 14's 9-15x)."""
    profiler = OperatorProfiler(library, "jackson")
    planner = ConsumptionPlanner(profiler)
    planner.derive(Consumer("NN", 0.9))
    assert profiler.stats.runs <= boundary_search_run_bound()
    assert boundary_search_run_bound() * 9 <= exhaustive_run_bound()


def test_accuracies_share_profiling_runs(library):
    """Profiling one operator's four accuracy levels shares runs through
    memoization (Section 4.2's 'further optimization')."""
    profiler = OperatorProfiler(library, "jackson")
    planner = ConsumptionPlanner(profiler)
    planner.derive(Consumer("S-NN", 0.95))
    runs_first = profiler.stats.runs
    planner.derive(Consumer("S-NN", 0.9))
    planner.derive(Consumer("S-NN", 0.8))
    planner.derive(Consumer("S-NN", 0.7))
    assert profiler.stats.runs < 4 * runs_first
    assert profiler.stats.memo_hits > 0


def test_quality_post_pass_lowers_quality_only_if_adequate(planner):
    d = planner.derive(Consumer("NN", 0.8))
    # Any richer quality at the same other knobs must also be adequate
    # (monotonicity), and the chosen one is adequate itself.
    assert d.accuracy >= 0.8


def test_impossible_accuracy_raises(planner):
    with pytest.raises(ConfigurationError):
        planner.derive(Consumer("NN", 1.5))


def test_derive_all(planner):
    decisions = planner.derive_all(CONSUMERS)
    assert [d.consumer for d in decisions] == CONSUMERS
