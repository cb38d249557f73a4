"""Erosion planning (Section 4.4, Figures 10 and 13)."""

import pytest

from repro.core.coalesce import StorageFormatPlanner
from repro.core.consumption import ConsumptionPlanner
from repro.core.erosion import ErosionPlanner, power_law_target
from repro.errors import ErosionError
from repro.operators.library import Consumer
from repro.profiler.coding_profiler import CodingProfiler
from repro.profiler.profiler import OperatorProfiler


@pytest.fixture(scope="module")
def plan_and_rates(library):
    planner = ConsumptionPlanner(OperatorProfiler(library, "dashcam"))
    decisions = planner.derive_all(
        [Consumer(op, acc)
         for op in ("Motion", "License", "OCR")
         for acc in (0.95, 0.9, 0.8, 0.7)]
    )
    profiler = CodingProfiler(activity=0.6)
    plan = StorageFormatPlanner(profiler).heuristic_coalesce(decisions)
    rates = {sf.label: profiler.profile(sf.fmt).bytes_per_second
             for sf in plan.formats}
    return plan, rates


@pytest.fixture(scope="module")
def planner(plan_and_rates):
    plan, rates = plan_and_rates
    return ErosionPlanner(plan.formats, rates, lifespan_days=10)


def test_power_law_shape():
    assert power_law_target(1, 2.0, 0.1) == pytest.approx(1.0)
    assert power_law_target(10, 2.0, 0.1) == pytest.approx(0.9 / 100 + 0.1)
    # k = 0: no decay at any age.
    assert power_law_target(7, 0.0, 0.1) == pytest.approx(1.0)


def test_requires_golden():
    from repro.core.coalesce import SFPlan
    from repro.video.coding import Coding
    from repro.video.fidelity import Fidelity
    sf = SFPlan(Fidelity.parse("good-540p-1-100%"), Coding("med", 50))
    with pytest.raises(ErosionError):
        ErosionPlanner([sf], {sf.label: 1e5})


def test_tree_rooted_at_golden(planner):
    golden_idx = next(i for i, sf in enumerate(planner.formats) if sf.golden)
    assert planner.parent[golden_idx] is None
    for i, sf in enumerate(planner.formats):
        chain = planner.chain(i)
        assert chain[0] == i
        assert chain[-1] == golden_idx
        # Parents are strictly richer along the chain (fallback keeps R1).
        for child, parent in zip(chain, chain[1:]):
            assert planner.formats[parent].fidelity.richer_equal(
                planner.formats[child].fidelity
            )


def test_relative_speed_formula_single_level(planner):
    """With one fallback level the general chain reduces to the paper's
    alpha / ((1-p) alpha + p)."""
    # Pick a non-golden format with demands.
    idx, sf = next(
        (i, sf) for i, sf in enumerate(planner.formats)
        if not sf.golden and sf.demands
    )
    demand = sf.demands[0]
    parent = planner.parent[idx]
    v0 = planner.effective_speed(demand, idx)
    v1 = planner.effective_speed(demand, parent)
    alpha = v1 / v0
    for p in (0.0, 0.3, 0.7, 1.0):
        got = planner.relative_speed(demand, idx, {idx: p})
        if planner.parent[parent] is None or p == 0.0:
            expected = alpha / ((1 - p) * alpha + p)
            assert got == pytest.approx(expected)


def test_relative_speed_bounds(planner):
    fractions = {i: 0.5 for i, sf in enumerate(planner.formats)
                 if not sf.golden}
    for demand, home in planner._consumers:
        rel = planner.relative_speed(demand, home, fractions)
        assert 0.0 < rel <= 1.0


def test_overall_speed_is_min(planner):
    fractions = {i: 0.4 for i, sf in enumerate(planner.formats)
                 if not sf.golden}
    overall = planner.overall_speed(fractions)
    rels = [planner.relative_speed(d, h, fractions)
            for d, h in planner._consumers]
    assert overall == pytest.approx(min(rels))


def test_pmin_reached_when_everything_eroded(planner):
    assert 0.0 < planner.pmin <= 1.0


def test_plan_without_budget_never_decays(planner):
    plan = planner.plan(None)
    assert plan.k == 0.0
    assert all(f == 0.0 for f in plan.fractions.values())
    assert all(s == pytest.approx(1.0) for s in plan.overall_speed.values())


def test_higher_k_erodes_more(planner):
    gentle = planner.plan_for_k(0.5)
    harsh = planner.plan_for_k(4.0)
    assert harsh.total_bytes <= gentle.total_bytes + 1e-6
    for age in range(1, 11):
        assert (harsh.overall_speed[age]
                <= gentle.overall_speed[age] + 0.05)


def test_fractions_accumulate_over_ages(planner):
    plan = planner.plan_for_k(3.0)
    for label in plan.labels:
        fractions = [plan.fractions[(age, label)] for age in range(1, 11)]
        assert fractions == sorted(fractions)


def test_golden_never_eroded(planner):
    plan = planner.plan_for_k(6.0)
    golden_label = next(sf.label for sf in planner.formats if sf.golden)
    for age in range(1, 11):
        assert plan.fractions[(age, golden_label)] == 0.0


def test_age_one_intact(planner):
    plan = planner.plan_for_k(5.0)
    for label in plan.labels:
        assert plan.fractions[(1, label)] == 0.0


def test_budget_binary_search_fits(planner):
    # Pick a budget strictly between the erosion floor (golden format plus
    # day-1 footage, which are never deleted) and the no-decay footprint.
    unbounded = planner.plan(None).total_bytes
    floor = planner.plan_for_k(16.0).total_bytes
    budget = floor + 0.5 * (unbounded - floor)
    plan = planner.plan(budget)
    assert plan.total_bytes <= budget
    assert plan.k > 0.0
    # The found k is close to minimal: slightly gentler decay overflows.
    if plan.k > 0.02:
        gentler = planner.plan_for_k(plan.k * 0.8)
        assert gentler.total_bytes > budget * 0.98


def test_infeasible_budget_raises(planner):
    with pytest.raises(ErosionError):
        planner.plan(1.0)  # one byte


def test_speed_targets_respected(planner):
    plan = planner.plan_for_k(2.0)
    for age in range(1, 11):
        target = power_law_target(age, 2.0, plan.pmin)
        # Achieved speed sits at or below target (deletion granularity),
        # but not absurdly below it.
        assert plan.overall_speed[age] <= target + 1e-6
        assert plan.overall_speed[age] >= plan.pmin - 1e-9


def test_deleted_fraction_map_keys(plan_and_rates, planner):
    plan_sf, _ = plan_and_rates
    plan = planner.plan_for_k(3.0)
    mapped = plan.deleted_fraction_map(plan_sf.formats)
    assert len(mapped) == 10 * len(plan_sf.formats)
    for (age, fmt), fraction in mapped.items():
        assert 1 <= age <= 10
        assert 0.0 <= fraction <= 1.0
