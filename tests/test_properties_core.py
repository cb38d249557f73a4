"""Property-based tests over the core planning algorithms.

Hypothesis drives random consumer subsets, budgets, and fidelity pairs
through the planners, asserting the paper's structural invariants (R1-R4,
golden format, monotone budget responses) rather than specific outcomes.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codec.model import DEFAULT_CODEC
from repro.core.coalesce import Demand, StorageFormatPlanner, \
    cheapest_adequate_coding
from repro.core.consumption import ConsumptionPlanner
from repro.core.erosion import ErosionPlanner
from repro.ingest.budget import IngestBudget, cores_required
from repro.operators.library import Consumer, default_library
from repro.profiler.coding_profiler import CodingProfiler
from repro.profiler.profiler import OperatorProfiler
from repro.video.fidelity import (
    CROP_FACTORS,
    Fidelity,
    QUALITIES,
    RESOLUTION_ORDER,
    SAMPLING_RATES,
    knobwise_max,
)

_LIBRARY = default_library()
_PROFILER = OperatorProfiler(_LIBRARY, "dashcam")
_PLANNER = ConsumptionPlanner(_PROFILER)

# Pre-derive the full consumer pool once; subsets are drawn from it.
_POOL = _PLANNER.derive_all(
    [Consumer(op, acc)
     for op in ("Motion", "License", "OCR")
     for acc in (0.95, 0.9, 0.8, 0.7)]
)

fidelities = st.builds(
    Fidelity,
    quality=st.sampled_from(QUALITIES),
    resolution=st.sampled_from(RESOLUTION_ORDER),
    sampling=st.sampled_from(SAMPLING_RATES),
    crop=st.sampled_from(CROP_FACTORS),
)

decision_subsets = st.lists(
    st.sampled_from(_POOL), min_size=1, max_size=8, unique_by=lambda d: d.consumer
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(decisions=decision_subsets)
def test_coalesce_invariants_on_random_subsets(decisions):
    planner = StorageFormatPlanner(CodingProfiler(activity=0.6))
    plan = planner.heuristic_coalesce(decisions)

    # Exactly one golden format, its fidelity the knob-wise max of all CFs.
    goldens = [sf for sf in plan.formats if sf.golden]
    assert len(goldens) == 1
    assert goldens[0].fidelity == knobwise_max([d.fidelity for d in decisions])

    # R1 everywhere; every consumer subscribed exactly once.
    seen = set()
    for sf in plan.formats:
        for demand in sf.demands:
            assert sf.fidelity.richer_equal(demand.cf_fidelity)
            assert demand.consumer not in seen
            seen.add(demand.consumer)
    assert seen == {d.consumer for d in decisions}

    # R3: consolidation never produces more SFs than unique CFs + golden.
    assert len(plan.formats) <= len({d.fidelity for d in decisions}) + 1


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(decisions=decision_subsets, factor=st.floats(0.5, 0.95))
def test_budget_respected_or_infeasible(decisions, factor):
    """R4: any budget the coalescer accepts is actually met."""
    from repro.errors import BudgetError

    free = StorageFormatPlanner(
        CodingProfiler(activity=0.6)).heuristic_coalesce(decisions)
    cap = max(0.05, free.ingest_cores * factor)
    planner = StorageFormatPlanner(CodingProfiler(activity=0.6),
                                   IngestBudget(cap))
    try:
        plan = planner.heuristic_coalesce(decisions)
    except BudgetError:
        return  # declared infeasible is an acceptable outcome
    assert cores_required([sf.fmt for sf in plan.formats]) <= cap + 1e-9
    # Paying for the budget can only cost storage, not save it.
    assert plan.storage_bytes_per_second >= free.storage_bytes_per_second * (
        1 - 1e-9
    )


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fid=fidelities, speed=st.floats(1.0, 1e5))
def test_cheapest_adequate_coding_is_cheapest(fid, speed):
    """The chosen coding is adequate, and no cheaper-storage encoded option
    is adequate too."""
    from repro.core.coalesce import coding_is_adequate
    from repro.video.coding import coding_space
    from repro.video.format import StorageFormat

    profiler = CodingProfiler(activity=0.5)
    demand = Demand(Consumer("X", 0.9), fid, speed)
    chosen = cheapest_adequate_coding(profiler, fid, [demand])
    if chosen.raw:
        # No encoded option was adequate.
        for coding in coding_space(include_raw=False):
            assert not coding_is_adequate(
                profiler, StorageFormat(fid, coding), [demand]
            )
        return
    chosen_size = DEFAULT_CODEC.encoded_bytes_per_second(
        fid, chosen, profiler.activity)
    for coding in coding_space(include_raw=False):
        size = DEFAULT_CODEC.encoded_bytes_per_second(
            fid, coding, profiler.activity)
        if size < chosen_size - 1e-9:
            assert not coding_is_adequate(
                profiler, StorageFormat(fid, coding), [demand]
            )


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(k=st.floats(0.0, 8.0))
def test_erosion_plan_structure_for_any_k(k):
    planner = StorageFormatPlanner(CodingProfiler(activity=0.6))
    plan = planner.heuristic_coalesce(_POOL)
    profiler = CodingProfiler(activity=0.6)
    rates = {sf.label: profiler.profile(sf.fmt).bytes_per_second
             for sf in plan.formats}
    erosion = ErosionPlanner(plan.formats, rates, lifespan_days=6).plan_for_k(k)

    golden_label = next(sf.label for sf in plan.formats if sf.golden)
    for age in range(1, 7):
        assert erosion.fractions[(age, golden_label)] == 0.0
        assert 0.0 < erosion.overall_speed[age] <= 1.0
    for label in erosion.labels:
        series = [erosion.fractions[(age, label)] for age in range(1, 7)]
        assert series == sorted(series)  # cumulative
        assert all(0.0 <= f <= 1.0 for f in series)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    op=st.sampled_from(("Motion", "License", "OCR")),
    accuracy=st.floats(0.55, 0.97),
)
def test_consumption_derivation_adequate_for_any_target(op, accuracy):
    """The planner meets arbitrary accuracy targets, not just the declared
    levels, and never returns a slower format than a random adequate one."""
    decision = _PLANNER.derive(Consumer(op, accuracy))
    assert decision.accuracy >= accuracy
    assert decision.consumption_speed > 0
