"""Figure 13: age-based data erosion under storage budgets.

(a) overall operator speed decays with video age; tighter budgets force
    more aggressive decay factors k;
(b) residual per-format stored size shrinks with age under a tight budget,
    while the golden format survives untouched.
"""

from repro.core.coalesce import StorageFormatPlanner
from repro.core.consumption import ConsumptionPlanner
from repro.core.erosion import ErosionPlanner
from repro.operators.library import Consumer
from repro.profiler.coding_profiler import CodingProfiler
from repro.profiler.profiler import OperatorProfiler

LIFESPAN = 10


def _planner(library):
    consumption = ConsumptionPlanner(OperatorProfiler(library, "dashcam"))
    decisions = consumption.derive_all(
        [Consumer(op, acc)
         for op in ("Motion", "License", "OCR")
         for acc in (0.95, 0.9, 0.8, 0.7)]
    )
    profiler = CodingProfiler(activity=0.6)
    plan = StorageFormatPlanner(profiler).heuristic_coalesce(decisions)
    rates = {sf.label: profiler.profile(sf.fmt).bytes_per_second
             for sf in plan.formats}
    return ErosionPlanner(plan.formats, rates, LIFESPAN)


def test_fig13a_speed_decay_per_budget(benchmark, record, full_library):
    planner = _planner(full_library)
    unbounded = planner.plan(None).total_bytes
    floor = planner.plan_for_k(16.0).total_bytes

    def sweep():
        plans = {}
        for fraction in (1.05, 0.6, 0.35, 0.15):
            budget = floor + fraction * (unbounded - floor)
            plans[fraction] = planner.plan(
                budget if fraction < 1.0 else None
            )
        return plans

    plans = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [f"{'budget':>8} {'k':>6} | " + " ".join(
        f"d{a:<4}" for a in range(1, LIFESPAN + 1))]
    for fraction, plan in plans.items():
        speeds = " ".join(f"{plan.overall_speed[a]:5.2f}"
                          for a in range(1, LIFESPAN + 1))
        lines.append(f"{fraction:>8} {plan.k:>6.2f} | {speeds}")
    record("Figure 13a — speed decay", "\n".join(lines))

    ks = [plan.k for plan in plans.values()]
    # Above the unbounded footprint: no decay.  Tighter budgets: higher k.
    assert ks[0] == 0.0
    assert ks == sorted(ks)
    assert ks[-1] > ks[1]
    for plan in plans.values():
        speeds = [plan.overall_speed[a] for a in range(1, LIFESPAN + 1)]
        assert speeds[0] == 1.0 or plan.k == 0.0
        assert all(b <= a + 1e-9 for a, b in zip(speeds, speeds[1:]))


def test_fig13b_residual_sizes(benchmark, record, full_library):
    planner = _planner(full_library)
    unbounded = planner.plan(None).total_bytes
    floor = planner.plan_for_k(16.0).total_bytes
    budget = floor + 0.3 * (unbounded - floor)

    plan = benchmark.pedantic(lambda: planner.plan(budget),
                              rounds=1, iterations=1)

    golden_label = next(sf.label for sf in planner.formats if sf.golden)
    lines = [f"{'age':>4} " + " ".join(f"{lab[:18]:>18}"
                                       for lab in plan.labels) + "   total"]
    for age in range(1, LIFESPAN + 1):
        cells = [plan.residual_bytes[(age, lab)] for lab in plan.labels]
        lines.append(f"{age:>4} "
                     + " ".join(f"{c / 2**30:>18.1f}" for c in cells)
                     + f" {sum(cells) / 2**30:>7.1f}")
    record("Figure 13b — residual GB by age (budgeted)", "\n".join(lines))

    assert plan.total_bytes <= budget
    for label in plan.labels:
        residuals = [plan.residual_bytes[(age, label)]
                     for age in range(1, LIFESPAN + 1)]
        if label == golden_label:
            # The golden format is never eroded.
            assert all(r == residuals[0] for r in residuals)
        else:
            # Other formats only shrink with age.
            assert all(b <= a + 1e-6 for a, b in zip(residuals, residuals[1:]))
    # Day-1 footage is intact for every format.
    for label in plan.labels:
        assert plan.fractions[(1, label)] == 0.0
