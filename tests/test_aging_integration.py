"""Multi-age integration: erosion plans executed against real segments.

Simulates a store holding several days' worth of footage (with a scaled
segment length so the test stays small), applies a budgeted erosion plan,
and checks the on-disk state: per-age deletion fractions realized, golden
format intact, total footprint shrinking toward the plan.
"""

import pytest

from repro.clock import SimClock
from repro.codec.encoder import Encoder
from repro.core.coalesce import StorageFormatPlanner
from repro.core.consumption import ConsumptionPlanner
from repro.core.erosion import ErosionPlanner
from repro.operators.library import Consumer, default_library
from repro.profiler.coding_profiler import CodingProfiler
from repro.profiler.profiler import OperatorProfiler
from repro.storage.kvstore import KVStore
from repro.storage.lifespan import apply_erosion_step
from repro.storage.segment_store import SegmentStore
from repro.storage.sharding import ShardedDiskArray
from repro.units import DAY
from repro.video.segment import Segment

#: Scaled segment length: 50 segments per "day" keeps the test small.
SEG_SECONDS = DAY / 50.0
DAYS = 4


@pytest.fixture(scope="module")
def plan_formats():
    library = default_library(names=("Motion", "License", "OCR"))
    planner = ConsumptionPlanner(OperatorProfiler(library, "dashcam"))
    decisions = planner.derive_all(
        [Consumer(op, acc) for op in ("Motion", "License", "OCR")
         for acc in (0.9, 0.7)]
    )
    profiler = CodingProfiler(activity=0.6)
    plan = StorageFormatPlanner(profiler).heuristic_coalesce(decisions)
    rates = {sf.label: profiler.profile(sf.fmt).bytes_per_second
             for sf in plan.formats}
    return plan, rates


def test_budgeted_erosion_end_to_end(tmp_path, plan_formats):
    plan, rates = plan_formats
    erosion_planner = ErosionPlanner(plan.formats, rates,
                                     lifespan_days=DAYS)
    unbounded = erosion_planner.plan(None).total_bytes
    floor = erosion_planner.plan_for_k(16.0).total_bytes
    budget = floor + 0.4 * (unbounded - floor)
    erosion = erosion_planner.plan(budget)
    assert erosion.k > 0

    # Materialize DAYS days of footage (scaled segments).
    kv = KVStore(str(tmp_path / "seg.log"))
    store = SegmentStore(kv, ShardedDiskArray(1))
    enc = Encoder(clock=SimClock())
    n_segments = DAYS * 50
    for i in range(n_segments):
        segment = Segment("cam", i, seconds=SEG_SECONDS)
        for sf in plan.formats:
            store.put(enc.encode(segment, sf.fmt, activity=0.6))

    now = n_segments * SEG_SECONDS
    fraction_map = erosion.deleted_fraction_map(plan.formats)
    deleted = apply_erosion_step(store, "cam", fraction_map, now, DAYS,
                                 segment_seconds=SEG_SECONDS)
    assert deleted > 0

    golden = plan.golden
    # The golden format is fully intact.
    assert store.segment_count("cam", golden.fmt) == n_segments

    # Realized deletion fractions per age track the plan (the rank spread
    # is pseudo-uniform, so allow sampling slack on 50 segments).
    for sf in plan.formats:
        if sf.golden:
            continue
        for age in range(1, DAYS + 1):
            lo = (n_segments - age * 50)
            indices = set(store.indices("cam", sf.fmt))
            present = sum(1 for i in range(lo, lo + 50) if i in indices)
            planned = fraction_map.get((age, sf.fmt), 0.0)
            realized = 1.0 - present / 50.0
            assert realized == pytest.approx(planned, abs=0.18)

    # Applying the same plan again deletes nothing (idempotent).
    assert apply_erosion_step(store, "cam", fraction_map, now, DAYS,
                              segment_seconds=SEG_SECONDS) == 0
    kv.close()


def test_erosion_keeps_queries_answerable(tmp_path, plan_formats):
    """After erosion, every consumer still has a satisfiable format for any
    surviving time range — the golden fallback guarantee."""
    plan, rates = plan_formats
    golden = plan.golden
    for sf in plan.formats:
        for demand in sf.demands:
            assert golden.fidelity.richer_equal(demand.cf_fidelity)
