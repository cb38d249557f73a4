"""Storage-format coalescing (Section 4.3): R1-R4, heuristic vs baselines."""

import pytest

from repro.core.coalesce import (
    Demand,
    SFPlan,
    StorageFormatPlanner,
    cheapest_adequate_coding,
    coding_is_adequate,
    _set_partitions,
)
from repro.core.consumption import ConsumptionPlanner
from repro.errors import BudgetError
from repro.ingest.budget import IngestBudget, cores_required
from repro.operators.library import Consumer
from repro.profiler.coding_profiler import CodingProfiler
from repro.profiler.profiler import OperatorProfiler
from repro.retrieval.speed import retrieval_speed
from repro.video.coding import RAW
from repro.video.fidelity import Fidelity, knobwise_max


@pytest.fixture(scope="module")
def decisions(library):
    """Query B's 12 consumers, as in the paper's Section 6.4 experiment."""
    planner = ConsumptionPlanner(OperatorProfiler(library, "dashcam"))
    return planner.derive_all(
        [Consumer(op, acc)
         for op in ("Motion", "License", "OCR")
         for acc in (0.95, 0.9, 0.8, 0.7)]
    )


@pytest.fixture()
def planner():
    return StorageFormatPlanner(CodingProfiler(activity=0.6))


def _fid(label):
    return Fidelity.parse(label)


class TestCodingSelection:
    def test_no_demands_picks_cheapest_storage(self, planner):
        coding = cheapest_adequate_coding(planner.profiler, _fid(
            "best-720p-1-100%"), [])
        # Slowest preset, largest GOP: the storage-optimal option.
        assert coding.label == "250-slowest"

    def test_fast_demand_forces_raw(self, planner):
        demand = Demand(Consumer("Diff", 0.8), _fid("best-200p-1/30-100%"),
                        30000.0)
        coding = cheapest_adequate_coding(
            planner.profiler, _fid("best-200p-1-100%"), [demand]
        )
        assert coding == RAW

    def test_moderate_demand_picks_encoded(self, planner):
        demand = Demand(Consumer("NN", 0.9), _fid("good-540p-1/6-100%"), 20.0)
        coding = cheapest_adequate_coding(
            planner.profiler, _fid("good-540p-1/6-100%"), [demand]
        )
        assert not coding.raw
        fmt = SFPlan(_fid("good-540p-1/6-100%"), coding).fmt
        assert coding_is_adequate(planner.profiler, fmt, [demand])


class TestInitialFormats:
    def test_one_sf_per_unique_cf_plus_golden(self, planner, decisions):
        formats = planner.initial_formats(decisions)
        unique = {d.fidelity for d in decisions}
        assert len(formats) == len(unique) + 1
        assert sum(sf.golden for sf in formats) == 1

    def test_golden_is_knobwise_max(self, planner, decisions):
        formats = planner.initial_formats(decisions)
        golden = next(sf for sf in formats if sf.golden)
        assert golden.fidelity == knobwise_max([d.fidelity for d in decisions])

    def test_empty_decisions_rejected(self, planner):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            planner.initial_formats([])


class TestHeuristicCoalesce:
    def test_requirements_r1_r2(self, planner, decisions):
        """R1: every SF's fidelity covers its CFs.  R2: retrieval speed
        covers every consumer that any dedicated format could satisfy."""
        plan = planner.heuristic_coalesce(decisions)
        for sf in plan.formats:
            for demand in sf.demands:
                assert sf.fidelity.richer_equal(demand.cf_fidelity)  # R1
                speed = retrieval_speed(sf.fmt, demand.cf_fidelity.sampling)
                own = SFPlan(
                    demand.cf_fidelity,
                    cheapest_adequate_coding(planner.profiler,
                                             demand.cf_fidelity, [demand]),
                )
                own_speed = retrieval_speed(own.fmt,
                                            demand.cf_fidelity.sampling)
                if own_speed >= demand.required_speed:
                    assert speed >= demand.required_speed * (1 - 1e-9)  # R2

    def test_consolidates_formats_r3(self, planner, decisions):
        """R3: far fewer SFs than unique CFs."""
        plan = planner.heuristic_coalesce(decisions)
        unique = len({d.fidelity for d in decisions})
        assert len(plan.formats) < unique
        assert plan.rounds > 0

    def test_every_consumer_subscribed(self, planner, decisions):
        plan = planner.heuristic_coalesce(decisions)
        for d in decisions:
            sf = plan.subscription(d.consumer)
            assert sf in plan.formats

    def test_golden_survives(self, planner, decisions):
        plan = planner.heuristic_coalesce(decisions)
        assert plan.golden.golden

    def test_free_phase_never_increases_storage(self, planner, decisions):
        """Without a budget, coalescing must not cost storage (the paper's
        end-to-end setting: ingest savings at no storage increase)."""
        initial = planner.initial_formats(decisions)
        plan = planner.heuristic_coalesce(decisions)
        assert (plan.storage_bytes_per_second
                <= planner.storage_cost(initial) + 1e-6)

    def test_coalescing_reduces_ingest(self, planner, decisions):
        initial = planner.initial_formats(decisions)
        plan = planner.heuristic_coalesce(decisions)
        assert plan.ingest_cores < planner.ingest_cost(initial)


class TestExhaustiveValidation:
    def test_heuristic_matches_exhaustive(self, library):
        """Section 6.4: heuristic selection produces the same storage
        formats as exhaustive enumeration."""
        planner_cf = ConsumptionPlanner(OperatorProfiler(library, "dashcam"))
        small = planner_cf.derive_all(
            [Consumer(op, acc)
             for op in ("Motion", "License", "OCR")
             for acc in (0.95, 0.8)]
        )
        sfp = StorageFormatPlanner(CodingProfiler(activity=0.6))
        heuristic = sfp.heuristic_coalesce(small)
        exhaustive = sfp.exhaustive(small)
        assert (sorted(sf.label for sf in heuristic.formats)
                == sorted(sf.label for sf in exhaustive.formats))
        assert heuristic.storage_bytes_per_second == pytest.approx(
            exhaustive.storage_bytes_per_second
        )

    def test_exhaustive_guards_cf_count(self, planner, decisions):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            planner.exhaustive(decisions, max_cfs=2)

    def test_set_partitions_bell_numbers(self):
        # Bell numbers: 1, 1, 2, 5, 15, 52.
        for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
            assert len(list(_set_partitions(list(range(n))))) == bell


class TestDistanceBased:
    def test_distance_reaches_target_count(self, planner, decisions):
        plan = planner.distance_coalesce(decisions, target_count=4)
        assert len(plan.formats) <= 4

    def test_distance_never_beats_heuristic_storage(self, decisions):
        """Section 6.4: distance-based selection costs extra storage (it is
        blind to resource impacts)."""
        heuristic = StorageFormatPlanner(
            CodingProfiler(activity=0.6)).heuristic_coalesce(decisions)
        distance = StorageFormatPlanner(
            CodingProfiler(activity=0.6)).distance_coalesce(
                decisions, target_count=len(heuristic.formats))
        assert (distance.storage_bytes_per_second
                >= heuristic.storage_bytes_per_second * (1 - 1e-9))

    def test_distance_profiles_less(self, decisions):
        """Distance-based selection is cheaper to run: it profiles only
        merged outcomes, not every candidate pair."""
        prof_h = CodingProfiler(activity=0.6)
        StorageFormatPlanner(prof_h).heuristic_coalesce(decisions)
        prof_d = CodingProfiler(activity=0.6)
        StorageFormatPlanner(prof_d).distance_coalesce(decisions,
                                                       target_count=4)
        assert prof_d.stats.runs < prof_h.stats.runs


class TestIngestBudget:
    def test_budget_adaptation_cheapens_coding(self, decisions):
        """Table 4: lowering the ingest budget steps coding toward faster
        presets and trades a bounded storage increase."""
        def plan_for(cores):
            sfp = StorageFormatPlanner(CodingProfiler(activity=0.6),
                                       IngestBudget(cores))
            return sfp.heuristic_coalesce(decisions)

        unlimited = plan_for(None)
        tight = plan_for(max(0.4, unlimited.ingest_cores * 0.5))
        assert tight.ingest_cores <= unlimited.ingest_cores
        assert (tight.storage_bytes_per_second
                >= unlimited.storage_bytes_per_second * (1 - 1e-9))
        assert cores_required([sf.fmt for sf in tight.formats]) <= max(
            0.4, unlimited.ingest_cores * 0.5) + 1e-9

    def test_infeasible_budget_raises(self, decisions):
        sfp = StorageFormatPlanner(CodingProfiler(activity=0.6),
                                   IngestBudget(1e-9))
        with pytest.raises(BudgetError):
            sfp.heuristic_coalesce(decisions)
