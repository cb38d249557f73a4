"""Query cascades and the analytic engine (Figure 11a)."""

import pytest

from repro.errors import QueryError
from repro.query.alternatives import (
    n_to_n_scheme,
    one_to_n_scheme,
    one_to_one_scheme,
)
from repro.query.cascade import (
    QUERY_A,
    QUERY_B,
    QueryCascade,
    cascade_for,
    stages_with_coverage,
)
from repro.query.engine import QueryEngine
from repro.profiler.coding_profiler import CodingProfiler


class TestCascades:
    def test_benchmark_queries_match_figure2(self):
        assert QUERY_A.operators == ("Diff", "S-NN", "NN")
        assert QUERY_B.operators == ("Motion", "License", "OCR")

    def test_cascade_lookup(self):
        assert cascade_for("A") is QUERY_A
        assert cascade_for("B") is QUERY_B
        with pytest.raises(QueryError):
            cascade_for("C")

    def test_empty_cascade_rejected(self):
        with pytest.raises(QueryError):
            QueryCascade("X", ())

    def test_coverage_is_cumulative_product(self):
        assert stages_with_coverage([0.5, 0.2, 0.9]) == [1.0, 0.5, 0.1]

    def test_coverage_clamps(self):
        assert stages_with_coverage([1.5, -0.1]) == [1.0, 1.0]


@pytest.fixture(scope="module")
def engine(configuration, query_library):
    return QueryEngine(configuration, query_library, "jackson")


@pytest.fixture(scope="module")
def engine_b(configuration, query_library):
    return QueryEngine(configuration, query_library, "dashcam")


class TestEstimation:
    def test_report_structure(self, engine):
        report = engine.estimate(QUERY_A, 0.9, 3600.0)
        assert len(report.stages) == 3
        assert report.stages[0].coverage == 1.0
        assert report.speed > 0
        assert report.total_seconds > 0

    def test_later_stages_cover_less(self, engine):
        report = engine.estimate(QUERY_A, 0.9, 3600.0)
        coverages = [s.coverage for s in report.stages]
        assert coverages == sorted(coverages, reverse=True)

    def test_lower_accuracy_is_faster(self, engine):
        """Figure 11a: accuracy/cost trade-off — lowering the target
        accelerates the query substantially.  A small local dip is allowed:
        a *more* accurate early filter can pass fewer false positives
        downstream, slightly offsetting its own higher cost."""
        speeds = [engine.estimate(QUERY_A, acc, 3600.0).speed
                  for acc in (0.95, 0.9, 0.8, 0.7)]
        for slower, faster in zip(speeds, speeds[1:]):
            assert faster >= slower * 0.85
        assert speeds[-1] > 3 * speeds[0]

    def test_vstore_beats_one_to_n(self, engine):
        """Figure 11a: 1->N caps every consumer at the golden decode speed;
        VStore's SF set avoids the retrieval bottleneck."""
        for acc in (0.9, 0.8):
            vs = engine.estimate(QUERY_A, acc, 3600.0)
            capped = engine.estimate(QUERY_A, acc, 3600.0,
                                     one_to_n_scheme(engine.config))
            assert vs.speed >= capped.speed

    def test_one_to_n_gap_grows_at_low_accuracy(self, engine):
        """The bottleneck matters more when consumers are fast (low
        accuracy): the paper reports 3-16x."""
        gap = {}
        for acc in (0.95, 0.7):
            vs = engine.estimate(QUERY_A, acc, 3600.0).speed
            ton = engine.estimate(QUERY_A, acc, 3600.0,
                                  one_to_n_scheme(engine.config)).speed
            gap[acc] = vs / ton
        assert gap[0.7] >= gap[0.95]
        assert gap[0.7] > 1.5

    def test_one_to_one_fixed_operating_point(self, engine):
        """1->1 consumes full fidelity: accuracy pinned at 1.0, one speed."""
        scheme = one_to_one_scheme(engine.config)
        a = engine.estimate(QUERY_A, 0.95, 3600.0, scheme)
        b = engine.estimate(QUERY_A, 0.7, 3600.0, scheme)
        assert a.speed == pytest.approx(b.speed)
        assert all(s.accuracy == 1.0 for s in a.stages)

    def test_vstore_beats_one_to_one(self, engine):
        """VStore accelerates queries by orders of magnitude over a store
        oblivious to consumers (two orders in the paper)."""
        vs = engine.estimate(QUERY_A, 0.7, 3600.0).speed
        fixed = engine.estimate(QUERY_A, 0.7, 3600.0,
                                one_to_one_scheme(engine.config)).speed
        assert vs > 10 * fixed

    def test_n_to_n_speed_matches_vstore(self, engine):
        """Figure 11a omits N->N because its speed equals VStore's; it only
        differs in storage/ingest cost."""
        scheme = n_to_n_scheme(engine.config, CodingProfiler(activity=0.35))
        for acc in (0.9, 0.7):
            vs = engine.estimate(QUERY_A, acc, 3600.0).speed
            nn = engine.estimate(QUERY_A, acc, 3600.0, scheme).speed
            assert nn == pytest.approx(vs, rel=0.35)

    def test_effective_speed_is_min(self, engine):
        report = engine.estimate(QUERY_A, 0.8, 3600.0)
        for s in report.stages:
            assert s.effective_speed == min(s.consumption_speed,
                                            s.retrieval_speed)

    def test_query_b_on_dashcam(self, engine_b):
        report = engine_b.estimate(QUERY_B, 0.9, 3600.0)
        assert report.speed > 0
        assert report.dataset == "dashcam"
