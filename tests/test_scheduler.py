"""The Section-5 operator-context scheduler."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import QueryError
from repro.query.scheduler import dispatch


def test_single_context_is_serial():
    result = dispatch([1.0, 2.0, 3.0], 1)
    assert result.makespan == 6.0
    assert result.speedup == pytest.approx(1.0)
    assert result.assignment == [0, 0, 0]


def test_balanced_dispatch():
    result = dispatch([1.0] * 8, 4)
    assert result.makespan == pytest.approx(2.0)
    assert result.speedup == pytest.approx(4.0)
    assert result.utilization == pytest.approx(1.0)


def test_least_loaded_assignment():
    # 5, then 1,1,1 on the other context, then 2 back on it.
    result = dispatch([5.0, 1.0, 1.0, 1.0, 2.0], 2)
    assert result.makespan == pytest.approx(5.0)
    assert result.loads == [5.0, 5.0]


def test_empty_stream():
    result = dispatch([], 3)
    assert result.makespan == 0.0
    assert result.total_work == 0.0


def test_no_work_claims_no_speedup():
    """Regression: zero-cost dispatches used to report an n_contexts-x
    speedup; with no work there is nothing to parallelize."""
    assert dispatch([], 3).speedup == 1.0
    assert dispatch([0.0, 0.0, 0.0], 4).speedup == 1.0
    assert dispatch([0.0], 1).speedup == 1.0


def test_invalid_inputs():
    with pytest.raises(QueryError):
        dispatch([1.0], 0)
    with pytest.raises(QueryError):
        dispatch([-1.0], 2)


@given(
    costs=st.lists(st.floats(0.0, 100.0), max_size=50),
    n=st.integers(1, 8),
)
def test_makespan_bounds(costs, n):
    """Greedy dispatch: makespan between total/n and total, and never more
    than the classic 2x bound off the lower bound."""
    result = dispatch(costs, n)
    total = sum(costs)
    longest = max(costs, default=0.0)
    lower = max(total / n, longest)
    assert result.makespan >= lower - 1e-9
    assert result.makespan <= max(total, lower * 2 + 1e-9)
    assert result.total_work == pytest.approx(total)


@given(costs=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=40))
def test_more_contexts_never_slower(costs):
    makespans = [dispatch(costs, n).makespan for n in (1, 2, 4, 8)]
    for bigger, smaller in zip(makespans, makespans[1:]):
        assert smaller <= bigger + 1e-9


@given(
    costs=st.lists(st.floats(0.0, 100.0), max_size=60),
    n=st.integers(1, 8),
)
def test_dispatch_fairness_invariants(costs, n):
    """The greedy dispatcher's fairness contract over random costs: every
    assignment goes to a least-loaded context, the utilization never
    exceeds 1.0, and no work is lost or invented."""
    result = dispatch(costs, n)
    loads = [0.0] * n
    for cost, idx in zip(costs, result.assignment):
        assert loads[idx] == min(loads), (
            f"segment assigned to context {idx} with load {loads[idx]}, "
            f"but {min(loads)} was free"
        )
        loads[idx] += cost
    assert result.utilization <= 1.0 + 1e-9
    assert sum(result.loads) == pytest.approx(sum(costs), abs=1e-9)


def test_engine_execution_scales_with_contexts(tmp_path):
    """Parallel contexts accelerate consumption-bound stages end to end."""
    from repro.core.store import VStore
    from repro.operators.library import default_library

    lib = default_library(names=("Motion", "License", "OCR"))
    with VStore(workdir=str(tmp_path / "w"), library=lib) as store:
        store.configure()
        store.ingest("dashcam", n_segments=8)

        def run(contexts):
            spec = dict(query="B", dataset="dashcam", accuracy=0.9,
                        t0=0.0, t1=64.0, contexts=contexts)
            return store.execute_many([spec])[0].result

        serial = run(1)
        parallel = run(8)
        assert parallel.compute_seconds < serial.compute_seconds
        assert parallel.speed > serial.speed
