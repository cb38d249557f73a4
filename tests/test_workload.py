"""Open-loop workload generation: determinism, rates, merging.

Arrival generators are pure functions of (parameters, seed): the
Hypothesis properties here pin seed determinism, statistical rate
conservation and the trace round-trip — the contract every open-loop
benchmark and its BENCH.json cells rest on.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import workload as per_arrival

from repro.errors import QueryError
from repro.query.workload import (
    Arrival,
    ArrivalSpec,
    QueryMixEntry,
    TenantSpec,
    build_workload,
    bursty_arrivals,
    diurnal_arrivals,
    generate_arrivals,
    poisson_arrivals,
    trace_arrivals,
    workload_specs,
)

MIX = (QueryMixEntry(query="B", dataset="jackson"),)


# ---------------------------------------------------------------------------
# Generator properties
# ---------------------------------------------------------------------------


ARRIVAL_SPECS = st.sampled_from([
    ArrivalSpec(kind="poisson", rate=2.0),
    ArrivalSpec(kind="bursty", rate=1.0, rate_burst=5.0,
                dwell_calm=5.0, dwell_burst=2.0),
    ArrivalSpec(kind="diurnal", rate=2.0, period=50.0, amplitude=0.5),
])


@settings(max_examples=30, deadline=None)
@given(spec=ARRIVAL_SPECS, seed=st.integers(0, 2**32),
       horizon=st.floats(1.0, 200.0))
def test_generators_are_seed_deterministic(spec, seed, horizon):
    a = generate_arrivals(spec, horizon, seed)
    b = generate_arrivals(spec, horizon, seed)
    assert a == b  # bit-equal floats, not approx
    assert all(0.0 <= t < horizon for t in a)
    assert a == sorted(a)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_different_seeds_differ(seed):
    a = poisson_arrivals(2.0, 100.0, seed)
    b = poisson_arrivals(2.0, 100.0, (seed, "other"))
    assert a != b


@settings(max_examples=15, deadline=None)
@given(rate=st.floats(0.5, 8.0), seed=st.integers(0, 2**32))
def test_poisson_rate_conservation(rate, seed):
    """Over a long horizon the count concentrates around rate*horizon;
    a +-50% band at horizon=400 is ~10 sigma even at the lowest rate."""
    horizon = 400.0
    n = len(poisson_arrivals(rate, horizon, seed))
    assert 0.5 * rate * horizon < n < 1.5 * rate * horizon


@settings(max_examples=15, deadline=None)
@given(rate=st.floats(0.5, 4.0), seed=st.integers(0, 2**32))
def test_diurnal_rate_conservation(rate, seed):
    """The sinusoid averages out over whole periods: mean rate holds."""
    horizon = 400.0  # 8 whole periods of 50
    n = len(diurnal_arrivals(rate, horizon, seed, period=50.0,
                             amplitude=0.8))
    assert 0.5 * rate * horizon < n < 1.5 * rate * horizon


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_bursty_rate_between_phase_rates(seed):
    """An MMPP's long-run rate sits between the calm and burst rates."""
    times = bursty_arrivals(1.0, 8.0, 400.0, seed,
                            dwell_calm=10.0, dwell_burst=5.0)
    mean_rate = len(times) / 400.0
    assert 1.0 * 0.5 < mean_rate < 8.0 * 1.1


@settings(max_examples=30, deadline=None)
@given(times=st.lists(st.floats(0.0, 1000.0), max_size=50))
def test_trace_round_trip(times):
    """A sorted trace replays unchanged; any trace sorts stably."""
    normalized = trace_arrivals(times)
    assert normalized == sorted(times)
    assert trace_arrivals(normalized) == normalized


def test_trace_rejects_negative():
    with pytest.raises(QueryError):
        trace_arrivals([1.0, -0.5])


def test_generator_validation():
    with pytest.raises(QueryError):
        poisson_arrivals(0.0, 10.0, 1)
    with pytest.raises(QueryError):
        poisson_arrivals(1.0, 0.0, 1)
    with pytest.raises(QueryError):
        bursty_arrivals(1.0, -2.0, 10.0, 1)
    with pytest.raises(QueryError):
        diurnal_arrivals(1.0, 10.0, 1, amplitude=1.5)
    with pytest.raises(QueryError):
        ArrivalSpec(kind="laplace")


# ---------------------------------------------------------------------------
# Tenants and merging
# ---------------------------------------------------------------------------


def _tenant(name, rate=1.0, slo=None, weight=1.0):
    return TenantSpec(name=name, arrivals=ArrivalSpec(rate=rate), mix=MIX,
                      slo_seconds=slo, weight=weight)


def test_build_workload_is_deterministic_and_sorted():
    tenants = [_tenant("a", 2.0, slo=10.0), _tenant("b", 1.0)]
    w1 = build_workload(tenants, 50.0, seed=3)
    w2 = build_workload(tenants, 50.0, seed=3)
    assert w1 == w2
    assert [a.t for a in w1] == sorted(a.t for a in w1)
    assert {a.tenant for a in w1} == {"a", "b"}
    # SLO tenants carry deadline = arrival + slo; others carry None.
    for a in w1:
        if a.tenant == "a":
            assert a.deadline == a.t + 10.0
        else:
            assert a.deadline is None


def test_adding_a_tenant_does_not_perturb_existing_streams():
    """Per-tenant seeding: tenant a's arrivals are identical whether or
    not tenant b exists — fleet composition is compositional."""
    alone = [a for a in build_workload([_tenant("a")], 80.0, 5)]
    joined = [a for a in build_workload([_tenant("a"), _tenant("b")], 80.0, 5)
              if a.tenant == "a"]
    assert [(a.t, a.entry) for a in alone] == [(a.t, a.entry) for a in joined]


def test_mix_weights_shift_the_choice_distribution():
    heavy = QueryMixEntry(query="B", dataset="jackson", t1=8.0, weight=9.0)
    light = QueryMixEntry(query="B", dataset="jackson", t1=32.0, weight=1.0)
    spec = TenantSpec(name="t", arrivals=ArrivalSpec(rate=4.0),
                      mix=(heavy, light))
    picks = [a.entry for a in build_workload([spec], 100.0, seed=11)]
    n_heavy = sum(1 for e in picks if e is heavy)
    assert n_heavy > 0.7 * len(picks)  # 90% expected; wide margin


#: (kind, arrival process, horizon, arrivals per tenant or None for "many"):
#: every ArrivalSpec kind at a horizon that yields no arrival and at one
#: that yields many; the trace kind replays exactly 0, 1 and 200
#: timestamps, at equal instants for both tenants.
PARITY_CASES = [
    ("poisson", ArrivalSpec(kind="poisson", rate=3.0), 1e-6, 0),
    ("poisson", ArrivalSpec(kind="poisson", rate=3.0), 60.0, None),
    ("bursty", ArrivalSpec(kind="bursty", rate=1.0, rate_burst=6.0,
                           dwell_calm=4.0, dwell_burst=1.0), 1e-6, 0),
    ("bursty", ArrivalSpec(kind="bursty", rate=1.0, rate_burst=6.0,
                           dwell_calm=4.0, dwell_burst=1.0), 60.0, None),
    ("diurnal", ArrivalSpec(kind="diurnal", rate=3.0, period=20.0,
                            amplitude=0.6), 1e-6, 0),
    ("diurnal", ArrivalSpec(kind="diurnal", rate=3.0, period=20.0,
                            amplitude=0.6), 60.0, None),
    ("trace", ArrivalSpec(kind="trace"), 60.0, 0),
    ("trace", ArrivalSpec(kind="trace", trace=(7.5,)), 60.0, 1),
    ("trace", ArrivalSpec(kind="trace",
                          trace=tuple(0.25 * i for i in range(200))),
     60.0, 200),
]


def _uneven_mix(rng):
    """1-8 distinct entries with weights from 0.1 to 9."""
    return tuple(
        QueryMixEntry(query="AB"[i % 2], dataset="jackson", t0=8.0 * i,
                      t1=8.0 * i + 16.0,
                      weight=rng.choice((0.1, 0.5, 1.0, 2.5, 9.0)))
        for i in range(rng.randint(1, 8))
    )


@pytest.mark.parametrize("kind,arrivals,horizon,expected", PARITY_CASES,
                         ids=[f"{c[0]}-{'many' if c[3] is None else c[3]}"
                              for c in PARITY_CASES])
def test_build_workload_matches_per_arrival_draws(kind, arrivals, horizon,
                                                  expected):
    """One mix draw per tenant picks what one draw per arrival picked:
    the same times, tenants, entry objects, deadlines and order."""
    for seed in range(50):
        rng = random.Random(seed)
        tenants = [
            TenantSpec(name="gold", arrivals=arrivals,
                       mix=_uneven_mix(rng), slo_seconds=5.0),
            TenantSpec(name="bronze", arrivals=arrivals,
                       mix=_uneven_mix(rng)),
        ]
        got = build_workload(tenants, horizon, seed)
        want = per_arrival.build_workload(tenants, horizon, seed)
        if expected is not None:
            assert len(want) == 2 * expected
        else:
            assert len(want) > 10
        assert [(a.t, a.tenant, a.deadline) for a in got] == \
            [(a.t, a.tenant, a.deadline) for a in want]
        assert all(g.entry is w.entry for g, w in zip(got, want))


def test_build_workload_validation():
    with pytest.raises(QueryError):
        build_workload([], 10.0, 0)
    with pytest.raises(QueryError):
        build_workload([_tenant("x"), _tenant("x")], 10.0, 0)
    with pytest.raises(QueryError):
        TenantSpec(name="", arrivals=ArrivalSpec(), mix=MIX)
    with pytest.raises(QueryError):
        TenantSpec(name="t", mix=())
    with pytest.raises(QueryError):
        TenantSpec(name="t", mix=MIX, slo_seconds=-1.0)
    with pytest.raises(QueryError):
        TenantSpec(name="t", mix=MIX, weight=0.0)
    with pytest.raises(QueryError):
        TenantSpec(name="t", mix=MIX, quota=0)
    with pytest.raises(QueryError):
        QueryMixEntry(query="B", dataset="jackson", weight=-1.0)


def test_workload_specs_lowering():
    arrivals = [
        Arrival(t=1.5, tenant="gold", deadline=4.5,
                entry=QueryMixEntry(query="B", dataset="jackson",
                                    accuracy=0.8, t0=0.0, t1=8.0)),
        Arrival(t=2.0, tenant="bronze", deadline=None,
                entry=QueryMixEntry(query="A", dataset="dashcam")),
    ]
    specs = workload_specs(arrivals)
    assert specs[0] == {"query": "B", "dataset": "jackson", "accuracy": 0.8,
                       "t0": 0.0, "t1": 8.0, "arrival": 1.5,
                       "tenant": "gold", "deadline": 4.5}
    assert "deadline" not in specs[1]
    assert specs[1]["tenant"] == "bronze"
