"""Plan reuse must never change what a run produces.

Two memos skip repeated planning work: ``VStore._admit_specs`` admits
repeats of a spec with the first one's plan (cleared at every campaign
event, so each distinct spec is planned once per shard-health epoch),
and ``QueryEngine`` runs each stage operator once per (operator,
segment, fidelity).  These tests hold both against planning from
scratch: a served failure campaign against an oracle that plans every
arrival afresh, and a shared engine against one fresh engine per plan.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.plane import CacheConfig, CachePlane
from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.errors import StorageError
from repro.operators.detector import DetectorOperator
from repro.operators.signal_op import SignalOperator
from repro.query.cascade import QUERY_A, QUERY_B, cascade_for
from repro.query.engine import QueryEngine
from repro.query.scheduler import AdmissionConfig, OperatorContextPool
from repro.query.workload import (
    ArrivalSpec,
    QueryMixEntry,
    TenantSpec,
    build_workload,
    workload_specs,
)
from repro.storage.disk import DiskBandwidthPool
from repro.storage.failures import (
    FailureCampaign,
    apply_event,
    rebuild_jobs,
)

SHARDS = 4
REPLICATION = 2
SEGMENTS = 4  # 32 s of footage per stream

#: A small menu of distinct specs, so repeats straddle campaign events.
MENU = (
    QueryMixEntry("A", "jackson", 0.9, 0.0, 16.0),
    QueryMixEntry("A", "jackson", 0.8, 8.0, 32.0),
    QueryMixEntry("B", "jackson", 0.9, 0.0, 16.0),
    QueryMixEntry("B", "jackson", 0.9, 16.0, 32.0),
)


def _build(tmp_path_factory, library, configuration) -> VStore:
    store = VStore(workdir=str(tmp_path_factory.mktemp("memo")),
                   library=library, shards=SHARDS, replication=REPLICATION)
    store.adopt(configuration)
    store.ingest("jackson", n_segments=SEGMENTS)
    return store


def _executor_kwargs():
    return dict(disk_pool=DiskBandwidthPool(1), decoder_pool=DecoderPool(1),
                operator_pool=OperatorContextPool(2), trace=True)


def _served(store, tenants, horizon, seed, campaign, admission):
    report = store.serve(tenants, horizon, seed=seed, failures=campaign,
                         admission=admission, **_executor_kwargs())
    return report.outcomes, store.last_run.events


def _oracle(store, tenants, horizon, seed, campaign, admission):
    """serve()'s campaign walk, planning every arrival from scratch."""
    executor = store.executor(admission=admission, **_executor_kwargs())
    events = list(campaign.events)
    fired = 0

    def fire_until(t: float) -> None:
        nonlocal fired
        while fired < len(events) and events[fired].t <= t:
            event = events[fired]
            work = apply_event(store.disk_array, event)
            for job in rebuild_jobs(store.segments, work):
                executor.admit_job(job, arrival=event.t)
            fired += 1

    for spec in workload_specs(build_workload(tenants, horizon, seed)):
        fire_until(spec["arrival"])
        spec = dict(spec)
        executor.admit(cascade_for(spec.pop("query")), spec.pop("dataset"),
                       spec.pop("accuracy"), spec.pop("t0"), spec.pop("t1"),
                       **spec)
    fire_until(float("inf"))
    executor.schedule_failures(events)
    return executor.run(), executor.trace_events


def _observe(run, store, *args):
    """Outcome rows and trace of one run, or the error it raised."""
    try:
        outcomes, trace = run(store, *args)
    except StorageError as exc:  # a campaign that lost every replica
        return ("raised", type(exc).__name__, str(exc))
    finally:
        store.close()
    rows = [(o.session.qid, o.session.tenant, o.session.arrival_at,
             o.session.finished_at, o.latency) for o in outcomes]
    return rows, trace


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    campaign_seed=st.integers(0, 2**16),
    n_failures=st.integers(1, 2),
    horizon=st.sampled_from((20.0, 40.0)),
    rates=st.tuples(st.sampled_from((0.5, 1.0, 2.0)),
                    st.sampled_from((0.5, 1.0))),
    mixes=st.tuples(
        st.lists(st.sampled_from(MENU), min_size=1, max_size=3, unique=True),
        st.lists(st.sampled_from(MENU), min_size=1, max_size=3, unique=True),
    ),
    admission=st.sampled_from((
        None,
        AdmissionConfig(max_in_flight=2, queue_policy="edf"),
        AdmissionConfig(max_in_flight=4, queue_policy="arrival"),
    )),
)
def test_served_campaign_matches_unmemoized_oracle(
        tmp_path_factory, query_library, configuration, seed, campaign_seed,
        n_failures, horizon, rates, mixes, admission):
    tenants = [
        TenantSpec(name="gold", arrivals=ArrivalSpec(rate=rates[0]),
                   mix=tuple(mixes[0]), slo_seconds=5.0),
        TenantSpec(name="bronze",
                   arrivals=ArrivalSpec(kind="bursty", rate=rates[1]),
                   mix=tuple(mixes[1]), slo_seconds=15.0),
    ]
    campaign = FailureCampaign.random(SHARDS, horizon, seed=campaign_seed,
                                      n_failures=n_failures)
    args = (tenants, horizon, seed, campaign, admission)
    served = _observe(_served,
                      _build(tmp_path_factory, query_library, configuration),
                      *args)
    oracle = _observe(_oracle,
                      _build(tmp_path_factory, query_library, configuration),
                      *args)
    assert served == oracle


STREAMS = ("cam0", "cam1")
SPECS = ((QUERY_A, 0.9, 0.0, 32.0), (QUERY_A, 0.8, 8.0, 24.0),
         (QUERY_B, 0.9, 0.0, 32.0))


@pytest.mark.parametrize("cache_config", [None, CacheConfig()],
                         ids=["uncached", "cached"])
def test_engine_runs_each_stage_once_across_aliases(
        tmp_path, monkeypatch, query_library, configuration, cache_config):
    store = VStore(workdir=str(tmp_path), library=query_library, shards=2)
    store.adopt(configuration)
    for stream in STREAMS:
        store.ingest("jackson", n_segments=SEGMENTS, stream=stream)

    def engine():
        cache = CachePlane(cache_config) if cache_config else None
        return QueryEngine(configuration, query_library, "jackson",
                           cache=cache)

    def plan_all(engine_for):
        return [engine_for().plan(query, accuracy, store.segments, t0, t1,
                                  stream=stream)
                for stream in STREAMS
                for query, accuracy, t0, t1 in SPECS]

    fresh = plan_all(engine)

    outputs = Counter()
    runs = Counter()
    stage_output = QueryEngine._stage_output

    def counted_output(self, op, name, clip, fidelity, index, rkey):
        outputs[(name, index, fidelity.label)] += 1
        return stage_output(self, op, name, clip, fidelity, index, rkey)

    monkeypatch.setattr(QueryEngine, "_stage_output", counted_output)
    for cls in (DetectorOperator, SignalOperator):
        def counted_run(self, *args, _run=cls.run, **kwargs):
            runs[self.name] += 1
            return _run(self, *args, **kwargs)

        monkeypatch.setattr(cls, "run", counted_run)

    shared = engine()
    assert plan_all(lambda: shared) == fresh
    assert outputs and set(outputs.values()) == {1}
    per_operator = Counter(name for name, _, _ in outputs)
    assert runs == per_operator
    store.close()
