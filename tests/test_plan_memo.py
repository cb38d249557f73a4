"""Plan reuse must never change what a run produces.

Two memos skip repeated planning work: ``VStore._admit_specs`` admits
repeats of a spec with the first one's plan (cleared at every campaign
event, so each distinct spec is planned once per shard-health epoch),
and the store's stage-outcome memo, shared by every ``QueryEngine`` the
store builds, runs each stage operator once per (dataset, operator,
segment, fidelity) over the store's life.  These tests hold both against
planning from scratch: a served failure campaign against an oracle that
plans every arrival afresh, a shared engine against one fresh engine per
plan, and a store's later runs and plans — across ``adopt``,
``evolve_online``, ``set_cache`` and ``reopen`` — against a fresh
store's.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.plane import CacheConfig, CachePlane
from repro.codec.decoder import DecoderPool
from repro.core.config import derive_configuration
from repro.core.evolve import decide_consumers, legacy_configuration
from repro.core.store import VStore
from repro.errors import StorageError
from repro.operators.detector import DetectorOperator
from repro.operators.library import Consumer
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
from repro.units import SEGMENT_SECONDS
from repro.video.content import ContentModel
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


def _build(tmp_path_factory, library, configuration,
           cache_config=None) -> VStore:
    store = VStore(workdir=str(tmp_path_factory.mktemp("memo")),
                   library=library, shards=SHARDS, replication=REPLICATION,
                   cache_config=cache_config)
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

    def counted_output(self, op, name, clip, fidelity, index):
        outputs[(name, index, fidelity.label)] += 1
        return stage_output(self, op, name, clip, fidelity, index)

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


class _ClipPerMiss(QueryEngine):
    """The engine before per-plan clip sharing: every stage-memo miss
    clips its segment afresh."""

    def _stage_outcome(self, op, name, segment, fidelity, clips):
        return super()._stage_outcome(op, name, segment, fidelity, {})


def test_plan_clips_each_segment_once(tmp_path, monkeypatch, query_library,
                                      configuration):
    store = VStore(workdir=str(tmp_path), library=query_library, shards=2)
    store.adopt(configuration)
    store.ingest("jackson", n_segments=SEGMENTS)
    t1 = SEGMENTS * SEGMENT_SECONDS
    reference = _ClipPerMiss(configuration, query_library, "jackson")
    expected = reference.plan(QUERY_A, 0.9, store.segments, 0.0, t1)
    assert len(expected.stages) == 3 and expected.stages[1].touched > 0

    clipped = Counter()
    clip = ContentModel.clip

    def counted_clip(self, t0, seconds):
        clipped[t0] += 1
        return clip(self, t0, seconds)

    monkeypatch.setattr(ContentModel, "clip", counted_clip)
    engine = QueryEngine(configuration, query_library, "jackson")
    plan = engine.plan(QUERY_A, 0.9, store.segments, 0.0, t1)
    # One clip per segment across all three stages, and none for the
    # selectivity sample, which only estimates read.
    assert sum(clipped.values()) == SEGMENTS
    assert set(clipped.values()) == {1}
    assert plan == expected
    assert engine._outcomes == reference._outcomes
    store.close()


# -- the store's stage-outcome memo -------------------------------------------

CACHE_CONFIGS = pytest.mark.parametrize(
    "cache_config", [None, CacheConfig()], ids=["uncached", "cached"])


def _count_work(monkeypatch) -> Counter:
    """Operator runs (``"run"``) and segment clips (``"clip"``) from here on."""
    counts = Counter()
    for cls in (DetectorOperator, SignalOperator):
        def counted_run(self, *args, _run=cls.run, **kwargs):
            counts["run"] += 1
            return _run(self, *args, **kwargs)

        monkeypatch.setattr(cls, "run", counted_run)
    clip = ContentModel.clip

    def counted_clip(self, *args, **kwargs):
        counts["clip"] += 1
        return clip(self, *args, **kwargs)

    monkeypatch.setattr(ContentModel, "clip", counted_clip)
    return counts


def _memo_size(store) -> int:
    return sum(len(memo) for memo in store._stage_outcomes.values())


#: Two tenants over the whole menu: query A at two accuracies, so some
#: operators are planned at more than one fidelity per segment.
SERVE_TENANTS = [
    TenantSpec(name="gold", arrivals=ArrivalSpec(rate=1.0),
               mix=MENU[:2], slo_seconds=5.0),
    TenantSpec(name="bronze", arrivals=ArrivalSpec(kind="bursty", rate=0.5),
               mix=MENU[2:], slo_seconds=15.0),
]
SERVE_HORIZON = 20.0


@CACHE_CONFIGS
def test_a_second_serve_runs_no_operator(tmp_path_factory, monkeypatch,
                                         query_library, configuration,
                                         cache_config):
    store = _build(tmp_path_factory, query_library, configuration,
                   cache_config)
    args = (SERVE_TENANTS, SERVE_HORIZON, 3, None, None)
    counts = _count_work(monkeypatch)
    _served(store, *args)
    assert counts["run"] > 0 and counts["clip"] > 0
    # A fresh simulated cache plane (the memo is kept), so the second run
    # starts as cold in simulated time as a fresh store's first.
    store.set_cache(cache_config)
    counts.clear()
    warm = _observe(_served, store, *args)
    assert not counts  # no operator run, no segment clipped
    fresh = _observe(_served, _build(tmp_path_factory, query_library,
                                     configuration, cache_config), *args)
    assert warm == fresh


def _plans(store, specs, *, fresh_engines=False):
    """``specs`` planned by the store's engine, which reads and fills the
    store's memo — or each by a standalone engine with a memo of its own,
    so that no plan reads an outcome another plan computed."""
    shared = store.engine("jackson")

    def engine():
        if not fresh_engines:
            return shared
        return QueryEngine(store.configuration, store.library, "jackson",
                           cache=store.cache)

    return [engine().plan(cascade_for(query), accuracy, store.segments,
                          t0, t1)
            for query, accuracy, t0, t1 in specs]


PHASE1_OPERATORS = ("Motion", "License", "OCR")
PHASE2_OPERATORS = ("Diff", "S-NN", "NN")
ACCURACIES = (0.8, 0.9)
PHASE1_SPECS = tuple(("B", accuracy, t0, t0 + 16.0)
                     for accuracy in ACCURACIES for t0 in (0.0, 16.0))
ALL_SPECS = PHASE1_SPECS + tuple(("A", accuracy, 0.0, 32.0)
                                 for accuracy in ACCURACIES)


@CACHE_CONFIGS
def test_warm_store_plans_equal_a_fresh_stores(tmp_path_factory,
                                               query_library, cache_config):
    """Plans from a store whose memo outlived ``set_cache``, ``adopt``,
    ``evolve_online`` and ``reopen`` equal those of a fresh store holding
    the same footage under the same configuration.  Each operator runs at
    two accuracies, most at two fidelities, so a memo key without the
    fidelity serves the wrong outcome."""
    phase1 = derive_configuration(query_library, consumers=[
        Consumer(name, accuracy)
        for name in PHASE1_OPERATORS for accuracy in ACCURACIES])
    warm = VStore(workdir=str(tmp_path_factory.mktemp("warm")),
                  library=query_library, shards=SHARDS,
                  replication=REPLICATION, cache_config=cache_config)
    warm.adopt(phase1)
    warm.ingest("jackson", n_segments=SEGMENTS)
    mix = tuple(QueryMixEntry(query, "jackson", accuracy, t0, t1)
                for query, accuracy, t0, t1 in PHASE1_SPECS)
    warm.serve([TenantSpec(name="t", arrivals=ArrivalSpec(rate=1.0),
                           mix=mix)],
               SERVE_HORIZON, **_executor_kwargs())
    filled = _memo_size(warm)
    assert filled > 0

    def assert_fresh_plans_equal(specs):
        fresh = VStore(workdir=str(tmp_path_factory.mktemp("fresh")),
                       library=query_library, shards=SHARDS,
                       replication=REPLICATION,
                       cache_config=warm.cache.config if warm.cache else None)
        fresh.adopt(warm.configuration)
        fresh.ingest("jackson", n_segments=SEGMENTS)
        assert _plans(warm, specs) == _plans(fresh, specs,
                                             fresh_engines=True)
        fresh.close()

    warm.set_cache(CacheConfig())
    assert _memo_size(warm) == filled
    assert_fresh_plans_equal(PHASE1_SPECS)

    decisions = decide_consumers(
        query_library,
        [Consumer(name, accuracy)
         for name in PHASE2_OPERATORS for accuracy in ACCURACIES],
        clock=warm.clock,
        known={d.consumer: d for d in warm.configuration.decisions})
    warm.adopt(legacy_configuration(warm.configuration, decisions))
    assert_fresh_plans_equal(ALL_SPECS)

    report = warm.evolve_online(consumers=list(
        warm.configuration.consumers), **_executor_kwargs())
    assert report.replan.added  # the evolution changed the stored formats
    assert_fresh_plans_equal(ALL_SPECS)

    warm.reopen()
    assert_fresh_plans_equal(ALL_SPECS)
    warm.close()


def test_plans_from_written_books_equal_plans_after_reopen(tmp_path,
                                                         query_library):
    """The segment store's books, kept in memory by every writer since
    the store opened, plan what books rebuilt from the log at ``reopen``
    plan, and hold the same records: after ingest, an ``evolve_online``
    (epoch-tagged re-encodes, the epoch commit, retirement deletes), a
    failure campaign whose rebuilt replicas commit, and a
    ``rebalance()``."""
    phase1 = derive_configuration(query_library, consumers=[
        Consumer(name, accuracy)
        for name in PHASE1_OPERATORS for accuracy in ACCURACIES])
    store = VStore(workdir=str(tmp_path), library=query_library,
                   shards=SHARDS, replication=REPLICATION)
    store.adopt(phase1)
    store.ingest("jackson", n_segments=SEGMENTS)
    decisions = decide_consumers(
        query_library,
        [Consumer(name, accuracy)
         for name in PHASE2_OPERATORS for accuracy in ACCURACIES],
        clock=store.clock,
        known={d.consumer: d for d in store.configuration.decisions})
    store.adopt(legacy_configuration(store.configuration, decisions))
    report = store.evolve_online(consumers=list(
        store.configuration.consumers), **_executor_kwargs())
    assert report.reencoded_segments > 0 and report.retired_segments > 0
    served = store.serve(SERVE_TENANTS, SERVE_HORIZON, seed=3,
                         failures="fail@2:0,degrade@2:1:4,recover@12:0,"
                                  "recover@12:1",
                         **_executor_kwargs())
    assert served.availability.replicas_rebuilt > 0
    assert store.disk_array.healthy
    assert store.rebalance().moves > 0
    before = _plans(store, ALL_SPECS), _books(store.segments)
    store.reopen()
    assert (_plans(store, ALL_SPECS), _books(store.segments)) == before
    store.close()


def _books(segments):
    """A segment store's records, and the formats and bytes it answers
    per stream from them."""
    records = {(stream, fmt_text, index): record
               for (stream, fmt_text), bucket in segments._buckets.items()
               for index, record in bucket.records.items()}
    return records, [(stream, segments.formats(stream),
                      segments.footprint(stream))
                     for stream in segments.streams()]


@CACHE_CONFIGS
def test_datasets_on_one_stream_never_share_outcomes(
        tmp_path, query_library, configuration, cache_config):
    store = VStore(workdir=str(tmp_path), library=query_library, shards=2,
                   cache_config=cache_config)
    store.adopt(configuration)
    store.ingest("jackson", n_segments=SEGMENTS, stream="cam0")
    specs = [{"query": query, "dataset": dataset, "accuracy": accuracy,
              "t0": t0, "t1": t1, "stream": "cam0"}
             for dataset in ("jackson", "dashcam")
             for query, accuracy, t0, t1 in SPECS]
    store.execute_many(specs)
    memos = store._stage_outcomes
    assert set(memos) == {"jackson", "dashcam"}
    for dataset, memo in memos.items():
        alone = QueryEngine(configuration, query_library, dataset)
        for query, accuracy, t0, t1 in SPECS:
            alone.plan(query, accuracy, store.segments, t0, t1,
                       stream="cam0")
        assert memo == alone._outcomes
    shared = memos["jackson"].keys() & memos["dashcam"].keys()
    assert shared and any(memos["jackson"][key] != memos["dashcam"][key]
                          for key in shared)
    store.close()


@CACHE_CONFIGS
def test_memo_size_is_bounded_and_released_at_close(
        tmp_path_factory, monkeypatch, query_library, configuration,
        cache_config):
    store = _build(tmp_path_factory, query_library, configuration,
                   cache_config)
    planned = set()
    stage_outcome = QueryEngine._stage_outcome

    def recorded(self, op, name, segment, fidelity, clips):
        planned.add((self.dataset, name, segment.index, fidelity.label))
        return stage_outcome(self, op, name, segment, fidelity, clips)

    monkeypatch.setattr(QueryEngine, "_stage_outcome", recorded)
    sizes = []
    for _ in range(3):
        store.serve(SERVE_TENANTS, SERVE_HORIZON, seed=3,
                    **_executor_kwargs())
        sizes.append(_memo_size(store))
    assert sizes[0] == sizes[1] == sizes[2]
    assert 0 < sizes[0] <= len(planned)
    store.close()
    assert _memo_size(store) == 0
