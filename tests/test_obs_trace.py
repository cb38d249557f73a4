"""The locked trace-event schema and its typed views.

The schema is a *contract* — every executor loop emits events through
one shared constructor (:func:`repro.obs.trace.task_event`), so the
key-set can never drift between the production loop and the two parity
oracles in ``tests/oracles`` (the rescan loop and the retired closed-loop
fast path).  These tests pin the contract from both ends:

* key-set lock: every recorded event carries exactly ``TRACE_SCHEMA``'s
  keys, in schema order, on every loop and policy;
* stream parity: the three loops emit byte-identical streams on the same
  fleet (the fast-path oracle compared on a FIFO/EDF single-context
  fleet, since that is the only fleet it accepts);
* the typed views (intervals, spans) reconstruct submission instants via
  the chain rule and must stay consistent with the raw stream.
"""

from __future__ import annotations

import json

import pytest

from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.obs.trace import (
    TRACE_SCHEMA,
    intervals_from_events,
    query_spans,
    task_event,
    validate_events,
)
from repro.operators.library import default_library
from repro.query.cascade import QUERY_A, QUERY_B
from repro.query.scheduler import OperatorContextPool
from repro.storage.disk import DiskBandwidthPool

from oracles import fastpath_loop, reference_loop

POLICIES = ("fifo", "fair", "edf")


@pytest.fixture(scope="module")
def obs_store(tmp_path_factory):
    lib = default_library(names=("Diff", "S-NN", "NN", "Motion", "License",
                                 "OCR"))
    with VStore(workdir=str(tmp_path_factory.mktemp("obs")),
                library=lib) as store:
        store.configure()
        store.ingest("jackson", n_segments=4)
        store.ingest("dashcam", n_segments=4)
        yield store


def _contended_executor(store, policy_name: str):
    ex = store.executor(
        policy=policy_name,
        disk_pool=DiskBandwidthPool(1),
        decoder_pool=DecoderPool(1),
        operator_pool=OperatorContextPool(2),
    )
    ex.admit(QUERY_A, "jackson", 0.9, 0.0, 16.0)
    ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 16.0, deadline=3.0)
    ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 8.0, contexts=2)
    return ex


def _fastpath_fleet(store, policy_name: str):
    """A fleet the fast-path oracle accepts: single-context, no cache."""
    engine = store.engine("jackson")
    plan = engine.plan(QUERY_A, 0.9, store.segments, 0.0, 16.0)
    ex = store.executor(
        policy=policy_name,
        disk_pool=DiskBandwidthPool(1),
        decoder_pool=DecoderPool(1),
        operator_pool=OperatorContextPool(2),
    )
    for i in range(6):
        deadline = 10.0 - i if policy_name == "edf" else None
        ex.admit(QUERY_A, "jackson", 0.9, 0.0, 16.0, plan=plan,
                 deadline=deadline)
    return ex


# ---------------------------------------------------------------------------
# The schema contract
# ---------------------------------------------------------------------------


def test_task_event_keys_match_schema_in_order():
    e = task_event("start", 1.0, "q0", "retrieve", "NN", "disk", 0.5)
    assert tuple(e) == TRACE_SCHEMA


def test_validate_events_accepts_constructor_output():
    events = [task_event("start", 0.0, "q0", "retrieve", "NN", "disk", 1.0),
              task_event("finish", 1.0, "q0", "retrieve", "NN", "disk", 1.0)]
    validate_events(events)  # must not raise


@pytest.mark.parametrize("bad", [
    {"event": "start", "t": 0.0},  # missing keys
    dict(task_event("start", 0.0, "q", "k", "o", "r", 1.0), extra=1),
    dict(task_event("begin", 0.0, "q", "k", "o", "r", 1.0)),  # bad verb
])
def test_validate_events_rejects_schema_breaks(bad):
    with pytest.raises(ValueError):
        validate_events([bad])


ORACLES = {"reference": reference_loop, "fastpath": fastpath_loop}


def _run(ex, core: str = "heap"):
    """Run ``ex`` (on the named oracle unless ``core="heap"``, the
    production loop) and check that ``core`` is the loop that ran."""
    if core in ORACLES:
        with ORACLES[core]():
            ex.run()
    else:
        ex.run()
    assert ex.stats().core == core
    return ex


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("core", ["heap", "reference"])
def test_every_core_emits_exact_schema(obs_store, policy_name, core):
    ex = _run(_contended_executor(obs_store, policy_name), core)
    assert ex.trace_events
    for e in ex.trace_events:
        assert tuple(e) == TRACE_SCHEMA
    validate_events(ex.trace_events)


@pytest.mark.parametrize("policy_name", ["fifo", "edf"])
def test_fastpath_emits_exact_schema(obs_store, policy_name):
    ex = _run(_fastpath_fleet(obs_store, policy_name), "fastpath")
    assert ex.trace_events
    for e in ex.trace_events:
        assert tuple(e) == TRACE_SCHEMA
    validate_events(ex.trace_events)


# ---------------------------------------------------------------------------
# Cross-core stream parity
# ---------------------------------------------------------------------------


def _stream_bytes(ex) -> bytes:
    return json.dumps(ex.trace_events, sort_keys=True).encode()


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_heap_and_reference_streams_identical(obs_store, policy_name):
    a = _run(_contended_executor(obs_store, policy_name))
    b = _run(_contended_executor(obs_store, policy_name), "reference")
    assert _stream_bytes(a) == _stream_bytes(b)


@pytest.mark.parametrize("policy_name", ["fifo", "edf"])
def test_fastpath_stream_identical_to_both_cores(obs_store, policy_name):
    fast = _run(_fastpath_fleet(obs_store, policy_name), "fastpath")
    heap = _run(_fastpath_fleet(obs_store, policy_name))
    ref = _run(_fastpath_fleet(obs_store, policy_name), "reference")
    assert _stream_bytes(fast) == _stream_bytes(heap) == _stream_bytes(ref)


# ---------------------------------------------------------------------------
# Typed views
# ---------------------------------------------------------------------------


def test_intervals_reconstruct_submission_by_chain_rule(obs_store):
    ex = _contended_executor(obs_store, "fair")
    ex.run()
    intervals = intervals_from_events(ex.trace_events, ex.started_at)
    by_query = {}
    for iv in intervals:
        by_query.setdefault(iv.query, []).append(iv)
    for chain in by_query.values():
        # First task of a serial chain is submitted at run start; each
        # later task the instant its predecessor finished.
        assert chain[0].submit == ex.started_at
        for prev, nxt in zip(chain, chain[1:]):
            assert nxt.submit == prev.end
        for iv in chain:
            assert iv.start >= iv.submit
            assert iv.wait == pytest.approx(iv.start - iv.submit)
            assert iv.end == pytest.approx(iv.start + iv.duration)


def test_interval_waits_sum_to_session_waits(obs_store):
    ex = _contended_executor(obs_store, "fifo")
    outcomes = ex.run()
    intervals = intervals_from_events(ex.trace_events, ex.started_at)
    waited = {}
    for iv in intervals:
        waited[iv.query] = waited.get(iv.query, 0.0) + iv.wait
    for o in outcomes:
        assert waited[o.session.label] == pytest.approx(o.waited_seconds)


def test_query_spans_cover_latency(obs_store):
    ex = _contended_executor(obs_store, "fair")
    outcomes = ex.run()
    spans = {s.query: s for s in query_spans(ex.trace_events, ex.started_at)}
    assert len(spans) == len(outcomes)
    for o in outcomes:
        s = spans[o.session.label]
        assert s.latency == pytest.approx(o.latency)
        assert s.service_seconds == pytest.approx(o.service_seconds)
        assert not s.background
        # Service + wait per resource partitions the whole latency.
        total = (sum(s.service_by_resource.values())
                 + sum(s.wait_by_resource.values()))
        assert total == pytest.approx(s.latency)
        assert s.bound_resource in s.service_by_resource


def test_background_jobs_are_flagged():
    events = [
        task_event("start", 0.0, "bg:reencode", "read", "reencode",
                   "disk", 1.0),
        task_event("finish", 1.0, "bg:reencode", "read", "reencode",
                   "disk", 1.0),
        task_event("start", 1.0, "bg:reencode", "transcode", "reencode",
                   "decoder", 2.0),
        task_event("finish", 3.0, "bg:reencode", "transcode", "reencode",
                   "decoder", 2.0),
    ]
    (span,) = query_spans(events, 0.0)
    assert span.background
    assert span.n_tasks == 2


def test_dangling_start_raises():
    events = [task_event("start", 0.0, "q0", "retrieve", "NN", "disk", 1.0)]
    with pytest.raises(ValueError):
        intervals_from_events(events, 0.0)
