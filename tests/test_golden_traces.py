"""Golden-trace regression tests for the concurrent executor.

The executor is a discrete-event simulation whose value lies in *exact*
event ordering: which task starts when, on which resource, and when each
query finishes.  A refactor that silently reorders execution — a changed
tie-break, a float regrouping, a different pool scan order — would slip
through coarse assertions, so these tests pin the complete task
start/finish trace and the per-query makespans for each scheduling policy
on a small fixed fleet, byte-for-byte, against committed JSON files.

Regenerate the golden files after an *intentional* scheduler change with::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --update-golden

and commit the diff — the point is that the diff is reviewed, not silent.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.operators.library import default_library
from repro.query.cascade import QUERY_A, QUERY_B
from repro.query.scheduler import OperatorContextPool
from repro.storage.disk import DiskBandwidthPool

from oracles import reference_loop

GOLDEN_DIR = Path(__file__).parent / "golden"

POLICIES = ("fifo", "fair", "edf")


#: Shard widths each policy's trace is pinned at: the single-disk layout
#: (the PR 2 contract) and a genuinely sharded 4-spindle array whose
#: per-shard channel pools give the trace ``disk:i`` resources.
SHARD_WIDTHS = (1, 4)


def _suffix(shards: int) -> str:
    return "" if shards == 1 else f"_shards{shards}"


@pytest.fixture(scope="module", params=SHARD_WIDTHS,
                ids=lambda s: f"shards{s}")
def trace_store(request, tmp_path_factory):
    """The fixed fleet every golden trace runs against, per shard width."""
    shards = request.param
    lib = default_library(names=("Diff", "S-NN", "NN", "Motion", "License",
                                 "OCR"))
    with VStore(workdir=str(tmp_path_factory.mktemp(f"golden{shards}")),
                library=lib, shards=shards) as store:
        store.configure()
        store.ingest("jackson", n_segments=4)
        store.ingest("dashcam", n_segments=4)
        store.ingest("jackson", n_segments=4, stream="cam01")
        yield store


def _round(value: float) -> float:
    """Canonical float for the JSON trace.

    Nine decimals keep every scheduling decision visible (task durations
    are >= the 1e-4 s request overhead) while staying clear of the last
    couple of float64 digits.
    """
    return round(value, 9)


def _run_trace(store, policy_name: str) -> dict:
    """One canonical contended run; returns the JSON-ready payload."""
    ex = store.executor(
        policy=policy_name,
        disk_pool=DiskBandwidthPool(1),
        decoder_pool=DecoderPool(1),
        operator_pool=OperatorContextPool(2),
    )
    ex.admit(QUERY_A, "jackson", 0.9, 0.0, 16.0)
    ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 16.0, deadline=3.0)
    ex.admit(QUERY_A, "jackson", 0.8, 0.0, 16.0, stream="cam01")
    ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 8.0, contexts=2)
    outcomes = ex.run()
    stats = ex.stats()
    return {
        "policy": stats.policy,
        "makespan": _round(stats.makespan),
        "events": [
            {
                "event": e["event"],
                "t": _round(e["t"]),
                "query": e["query"],
                "kind": e["kind"],
                "operator": e["operator"],
                "resource": e["resource"],
                "duration": _round(e["duration"]),
            }
            for e in ex.trace_events
        ],
        "queries": [
            {
                "label": o.session.label,
                "latency": _round(o.latency),
                "service": _round(o.service_seconds),
                "waited": _round(o.waited_seconds),
                "finished_at": _round(o.session.finished_at),
            }
            for o in outcomes
        ],
    }


def _canonical_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=1,
                       ensure_ascii=True) + "\n").encode("utf-8")


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_trace_matches_golden(trace_store, policy_name, request):
    data = _canonical_bytes(_run_trace(trace_store, policy_name))
    path = (GOLDEN_DIR
            / f"trace_{policy_name}{_suffix(trace_store.n_shards)}.json")
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_bytes(data)
        return
    assert path.exists(), (
        f"missing golden trace {path}; generate it with "
        f"pytest tests/test_golden_traces.py --update-golden"
    )
    assert path.read_bytes() == data, (
        f"the {policy_name} execution trace drifted from {path}; if the "
        f"scheduler change is intentional, regenerate with --update-golden "
        f"and review the diff"
    )


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_trace_is_well_formed(trace_store, policy_name):
    """Structural invariants of any trace, independent of the golden bytes."""
    payload = _run_trace(trace_store, policy_name)
    events = payload["events"]
    assert events, "a contended run must record events"
    starts = [e for e in events if e["event"] == "start"]
    finishes = [e for e in events if e["event"] == "finish"]
    assert len(starts) == len(finishes)
    # Event times never run backwards.
    times = [e["t"] for e in events]
    assert times == sorted(times)
    # Every query finishes, and the last finish is the makespan.
    assert len(payload["queries"]) == 4
    assert payload["makespan"] == pytest.approx(
        max(q["finished_at"] for q in payload["queries"])
    )


def test_traces_differ_across_policies(trace_store):
    """The three policies schedule this contended fleet differently —
    otherwise three golden files would pin one behavior thrice."""
    traces = {name: _canonical_bytes(_run_trace(trace_store, name))
              for name in POLICIES}
    assert traces["fifo"] != traces["fair"]
    assert traces["fifo"] != traces["edf"]


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_heap_core_replays_reference_trace(trace_store, policy_name):
    """The event-heap core and the rescan-loop oracle must emit the very
    same byte stream — the golden files pin one of them, this pins them
    to each other on both shard widths."""
    heap = _canonical_bytes(_run_trace(trace_store, policy_name))
    with reference_loop():
        ref = _canonical_bytes(_run_trace(trace_store, policy_name))
    assert heap == ref
