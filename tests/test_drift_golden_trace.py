"""Golden-trace pin for a mixed foreground/background evolution run.

The evolution path shares the executor with live queries through priority
banding (class 0 foreground, class 1 background); a silent change in how
background work is granted — a new tie-break, a reordered pool scan —
would alter contention in ways coarse assertions miss.  This pins the
complete task trace of one deterministic drift-evolution run (two
foreground queries racing the re-encode jobs on tight pools)
byte-for-byte, exactly like the non-evolving traces in
``test_golden_traces.py`` — which must themselves stay untouched by the
evolution machinery.

Regenerate after an intentional scheduler change with::

    PYTHONPATH=src python -m pytest tests/test_drift_golden_trace.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path


from repro.codec.decoder import DecoderPool
from repro.core.evolve import (
    decide_consumers,
    legacy_configuration,
    reencode_jobs,
    replan_incremental,
)
from repro.core.store import VStore
from repro.operators.library import Consumer, default_library
from repro.query.cascade import QUERY_A, QUERY_B
from repro.query.scheduler import FIFOPolicy, OperatorContextPool
from repro.storage.disk import DiskBandwidthPool

from oracles import reference_loop

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "trace_drift.json"

PHASE1 = (Consumer("Motion", 0.9), Consumer("License", 0.9),
          Consumer("OCR", 0.9))
PHASE2 = (Consumer("Diff", 0.9), Consumer("S-NN", 0.9), Consumer("NN", 0.9))


def _round(value: float) -> float:
    return round(value, 9)


def _run_trace(workdir) -> dict:
    """One deterministic mixed run on a fresh store (the re-encode jobs'
    ``on_done`` hooks mutate the store, so every trace gets its own)."""
    lib = default_library(
        names=tuple(c.operator for c in PHASE1 + PHASE2)
    )
    with VStore(workdir=str(workdir), library=lib) as store:
        store.configure(consumers=list(PHASE1))
        store.ingest("jackson", n_segments=4)
        decisions = decide_consumers(
            store.library, PHASE2, clock=store.clock,
            known={d.consumer: d for d in store.configuration.decisions},
        )
        store.adopt(legacy_configuration(store.configuration, decisions))

        replan = replan_incremental(store.configuration, store.library,
                                    list(PHASE1 + PHASE2))
        epoch = store.segments.begin_epoch()
        jobs = []
        for stream in store.segments.streams():
            jobs.extend(reencode_jobs(
                store.segments, stream, [sf.fmt for sf in replan.added],
                store.configuration.plan.golden.fmt, epoch=epoch,
            ))
        assert jobs, "the drifted mix must require new formats"

        ex = store.executor(
            policy=FIFOPolicy(),
            disk_pool=DiskBandwidthPool(1),
            decoder_pool=DecoderPool(1),
            operator_pool=OperatorContextPool(2),
        )
        ex.admit(QUERY_A, "jackson", 0.9, 0.0, 16.0)
        ex.admit(QUERY_B, "jackson", 0.9, 0.0, 16.0)
        for job in jobs:
            ex.admit_job(job)
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
                    "klass": o.session.klass,
                    "latency": _round(o.latency),
                    "finished_at": _round(o.session.finished_at),
                }
                for o in outcomes
            ],
        }


def _canonical_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=1,
                       ensure_ascii=True) + "\n").encode("utf-8")


def test_drift_trace_matches_golden(tmp_path, request):
    data = _canonical_bytes(_run_trace(tmp_path / "golden"))
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        GOLDEN_PATH.write_bytes(data)
        return
    assert GOLDEN_PATH.exists(), (
        f"missing golden trace {GOLDEN_PATH}; generate it with "
        f"pytest tests/test_drift_golden_trace.py --update-golden"
    )
    assert GOLDEN_PATH.read_bytes() == data, (
        "the drift-evolution execution trace changed; if the scheduler "
        "change is intentional, regenerate with --update-golden and "
        "review the diff"
    )


def test_heap_and_reference_cores_agree_on_mixed_fleets(tmp_path):
    """Priority banding must behave identically in the heap core and the
    rescan-loop oracle."""
    heap = _canonical_bytes(_run_trace(tmp_path / "heap"))
    with reference_loop():
        ref = _canonical_bytes(_run_trace(tmp_path / "ref"))
    assert heap == ref


def test_drift_trace_is_well_formed(tmp_path):
    payload = _run_trace(tmp_path / "shape")
    events = payload["events"]
    assert events
    starts = [e for e in events if e["event"] == "start"]
    finishes = [e for e in events if e["event"] == "finish"]
    assert len(starts) == len(finishes)
    assert [e["t"] for e in events] == sorted(e["t"] for e in events)
    klasses = {q["klass"] for q in payload["queries"]}
    assert klasses == {0, 1}, "the run must mix foreground and background"
    # Foreground queries outrank the re-encode gang: with FIFO banding
    # they never finish after the whole run does.
    fg_finish = max(q["finished_at"] for q in payload["queries"]
                    if q["klass"] == 0)
    assert fg_finish <= payload["makespan"]
