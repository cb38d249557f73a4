"""Exporters: golden Chrome trace and the JSONL analytics tier.

The Chrome trace-event JSON is deterministic byte-for-byte, so it is
pinned golden like the raw executor traces (regenerate intentionally
with ``pytest tests/test_obs_export.py --update-golden`` and review the
diff).  The analytics tier must round-trip rows bit-equal through JSONL.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.obs.export import (
    bench_history_rows,
    chrome_trace,
    export_run,
    read_rows,
    write_chrome_trace,
    write_rows,
)
from repro.operators.library import default_library
from repro.query.cascade import QUERY_A, QUERY_B
from repro.query.scheduler import OperatorContextPool
from repro.storage.disk import DiskBandwidthPool

GOLDEN_DIR = Path(__file__).parent / "golden"

ROWS = [
    {"resource": "disk", "t": 0.0, "running": 1, "waiting": 0},
    {"resource": "disk", "t": 0.5, "running": 0, "waiting": 2},
    {"resource": "decoder", "t": 0.25, "running": 1, "waiting": None},
    {"resource": "decoder", "t": 1.0, "running": 0, "label": "tail"},
]


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One deterministic contended run: (events, start_time)."""
    lib = default_library(names=("Diff", "S-NN", "NN", "Motion", "License",
                                 "OCR"))
    with VStore(workdir=str(tmp_path_factory.mktemp("export")),
                library=lib) as store:
        store.configure()
        store.ingest("jackson", n_segments=4)
        store.ingest("dashcam", n_segments=4)
        ex = store.executor(
            policy="fifo",
            disk_pool=DiskBandwidthPool(1),
            decoder_pool=DecoderPool(1),
            operator_pool=OperatorContextPool(2),
        )
        ex.admit(QUERY_A, "jackson", 0.9, 0.0, 16.0)
        ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 16.0, deadline=3.0)
        ex.admit(QUERY_B, "dashcam", 0.9, 0.0, 8.0, contexts=2)
        ex.run()
        yield list(ex.trace_events), ex.started_at


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------


def test_chrome_trace_matches_golden(traced_run, tmp_path, request):
    events, start = traced_run
    path = tmp_path / "chrome_trace.json"
    write_chrome_trace(str(path), events, start)
    data = path.read_bytes()
    golden = GOLDEN_DIR / "chrome_trace_fifo.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden.write_bytes(data)
        return
    assert golden.exists(), (
        f"missing golden chrome trace {golden}; generate it with "
        f"pytest tests/test_obs_export.py --update-golden"
    )
    assert golden.read_bytes() == data, (
        "the exported Chrome trace drifted from the golden file; if the "
        "change is intentional, regenerate with --update-golden and "
        "review the diff"
    )


def test_chrome_trace_structure(traced_run):
    events, start = traced_run
    payload = chrome_trace(events, start)
    te = payload["traceEvents"]
    phases = {e["ph"] for e in te}
    assert phases == {"M", "X", "C"}
    # One named process lane per query, plus the resources lane (pid 0).
    names = {e["args"]["name"] for e in te if e["ph"] == "M"}
    assert "resources" in names
    assert len(names) == 4  # 3 queries + resources
    slices = [e for e in te if e["ph"] == "X"]
    n_tasks = sum(1 for e in events if e["event"] == "start")
    assert len(slices) == n_tasks
    for s in slices:
        assert s["dur"] >= 0
        assert s["pid"] >= 1  # query lanes never collide with resources
        assert "resource" in s["args"]
    counters = [e for e in te if e["ph"] == "C"]
    assert counters
    assert all(c["pid"] == 0 for c in counters)


def test_chrome_trace_deterministic(traced_run, tmp_path):
    events, start = traced_run
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_chrome_trace(str(a), events, start)
    write_chrome_trace(str(b), list(events), start)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# The JSONL analytics tier
# ---------------------------------------------------------------------------


def test_jsonl_roundtrip_bit_equal(tmp_path):
    path = str(tmp_path / "rows.jsonl")
    write_rows(path, ROWS)
    back = read_rows(path)
    # Rows come back with the uniform sorted key-set, None-filled.
    keys = sorted({k for r in ROWS for k in r})
    assert [sorted(r) for r in back] == [keys] * len(ROWS)
    for orig, got in zip(ROWS, back):
        for k in keys:
            assert got[k] == orig.get(k)
    # Writing the reloaded rows again is byte-identical.
    path2 = str(tmp_path / "rows2.jsonl")
    write_rows(path2, back)
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_unknown_suffix_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_rows(str(tmp_path / "rows.csv"), ROWS)
    with pytest.raises(ValueError):
        read_rows(str(tmp_path / "rows.csv"))


def test_bench_history_rows(tmp_path):
    bench = {"schema": 1, "tests": {},
             "metrics": {"b/x": {"events_per_second": 2.0},
                         "a/y": {"wall_seconds": 1.0, "core": "heap"}}}
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(bench))
    rows = bench_history_rows(str(path))
    assert [r["cell"] for r in rows] == ["a/y", "b/x"]  # sorted
    assert rows[0]["core"] == "heap"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 99}))
    with pytest.raises(ValueError):
        bench_history_rows(str(bad))


# ---------------------------------------------------------------------------
# The whole bundle
# ---------------------------------------------------------------------------


def test_export_run_writes_the_bundle(traced_run, tmp_path):
    events, start = traced_run
    written = export_run(
        str(tmp_path / "out"),
        events=events,
        metrics_rows=[{"metric": "x", "type": "gauge", "value": 1.0}],
        start_time=start,
    )
    assert set(written) == {"chrome_trace", "trace_events", "intervals",
                            "queries", "utilization", "metrics"}
    for path in written.values():
        assert Path(path).exists()
    # Reloaded trace events are the locked-schema stream, bit-equal.
    back = read_rows(written["trace_events"])
    assert back == [dict(sorted(e.items())) for e in events]
    # Per-query table names each query once.
    queries = read_rows(written["queries"])
    assert len(queries) == 3
    assert all(q["latency"] > 0 for q in queries)


def test_export_run_without_trace_writes_metrics_only(tmp_path):
    written = export_run(
        str(tmp_path / "out"),
        metrics_rows=[{"metric": "x", "type": "gauge", "value": 1.0}],
    )
    assert set(written) == {"metrics"}
