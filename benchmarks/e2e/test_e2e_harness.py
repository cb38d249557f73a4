"""Harness test for the end-to-end benchmark, at smoke scale.

One smoke set of every workload runs through ``run.py`` exactly as the
full benchmark does (fresh subprocesses, traced run included); the tests
check what it printed against BENCHMARK.json, the span files it wrote,
and that outcome digests follow the seed and nothing else.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads((HERE / "pinned.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    """(final JSON result, stdout, output directory) of one smoke set."""
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
         "--seconds", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout, out


def test_printed_metrics_are_exactly_the_declared_ones(smoke_set):
    result, _, _ = smoke_set
    declared = {m["name"]: m["unit"]
                for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    for name in NAMES:
        printed = {key.split("/", 1)[1]: metric
                   for key, metric in result["metrics"].items()
                   if key.startswith(name + "/")}
        assert set(printed) == set(declared), name
        for metric, value in printed.items():
            assert value["unit"] == declared[metric], metric


def test_self_times_are_nonnegative_and_sum_to_the_traced_wall(smoke_set):
    result, _, out = smoke_set
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in NAMES:
        selfs = [v for k, v in metrics.items()
                 if k.startswith(name + "/") and k.endswith("_self_s")]
        assert min(selfs) >= -1e-9, name
        wall = metrics[f"{name}/bench.traced_wall_s"]
        unattributed = wall * (1 - metrics[f"{name}/bench.attributed_share"])
        assert sum(selfs) + unattributed == pytest.approx(wall, rel=0.01)

    files = sorted((out / "spans").glob("*.jsonl"))
    assert len(files) == len(NAMES)
    for path in files:
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        covered = {}
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] = (covered.get(span["parent"], 0.0)
                                           + span["end"] - span["start"])
        selfs = [s["end"] - s["start"] - covered.get(s["id"], 0.0)
                 for s in spans]
        roots = sum(s["end"] - s["start"] for s in spans
                    if s["parent"] is None)
        assert min(selfs) >= -1e-9, path.name
        assert sum(selfs) == pytest.approx(roots, rel=0.01), path.name
        assert all(s["request"] for s in spans), path.name


def test_traced_digest_equals_untraced_and_the_pinned_one(smoke_set):
    _, stdout, _ = smoke_set
    found = {name: (untraced, traced) for name, untraced, traced in
             re.findall(r"^(\w+): digest (\w+) traced (\w+)", stdout, re.M)}
    assert set(found) == set(NAMES)
    for name, (untraced, traced) in found.items():
        assert untraced == traced == PINNED["smoke"][name]["0"], name


@pytest.mark.parametrize("name", NAMES)
def test_another_seed_changes_the_digest(name, tmp_path):
    workload = workloads.make(name, "smoke")
    store = workload.build(str(tmp_path / "store"))
    try:
        _, outcome = worker.checked_run(workload, store, 1)
    finally:
        store.close()
    assert not outcome.problems
    assert outcome.digest == PINNED["smoke"][name]["1"]
    assert outcome.digest != PINNED["smoke"][name]["0"]


def test_traced_sets_compare_without_setups(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
         "--seconds", "0", "--workload", "closed_fleet", "--trace", "1",
         "--sets", "2", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "set 1 vs set 2" in proc.stdout
    assert "setup_s" not in proc.stdout.split("set 1 vs set 2")[1]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
