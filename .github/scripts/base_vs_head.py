"""Time one host-time snippet on a base ref and on the working tree.

Usage, from anywhere inside the repository:

    python .github/scripts/base_vs_head.py NAME BASE_REF

NAME picks the snippet:

* ``derive`` — a cold ``derive_configuration`` of the default library.
  ``numpy.random`` and ``numpy.ma`` load before the timer, so an import
  moving between import time and first use does not read as a planner
  change;
* ``serve`` — build a 4-shard store of 8 jackson segments, serve a small
  two-tenant mix once to warm it, and time a second, identical
  ``serve()``;
* ``fleet`` — the executor's drain loop on a closed FIFO fleet: build a
  4-shard store of 8 jackson segments, plan query A once, and time
  ``execute_many`` of 4,096 specs carrying that plan.

The snippets use only API that both sides have.  BASE_REF's ``src/`` is
exported with ``git archive`` into a temporary directory; the working
tree's ``src/`` is the head side.  Each side runs the snippet in 7 fresh
interpreters, the two sides alternating which goes first per round, and
the script prints a markdown table of each side's quartiles plus the
head/base median ratio (CI appends it to the job summary).  The numbers
are informational: one shared runner is too noisy to gate on, but a
regression shows as a shifted median.  Stores the snippets create in
their temporary directory are removed with it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile

ROUNDS = 7

DERIVE = """import time
import numpy.ma, numpy.random
from repro.core.config import derive_configuration
from repro.operators.library import default_library
library = default_library()
t0 = time.perf_counter()
derive_configuration(library)
print(time.perf_counter() - t0)"""

SERVE = """import tempfile, time
from repro.core.store import VStore
from repro.query.workload import ArrivalSpec, QueryMixEntry, TenantSpec
tenants = [
    TenantSpec(name="gold", arrivals=ArrivalSpec(rate=1.0),
               mix=(QueryMixEntry("B", "jackson", 0.9, 0.0, 16.0),
                    QueryMixEntry("B", "jackson", 0.9, 32.0, 48.0)),
               slo_seconds=5.0),
    TenantSpec(name="bronze", arrivals=ArrivalSpec(kind="bursty", rate=0.5),
               mix=(QueryMixEntry("A", "jackson", 0.8, 0.0, 64.0),
                    QueryMixEntry("A", "jackson", 0.9, 0.0, 64.0)),
               slo_seconds=15.0),
]
store = VStore(workdir=tempfile.mkdtemp(), shards=4)
store.configure()
store.ingest("jackson", n_segments=8)
store.serve(tenants, 60.0)
t0 = time.perf_counter()
store.serve(tenants, 60.0)
print(time.perf_counter() - t0)
store.close()"""

FLEET = """import tempfile, time
from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.query.cascade import QUERY_A
from repro.query.scheduler import OperatorContextPool
from repro.storage.disk import DiskBandwidthPool
store = VStore(workdir=tempfile.mkdtemp(), shards=4)
store.configure()
store.ingest("jackson", n_segments=8)
plan = store.engine("jackson").plan(QUERY_A, 0.9, store.segments,
                                    0.0, 64.0)
specs = [dict(query="A", dataset="jackson", accuracy=0.9, t0=0.0,
              t1=64.0, plan=plan)] * 4096
pools = dict(disk_pool=DiskBandwidthPool(1),
             decoder_pool=DecoderPool(2),
             operator_pool=OperatorContextPool(4))
t0 = time.perf_counter()
store.execute_many(specs, **pools)
print(time.perf_counter() - t0)
store.close()"""

#: NAME -> (table title, snippet)
SNIPPETS = {
    "derive": ("Cold `derive_configuration` (default library), host s",
               DERIVE),
    "serve": ("Warm `serve()` (second identical serve on one store), host s",
              SERVE),
    "fleet": ("Closed FIFO fleet (`execute_many` of 4,096 planned specs), "
              "host s", FLEET),
}


def _run_once(snippet: str, src: str, tmpdir: str) -> float:
    """Host seconds one fresh interpreter reports for ``snippet``."""
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=tmpdir)
    out = subprocess.run([sys.executable, "-c", snippet], env=env,
                         check=True, capture_output=True, text=True).stdout
    return float(out.split()[-1])


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in SNIPPETS:
        print(f"usage: base_vs_head.py {{{','.join(SNIPPETS)}}} BASE_REF",
              file=sys.stderr)
        return 2
    name, base_ref = argv
    title, snippet = SNIPPETS[name]
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          check=True, capture_output=True,
                          text=True).stdout.strip()
    times = {"base": [], "head": []}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", base_ref, "src"],
                                 cwd=root, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        srcs = {"base": os.path.join(tmp, "src"),
                "head": os.path.join(root, "src")}
        for round_ in range(1, ROUNDS + 1):
            sides = ("head", "base") if round_ % 2 == 0 else ("base", "head")
            for side in sides:
                times[side].append(_run_once(snippet, srcs[side], tmp))
    print(f"### {title}")
    print()
    print("| side | runs | q1 | median | q3 |")
    print("|---|---:|---:|---:|---:|")
    medians = {}
    for side in ("base", "head"):
        q1, median, q3 = statistics.quantiles(times[side], n=4)
        medians[side] = median
        print(f"| {side} | {len(times[side])} | {q1:.4f} | {median:.4f} "
              f"| {q3:.4f} |")
    print()
    print(f"head/base median ratio: {medians['head'] / medians['base']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
