"""End-to-end VStore benchmark: four workloads, host and simulated metrics.

Run from the repository root:

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds T]
        [--trace 0|1] [--sets N] [--scale full|smoke] [--out DIR]

Every workload runs in fresh subprocesses, one after another, each a
single process with one BLAS/OpenMP thread:

* ``--trace 0``: one process that warms up, then times runs for
  ``--seconds`` with cold set-ups (``setup_s``) spread between them;
  prints the end-to-end metrics.
* ``--trace 1``: the timed process again, plus one traced run with the
  layer wrappers installed; prints the per-layer metrics.
* no ``--trace``: both, which is one *set*.  ``--sets 2`` runs two sets
  back to back, alternating the workload order, and compares them metric
  by metric against the bounds in BENCHMARK.json.

Metric names, units and bounds come from BENCHMARK.json at the root.
The end-to-end times are reference seconds, host seconds corrected for
how fast the shared host ran meanwhile (see hostspeed.py); the per-layer
times are host seconds.

Every run checks its outcomes (see workloads.py); a failed check, or an
outcome digest that differs from another run, another set or the digest
pinned for its seed in pinned.json, makes the runner exit 1.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads((HERE / "pinned.json").read_text())

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: Cold set-ups per measured process, each in its own forked process.
SETUPS = {"full": 15, "smoke": 1}
#: Seconds after which a worker is killed; one invocation of one
#: workload must finish within three minutes.
CHILD_TIMEOUT = 150


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed check)."""


def child(args, out: Path, timeout: float = CHILD_TIMEOUT) -> dict:
    """Run worker.py in a fresh single-threaded process; its JSON result."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    # A session of its own, so a timeout also stops the worker's forks.
    with subprocess.Popen([sys.executable, str(WORKER), *args,
                           "--out", str(out)],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchmarkError(f"worker {args[:3]} ran past "
                                 f"{timeout} s") from None
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args[:3]} exited with "
                             f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_set(name: str, opts) -> dict:
    """One measured process for one workload, its digest checked."""
    setups = SETUPS[opts.scale] if opts.trace != 1 else 0
    measured = child(["measure", "--workload", name, "--scale", opts.scale,
                      "--seed", str(opts.seed), "--seconds", str(opts.seconds),
                      "--setups", str(setups)]
                     + (["--trace"] if opts.trace != 0 else []), opts.out)
    pinned = PINNED[opts.scale][name].get(str(opts.seed))
    if pinned and measured["digest"] and measured["digest"] != pinned:
        measured["problems"].append(
            f"outcome digest {measured['digest']} differs from the pinned "
            f"{pinned}")
        measured["failed"] = measured["attempted"]
    return measured


#: How each end-to-end metric folds its samples into one value: ``wall_s``
#: is the mean of the timed runs, which weighs each second of the window
#: alike, and ``setup_s`` the median of the cold builds.
FOLD = {"setup_s": statistics.median, "wall_s": statistics.mean,
        "peak_rss_mb": max}


def samples(result: dict, name: str) -> list:
    """Every measured value behind one end-to-end metric."""
    if name == "setup_s":
        return result["setups"]
    if name == "wall_s":
        return result["walls"]
    return [result["peak_rss_mb"]]


def metrics(result: dict, trace) -> dict:
    """Declared metrics of one set, checked against BENCHMARK.json.

    A set with a failed check reports what it could measure.
    """
    out, declared = {}, set()
    if trace != 1:
        declared |= set(END_TO_END)
        for name in END_TO_END:
            values = samples(result, name)
            if values:
                out[name] = FOLD[name](values)
    if trace != 0:
        declared |= set(PER_LAYER)
        out.update(result.get("layers", {}))
    if not result["problems"] and set(out) != declared:
        raise BenchmarkError(
            f"metrics not declared in BENCHMARK.json: "
            f"{sorted(set(out) - declared)}; declared but not produced: "
            f"{sorted(declared - set(out))}")
    return out


def unit(name: str) -> str:
    return (END_TO_END.get(name) or PER_LAYER[name])["unit"]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(name: str, result: dict, values: dict) -> None:
    print(f"{name}: digest {result['digest'] or '-'} traced "
          f"{result.get('traced_digest', '-')}")
    print(f"  attempted {result['attempted']} failed {result['failed']}")
    for metric in ("wall_s", "setup_s"):
        runs = samples(result, metric)
        if runs:
            q1, med, q3 = quartiles(runs)
            print(f"  {metric} over {len(runs)}: min {min(runs):.4f} mean "
                  f"{statistics.mean(runs):.4f} median {med:.4f} "
                  f"[q1 {q1:.4f}, q3 {q3:.4f}] s")
    if "largest_layer" in result:
        print(f"  largest layer: {result['largest_layer']}; spans in "
              f"{result['spans']}")
    for metric, value in values.items():
        print(f"  {metric:<36} {value:>16.6g} {unit(metric)}")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")


def compare(sets: list) -> list:
    """Print set 1 against each later set; returns problems found."""
    problems = []
    for k in range(1, len(sets)):
        print(f"\nset 1 vs set {k + 1}: value [q1, q3 of its samples]")
        for name in WORKLOADS:
            a, b = sets[0].get(name), sets[k].get(name)
            if a is None or a["problems"] or b["problems"]:
                continue
            if a["digest"] != b["digest"]:
                problems.append(f"{name}: digest {a['digest'][:16]} in set "
                                f"1, {b['digest'][:16]} in set {k + 1}")
            for metric, spec in END_TO_END.items():
                sa, sb = samples(a, metric), samples(b, metric)
                if not sa or not sb:  # no set-ups under --trace 1
                    continue
                (qa, va), (qb, vb) = [(quartiles(s), FOLD[metric](s))
                                      for s in (sa, sb)]
                ratio = vb / va if va else float("inf")
                flag = "OUTSIDE" if abs(ratio - 1) > spec["bound"] else "ok"
                print(f"  {name:<17} {metric:<12} "
                      f"{va:>10.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                      f"{vb:>10.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  "
                      f"x{ratio:.4f} (bound {spec['bound']:.0%}) {flag}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="host seconds of timed runs per process")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics; "
                             "omitted: both")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="spans and scratch stores go here")
    opts = parser.parse_args(argv)
    if opts.sets < 1:
        parser.error("--sets must be at least 1")
    if not (SRC / "repro").is_dir():
        print(f"no VStore sources under {SRC}", file=sys.stderr)
        return 2

    names = [opts.workload] if opts.workload else WORKLOADS
    sets = []
    try:
        for i in range(opts.sets):
            order = names if i % 2 == 0 else names[::-1]
            sets.append({n: run_set(n, opts) for n in order})
        last = sets[-1]
        values = {n: metrics(last[n], opts.trace) for n in names}
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for n in names:
        report(n, last[n], values[n])
    problems = [p for s in sets for r in s.values() for p in r["problems"]]
    problems += compare(sets)
    if opts.workload:
        flat = values[opts.workload]
    else:
        flat = {f"{n}/{m}": v for n in names for m, v in values[n].items()}
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for s in sets for r in s.values()),
        "failed": sum(r["failed"] for s in sets for r in s.values()),
        "metrics": {m: {"value": v, "unit": unit(m.split("/")[-1])}
                    for m, v in flat.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
