"""One benchmark subprocess: a measured run, or digests to pin.

    worker.py measure --workload W --scale S --out DIR --seed N --seconds T
                      [--setups K] [--trace]
    worker.py digests --workload W --scale S --out DIR --seeds A-B

``measure`` builds a store, runs one untimed warm-up at smoke scale,
then timed runs that, with ``K`` cold builds of the store timed between
them (see :class:`ColdBuilds`), fill ``--seconds``; at least
``MIN_RUNS`` runs are timed.  With ``--trace`` it also builds one more store
and runs once more with the layer wrappers installed (see tracing.py);
that store's build is the ``bench.setup`` root and happens first, while
the process is cold.  ``digests`` runs once per seed, untimed, for
pinned.json.

Timed runs and cold builds are probed for host speed and report
reference seconds (see hostspeed.py) next to host seconds.  The traced
run is not probed inside, so its spans and the executor's own loop time
are undisturbed host seconds.  Each mode prints one JSON object as the
last line of standard output.
``run.py`` starts this script with ``PYTHONPATH`` pointing at ``src``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import hostspeed
import tracing
import workloads

#: Fewest timed runs a measurement takes, however long they are.
MIN_RUNS = 3
#: A traced run's host time in untraced runs, with headroom.
TRACE_COST = 2.0


class Workdirs:
    """Fresh store directories under one per-process directory."""

    def __init__(self, out: str, label: str):
        self.root = os.path.join(out, "work", f"{label}-{os.getpid()}")
        self.count = 0

    def new(self) -> str:
        self.count += 1
        return os.path.join(self.root, f"store{self.count}")

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class ColdBuilds:
    """Cold builds of a workload's store, on request, between timed runs.

    The constructor forks a server from this process before it touches a
    store.  Each request forks a child of that server, which builds one
    store as cold as a fresh interpreter would, without the imports that
    ``setup_s`` excludes, and reports its host seconds.  Requests spread
    over the measured window, so a few seconds of host slowdown cannot
    move every build of a run.
    """

    def __init__(self, workload, out: str):
        requests_r, self._requests = os.pipe()
        results_r, results_w = os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            os.close(self._requests)
            os.close(results_r)
            _serve_cold_builds(workload, out, requests_r, results_w)
        os.close(requests_r)
        os.close(results_w)
        self._results = os.fdopen(results_r)
        self.times: list = []

    def build_until(self, count: int) -> None:
        """Build until ``count`` cold builds are timed."""
        while len(self.times) < count:
            os.write(self._requests, b"b")
            line = self._results.readline()
            try:
                self.times.append(float(line))
            except ValueError:
                raise RuntimeError("a cold build failed; see stderr") \
                    from None

    def close(self) -> None:
        os.close(self._requests)
        self._results.close()
        os.waitpid(self._pid, 0)


def _serve_cold_builds(workload, out, requests, results):
    """The server side of ColdBuilds; never returns."""
    status = 1
    dirs = Workdirs(out, f"{workload.name}-cold")
    try:
        while os.read(requests, 1):
            workdir = dirs.new()
            pid = os.fork()
            if pid == 0:
                _cold_build(workload, workdir, results)
            _, code = os.waitpid(pid, 0)
            if code != 0:
                os.write(results, b"failed\n")
        status = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        dirs.remove()
        os._exit(status)


def _cold_build(workload, workdir, results):
    """Build one store, report its reference seconds on ``results``; exits."""
    status = 1
    try:
        store, timing = hostspeed.timed(workload.build, workdir)
        store.close()
        shutil.rmtree(workdir, ignore_errors=True)
        os.write(results, f"{timing.seconds!r}\n".encode())
        status = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def _traced_execute(tracer, workload, store, inputs):
    with tracer.root("bench.run"):
        return workload.execute(store, inputs)


def checked_run(workload, store, seed, tracer=None):
    """(hostspeed.Timing of the timed calls, RunOutcome)."""
    inputs = None
    try:
        inputs = workload.prepare(store, seed)
        if tracer is None:
            raw, timing = hostspeed.timed(workload.execute, store, inputs)
        else:
            raw, timing = hostspeed.timed_between(_traced_execute, tracer,
                                                  workload, store, inputs)
        return timing, workload.outcome(store, inputs, raw)
    except Exception:  # a raised query fails the run; report, don't die
        traceback.print_exc()
        attempted = inputs["expected"] if inputs else 1
        return hostspeed.Timing(0.0, 1.0), workloads.RunOutcome(
            attempted=attempted, problems=["run raised; see stderr"])


def pin_digests(workload, seeds, dirs: Workdirs) -> dict:
    """Outcome digest per seed, one untimed run each, for pinned.json."""
    out, store = {}, None
    for seed in seeds:
        if store is None or workload.fresh_store:
            if store is not None:
                store.close()
            store = workload.build(dirs.new())
        _, outcome = checked_run(workload, store, seed)
        if outcome.problems:
            raise RuntimeError(f"seed {seed}: {outcome.problems}")
        out[str(seed)] = outcome.digest
    store.close()
    return {"digests": out}


def _executor_metrics(tracer) -> dict:
    """Loop time the executor reports about itself, against run()'s span."""
    stats = [ex.stats() for ex in tracer.executors]
    run_s = sum(s[5] - s[4] for s in tracer.spans
                if s[2] == "query.run")
    loop_s = sum(s.wall_seconds for s in stats)
    events = sum(s.events for s in stats)
    return {
        "query.loop_s": loop_s,
        "query.run_outside_loop_s": run_s - loop_s,
        "query.events": events,
        "query.events_per_s": events / run_s if run_s else 0.0,
        "query.fastpath_runs": sum(1 for s in stats if s.core == "fastpath"),
    }


def measure(workload, seed: int, seconds: float, cold, setups: int,
            trace: bool, dirs: Workdirs, out: str) -> dict:
    tracer = tracing.Tracer(f"{workload.name}/seed{seed}") if trace else None
    traced_store = None
    if tracer is not None:
        with tracer.root("bench.setup"):
            traced_store = workload.build(dirs.new())

    store = None
    outcomes = []

    def one_run(w):
        nonlocal store
        if store is None or w.fresh_store:
            if store is not None:
                store.close()
            store = w.build(dirs.new())
        timing, outcome = checked_run(w, store, seed)
        outcomes.append(outcome)
        return timing

    # Warm-up: the same code paths at smoke scale, so lazy set-up finishes
    # before anything is timed.  Workloads that keep their store build the
    # same store at both scales.
    one_run(workloads.make(workload.name, "smoke"))
    # Timed runs, the fresh stores they need and the cold builds that come
    # due between them share ``seconds``: no run starts that would end more
    # than half a run past it if it took as long as the last one.  With
    # ``trace`` the traced run is budgeted in too, at TRACE_COST untraced
    # runs.
    timings, cycle = [], 0.0
    start = perf_counter()
    while not outcomes[-1].problems:
        elapsed = perf_counter() - start
        reserve = cycle / 2 + (TRACE_COST * timings[-1].host_s
                               if trace and timings else 0.0)
        if len(timings) >= MIN_RUNS and elapsed + reserve > seconds:
            break
        t0 = perf_counter()
        timings.append(one_run(workload))
        if cold is not None:
            done = (perf_counter() - start) / seconds if seconds else 1.0
            cold.build_until(math.ceil(setups * min(1.0, done)))
        cycle = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    store.close()
    if cold is not None:
        cold.build_until(setups)

    walls = [t.seconds for t in timings]
    result = {"walls": walls, "setups": cold.times if cold else [],
              "peak_rss_mb": peak_rss_mb, "sim": outcomes[-1].sim}
    traced = None
    if tracer is not None and not outcomes[-1].problems:
        traced_timing, traced = checked_run(workload, traced_store, seed,
                                            tracer)
        log = os.path.join(traced_store.workdir, "segments.vstore")
        traced_store.close()
        layers = tracer.layer_metrics()
        layers.update(_executor_metrics(tracer))
        layers.update({k: v for k, v in traced.sim.items()
                       if k.startswith(("sim.", "storage."))})
        log_bytes = os.stat(log).st_size
        layers["storage.log_bytes"] = log_bytes
        layers["storage.write_amp"] = (log_bytes / tracer.value_bytes
                                       if tracer.value_bytes else 0.0)
        layers["bench.host_wall_s"] = statistics.mean(
            t.host_s for t in timings)
        layers["bench.host_slowdown"] = statistics.mean(
            t.slowdown for t in timings)
        layers["bench.trace_overhead"] = (
            traced_timing.seconds / statistics.mean(walls))
        spans = os.path.join(out, "spans",
                             f"{workload.name}-seed{seed}-{os.getpid()}.jsonl")
        tracer.write(spans)
        result.update(layers=layers, spans=spans,
                      largest_layer=tracer.largest_layer())
    elif traced_store is not None:
        traced_store.close()

    digests = sorted({o.digest for o in outcomes[1:] if not o.problems})
    if traced is not None:
        outcomes.append(traced)
        result["traced_digest"] = traced.digest
    problems = [p for o in outcomes for p in o.problems]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if len(digests) > 1 or (traced is not None and not traced.problems
                            and [traced.digest] != digests):
        problems.append(f"outcome digests differ between runs: untraced "
                        f"{digests}, traced {result.get('traced_digest')}")
        failed = attempted
    result.update(digest=digests[0] if len(digests) == 1 else "",
                  attempted=attempted, failed=failed, problems=problems)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("measure", "digests"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", default="0-0",
                        help="first-last seed, inclusive")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setups", type=int, default=0,
                        help="cold builds to time")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.scale)
    dirs = Workdirs(args.out, workload.name)
    # Forked first, while no store has been touched.
    cold = ColdBuilds(workload, args.out) if args.setups else None
    try:
        if args.mode == "digests":
            first, last = map(int, args.seeds.split("-"))
            result = pin_digests(workload, range(first, last + 1), dirs)
        else:
            result = measure(workload, args.seed, args.seconds, cold,
                             args.setups, args.trace, dirs, args.out)
    finally:
        if cold is not None:
            cold.close()
        dirs.remove()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
