"""Multi-core fleet execution: independent fleets across worker processes.

The simulator is single-threaded by construction — one
:class:`~repro.clock.SimClock`, one executor, one event loop — so a sweep
that runs *many independent fleets* (the scale benchmarks, parameter
sweeps, the planned open-loop harness) serializes on one core no matter
how fast the per-fleet hot path gets.  Fleets that share nothing are
embarrassingly parallel: this module forks worker processes, gives each
fleet its own fresh ``SimClock`` and executor, and merges the resulting
:class:`~repro.analysis.concurrency.ConcurrencyReport`s.

Isolation rules (what makes the parallelism sound):

* every fleet gets a **fresh SimClock** and a fresh executor — no
  simulated state crosses fleets, so results are bit-identical to
  running the fleets one after another in a single process (which is
  exactly what ``parallel=1`` does, and what the determinism test pins);
* fleets run **without a cache plane**: a shared cache is cross-fleet
  state, and forked copies would silently diverge from any serial run —
  pass ``cache=...`` and the dispatch refuses rather than lies;
* each worker re-opens the store's backing log file after the fork
  (:meth:`KVStore.reopen_after_fork <repro.storage.kvstore.KVStore.
  reopen_after_fork>`): the forked file handle shares one seek offset
  with every sibling, and plan admission reads segment metadata, so
  concurrent ``seek``/``read`` on the inherited handle would race.

Workers communicate results over pipes as pickled reports;
``ConcurrencyReport`` is a frozen dataclass tree of plain values, so the
payload is small regardless of fleet size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.analysis.concurrency import ConcurrencyReport, concurrency_report
from repro.clock import SimClock
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.store import VStore

__all__ = ["run_fleets", "merge_reports"]


def _run_one_fleet(store: "VStore", specs: Sequence[dict],
                   executor_kwargs: dict) -> ConcurrencyReport:
    """Admit and run one fleet on a fresh clock; returns its report.

    Admission is the store's plan-memo walk, but the run stays off
    ``VStore._run``: a forked worker must not feed the parent's drift
    window or replace its ``last_run``.
    """
    ex = store.executor(clock=SimClock(), cache=None, **executor_kwargs)
    store._admit_specs(ex, specs)
    outcomes = ex.run()
    return concurrency_report(outcomes, ex.stats())


def _worker(store: "VStore", fleets: Sequence[Sequence[dict]],
            indices: List[int], executor_kwargs: dict, conn) -> None:
    """Worker-process body: run the assigned fleets, ship the reports."""
    store.reopen_after_fork()
    try:
        results = [(i, _run_one_fleet(store, fleets[i], executor_kwargs))
                   for i in indices]
        conn.send(("ok", results))
    except BaseException as exc:  # surface the failure in the parent
        conn.send(("error", repr(exc)))
    finally:
        conn.close()


def run_fleets(store: "VStore", fleets: Sequence[Sequence[dict]],
               parallel: int, **executor_kwargs) -> List[ConcurrencyReport]:
    """Run independent fleets across ``parallel`` worker processes.

    ``fleets`` is a sequence of fleets, each a sequence of admission
    specs (the same mapping shape :meth:`VStore.execute_many
    <repro.core.store.VStore.execute_many>` takes).  Reports come back
    in fleet order.  ``parallel=1`` (or a single fleet) runs in-process
    — same fresh-clock-per-fleet semantics, so the results are
    bit-identical to any parallel schedule.
    """
    if parallel < 1:
        raise QueryError(f"need at least one worker: parallel={parallel}")
    if "cache" in executor_kwargs:
        raise QueryError(
            "parallel fleets run without a cache plane: a cache shared "
            "across worker processes cannot stay coherent, and forked "
            "copies would diverge from a serial run"
        )
    if "clock" in executor_kwargs:
        raise QueryError(
            "parallel fleets each get a fresh SimClock; a shared clock "
            "would serialize them in simulated time"
        )
    fleets = [list(f) for f in fleets]
    n_workers = min(parallel, len(fleets))
    if n_workers <= 1:
        return [_run_one_fleet(store, f, executor_kwargs) for f in fleets]

    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    # Flush the backing log in the parent so no worker inherits pending
    # buffered writes it could double-flush on exit.
    store.flush()
    partitions: List[List[int]] = [[] for _ in range(n_workers)]
    for i in range(len(fleets)):  # round-robin keeps partitions balanced
        partitions[i % n_workers].append(i)
    procs: List[Tuple[object, object]] = []
    for indices in partitions:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker,
            args=(store, fleets, indices, executor_kwargs, child_conn),
        )
        proc.start()
        child_conn.close()
        procs.append((proc, parent_conn))
    results: Dict[int, ConcurrencyReport] = {}
    errors: List[str] = []
    for proc, conn in procs:
        try:
            status, payload = conn.recv()
        except EOFError:
            status, payload = "error", "worker exited without a result"
        if status == "ok":
            results.update(payload)
        else:
            errors.append(payload)
        proc.join()
    if errors:
        raise QueryError(
            f"{len(errors)} of {n_workers} fleet workers failed: "
            + "; ".join(errors)
        )
    return [results[i] for i in range(len(fleets))]


def merge_reports(reports: Sequence[ConcurrencyReport],
                  wall_seconds: Optional[float] = None) -> ConcurrencyReport:
    """Merge per-fleet reports into one aggregate view.

    Rows concatenate, events sum, and the makespan is the slowest
    fleet's (fleets are concurrent in simulated time by construction —
    each started at its own t=0).  Per-resource utilization is averaged
    weighted by fleet makespan, i.e. total busy time over total
    simulated time.  ``wall_seconds`` should be the measured elapsed
    time of the whole parallel run — events/s over it is the aggregate
    scheduling throughput; it defaults to the sum of the per-fleet
    walls (the serial-equivalent accounting).
    """
    if not reports:
        raise ValueError("no reports to merge")
    rows = tuple(row for r in reports for row in r.rows)
    utilization: Dict[str, Optional[float]] = {}
    for name in reports[0].utilization:
        fracs = [(r.utilization.get(name), r.makespan) for r in reports]
        if any(f is None for f, _ in fracs):
            utilization[name] = None  # unbounded in at least one fleet
        else:
            total_time = sum(m for _, m in fracs)
            utilization[name] = (
                sum(f * m for f, m in fracs) / total_time
                if total_time > 0 else 0.0
            )
    cores = {r.core for r in reports}
    return ConcurrencyReport(
        policy=reports[0].policy,
        n_queries=sum(r.n_queries for r in reports),
        makespan=max(r.makespan for r in reports),
        rows=rows,
        utilization=utilization,
        core=cores.pop() if len(cores) == 1 else "mixed",
        events=sum(r.events for r in reports),
        wall_seconds=(wall_seconds if wall_seconds is not None
                      else sum(r.wall_seconds for r in reports)),
    )
