"""Multi-tenant contention sweep: 1-16 concurrent queries over 1-8 streams.

The paper measures single queries against an idle store; a deployed store
serves many analytics queries over many cameras at once.  This sweep runs
the concurrent executor over a simulated camera fleet (the six datasets
aliased onto eight streams) against constrained shared resources — one
disk I/O channel pool, a two-context decoder, four operator contexts — and
records how per-query slowdown grows with the number of concurrent
queries: the contention curve the single-query numbers hide.

Slowdown is measured per query as contended latency over its own
uncontended serial service time, so no isolated re-runs are needed.
"""

import pytest

from repro.analysis import concurrency_report
from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.operators.library import default_library
from repro.query.cascade import QUERY_A, QUERY_B
from repro.query.scheduler import OperatorContextPool
from repro.storage.disk import DiskBandwidthPool
from repro.video.datasets import DATASETS

N_QUERIES = (1, 2, 4, 8, 16)
N_STREAMS = (1, 2, 4, 8)
SEGMENTS_PER_STREAM = 4  # 32 s of footage per camera
QUERY_SPAN = 32.0

#: Eight fleet cameras, round-robin over the six dataset content models.
FLEET = [(f"cam{i:02d}", list(DATASETS)[i % len(DATASETS)]) for i in range(8)]


@pytest.fixture(scope="module")
def fleet_store(tmp_path_factory):
    library = default_library(
        names=("Diff", "S-NN", "NN", "Motion", "License", "OCR")
    )
    with VStore(workdir=str(tmp_path_factory.mktemp("fleet")),
                library=library) as store:
        store.configure()
        for stream, dataset in FLEET:
            store.ingest(dataset, n_segments=SEGMENTS_PER_STREAM,
                         stream=stream)
        yield store


def _run(store, n_queries, n_streams):
    """One cell of the sweep: admit, run, report."""
    executor = store.executor(
        policy="fifo",
        disk_pool=DiskBandwidthPool(1),
        decoder_pool=DecoderPool(2),
        operator_pool=OperatorContextPool(4),
    )
    for i in range(n_queries):
        stream, dataset = FLEET[i % n_streams]
        query = QUERY_A if dataset in ("jackson", "miami", "tucson") else QUERY_B
        executor.admit(query, dataset, 0.9, 0.0, QUERY_SPAN, stream=stream)
    outcomes = executor.run()
    return concurrency_report(outcomes, executor.stats())


def test_contention_sweep(benchmark, record, fleet_store):
    reports = {}
    for n in N_QUERIES:
        for m in N_STREAMS:
            reports[(n, m)] = _run(fleet_store, n, m)
    # time the heaviest cell for the perf trajectory
    benchmark.pedantic(
        lambda: _run(fleet_store, max(N_QUERIES), max(N_STREAMS)),
        rounds=1, iterations=1,
    )

    lines = [f"{'queries':>8} {'streams':>8} {'mean slowdn':>12} "
             f"{'max slowdn':>11} {'fairness':>9} {'makespan':>9} "
             f"{'decoder':>8} {'disk':>6}"]
    for (n, m), report in sorted(reports.items()):
        dec = report.utilization["decoder"]
        dsk = report.utilization["disk"]
        lines.append(
            f"{n:>8} {m:>8} {report.mean_slowdown:>11.2f}x "
            f"{report.max_slowdown:>10.2f}x {report.fairness:>9.3f} "
            f"{report.makespan:>8.3f}s {dec:>7.0%} {dsk:>5.0%}"
        )
    record("Concurrent queries — contention sweep", "\n".join(lines))

    # A lone query is never slowed, whatever the fleet size.
    for m in N_STREAMS:
        assert reports[(1, m)].mean_slowdown == pytest.approx(1.0)
    # The acceptance cell: 16 queries over 8 streams on constrained pools
    # must show real contention-induced slowdown for every query.
    worst = reports[(16, 8)]
    assert worst.mean_slowdown > 1.0
    assert all(row.slowdown > 1.0 for row in worst.rows)
    # Contention grows with concurrency: the full fleet under 16 queries
    # is strictly worse than under 2, which is worse than a lone query.
    assert (worst.mean_slowdown
            > reports[(2, 8)].mean_slowdown
            > reports[(1, 8)].mean_slowdown - 1e-9)
    # Sharing never loses throughput: the concurrent makespan stays below
    # running the same queries back to back.
    serial = sum(row.service for row in worst.rows)
    assert worst.makespan < serial
    # Fairness stays meaningful under FIFO round-robin dynamics.
    assert worst.fairness > 0.5


def test_policies_agree_on_total_work(record, fleet_store):
    """Whatever the policy, the same tasks run — only waiting shifts."""

    def busy_under(policy):
        executor = fleet_store.executor(
            policy=policy, decoder_pool=DecoderPool(1)
        )
        for i in range(6):
            stream, dataset = FLEET[i]
            query = (QUERY_A if dataset in ("jackson", "miami", "tucson")
                     else QUERY_B)
            executor.admit(query, dataset, 0.9, 0.0, QUERY_SPAN,
                           stream=stream, deadline=float(i))
        executor.run()
        return executor.stats()

    stats = {p: busy_under(p) for p in ("fifo", "fair", "edf")}
    reference = stats["fifo"].busy_seconds
    for name, stat in stats.items():
        for resource, busy in stat.busy_seconds.items():
            assert busy == pytest.approx(reference[resource]), (name, resource)
    lines = [f"{'policy':>8} {'makespan':>9}"]
    for name, stat in stats.items():
        lines.append(f"{name:>8} {stat.makespan:>8.3f}s")
    record("Concurrent queries — policy makespans", "\n".join(lines))
