"""Command-line interface: ``python -m repro <command>``.

Commands cover the common operator workflows:

* ``configure`` — run the backward derivation and print the Table-3-style
  configuration;
* ``query`` — estimate end-to-end speed for a benchmark query;
* ``ingest`` — transcode a stream's segments into an on-disk store;
* ``execute`` — actually run a query over stored segments;
* ``datasets`` — list the built-in benchmark streams;
* ``evolve`` — run the two-phase query-mix drift scenario and report
  retrieval cost against frozen and oracle plans (``--online`` adds the
  live evolution arm);
* ``focus`` — evaluate the Section-7 Focus comparison model;
* ``bench-diff`` — compare two BENCH.json runs and gate on throughput
  regressions;
* ``trace`` — run a traced concurrent fleet and print its critical-path
  summary (``trace``) or export the full observability bundle — Chrome
  trace JSON plus JSONL analytics tables (``trace export``);
* ``metrics`` — run a fleet and print the always-on metrics registry.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.cache import format_cache_table
from repro.analysis.focus import FocusComparison
from repro.analysis.sharding import format_sharding_table
from repro.analysis.tables import (
    format_configuration_table,
    format_erosion_table,
)
from repro.cache import CacheConfig, POLICIES, TierConfig
from repro.core.store import VStore
from repro.storage.sharding import PLACEMENTS
from repro.ingest.budget import IngestBudget
from repro.operators.library import TABLE2_ORDER, default_library
from repro.query.scheduler import POLICIES as EXECUTOR_POLICIES
from repro.units import DAY, TB, fmt_bytes
from repro.video.datasets import DATASETS


def _cache_config(args: argparse.Namespace) -> "CacheConfig | None":
    cache_mb = getattr(args, "cache_mb", None)
    if cache_mb is None:
        # The other cache flags are meaningless without a budget; failing
        # beats silently running uncached.
        if getattr(args, "tiering", False):
            raise SystemExit("--tiering requires --cache-mb")
        if getattr(args, "cache_policy", None) is not None:
            raise SystemExit("--cache-policy requires --cache-mb")
        return None
    if cache_mb <= 0:
        raise SystemExit("--cache-mb must be positive")
    from repro.units import MB

    return CacheConfig(
        frame_capacity_bytes=cache_mb * MB,
        result_capacity_bytes=max(1.0, cache_mb / 4.0) * MB,
        policy=getattr(args, "cache_policy", None) or "lru",
        tiering=TierConfig() if getattr(args, "tiering", False) else None,
    )


def _build_store(args: argparse.Namespace) -> VStore:
    names = tuple(args.operators.split(",")) if args.operators else TABLE2_ORDER
    library = default_library(names=names)
    budget = IngestBudget(args.ingest_cores)
    storage = None if args.storage_budget_tb is None else (
        args.storage_budget_tb * TB
    )
    if args.shards < 1:
        raise SystemExit("--shards must be at least 1")
    if args.replication < 1 or args.replication > args.shards:
        raise SystemExit("--replication must be between 1 and --shards")
    return VStore(
        workdir=getattr(args, "workdir", None),
        library=library,
        ingest_budget=budget,
        storage_budget_bytes=storage,
        lifespan_days=args.lifespan_days,
        cache_config=_cache_config(args),
        shards=args.shards,
        placement=args.placement,
        replication=args.replication,
    )


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--operators",
        default="Diff,S-NN,NN,Motion,License,OCR",
        help="comma-separated operator names (default: the six benchmark "
             "operators; empty for the full Table-2 library)",
    )
    parser.add_argument("--ingest-cores", type=float, default=None,
                        help="transcode-core budget per stream")
    parser.add_argument("--storage-budget-tb", type=float, default=None,
                        help="storage budget in TB (enables erosion)")
    parser.add_argument("--lifespan-days", type=int, default=10)
    parser.add_argument("--shards", type=int, default=1,
                        help="number of independent disk shards (1 keeps "
                             "the single-disk behavior)")
    parser.add_argument("--placement", choices=sorted(PLACEMENTS),
                        default="hash",
                        help="shard placement policy (default: hash; only "
                             "meaningful with --shards > 1)")
    parser.add_argument("--replication", type=int, default=1,
                        help="replicas per segment on distinct shards "
                             "(default: 1 = unreplicated; k > 1 survives "
                             "k-1 concurrent shard failures)")


def cmd_configure(args: argparse.Namespace) -> int:
    store = _build_store(args)
    config = store.configure()
    print(format_configuration_table(config))
    print()
    rate = config.plan.storage_bytes_per_second
    print(f"ingest cost:  {config.plan.ingest_cores:.2f} cores/stream")
    print(f"storage cost: {fmt_bytes(rate)}/s ({fmt_bytes(rate * DAY)}/day)")
    print(f"profiling:    {config.stats.operator_runs} operator runs, "
          f"{config.stats.coding_runs} coding runs, "
          f"{config.stats.total_seconds:.0f} s simulated")
    if args.storage_budget_tb is not None:
        print()
        print(format_erosion_table(config))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    store = _build_store(args)
    store.configure()
    report = store.query(args.query, dataset=args.dataset,
                         accuracy=args.accuracy, duration=args.duration)
    print(f"query {report.query} on {args.dataset} at accuracy "
          f"{args.accuracy}: {report.speed:.1f}x realtime")
    for stage in report.stages:
        print(f"  {stage.operator:>8}: {stage.fidelity.label:>24} "
              f"covers {stage.coverage * 100:5.1f}%  "
              f"effective {stage.effective_speed:10.1f}x")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    store = _build_store(args)
    with store:
        store.configure()
        store.ingest(args.dataset, n_segments=args.segments)
        total = store.segments.total_bytes()
        print(f"ingested {args.segments} segments of {args.dataset} into "
              f"{len(store.configuration.storage_formats)} formats "
              f"({fmt_bytes(total)} on disk)")
        if store.n_shards > 1:
            print()
            print(format_sharding_table(store.sharding_report()))
    return 0


def cmd_execute(args: argparse.Namespace) -> int:
    store = _build_store(args)
    with store:
        store.configure()
        for run in range(max(1, args.repeat)):
            result = store.execute(args.query, dataset=args.dataset,
                                   accuracy=args.accuracy,
                                   t0=args.t0, t1=args.t1,
                                   trace=args.trace)
            tag = "" if args.repeat <= 1 else f" (run {run + 1})"
            print(f"executed query {result.query} over "
                  f"{result.video_seconds:.0f}s of {args.dataset}: "
                  f"{result.speed:.1f}x realtime{tag}")
        for op, n in result.segments_per_stage.items():
            print(f"  {op:>8}: {n} segments, "
                  f"{result.positives_per_stage[op]} positives")
        if store.cache is not None:
            print()
            print(format_cache_table(store.cache_stats()))
        if store.n_shards > 1:
            print()
            print(format_sharding_table(store.sharding_report()))
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    from repro.analysis.drift import drift_regret_report, format_drift_table

    if args.phase2_queries <= args.detection_queries + 2:
        raise SystemExit("--phase2-queries must exceed --detection-queries "
                         "by at least 3")
    report = drift_regret_report(
        online=args.online,
        dataset=args.dataset,
        n_segments=args.segments,
        phase2_queries=args.phase2_queries,
        detection_queries=args.detection_queries,
        workdir=getattr(args, "workdir", None),
    )
    print(format_drift_table(report))
    return 0


def cmd_bench_diff(args: argparse.Namespace) -> int:
    from repro.analysis.bench import diff_bench, format_bench_diff, load_bench

    if not 0.0 <= args.tolerance < 1.0:
        raise SystemExit("--tolerance must be in [0, 1)")
    try:
        old = load_bench(args.old)
        new = load_bench(args.new)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"bench-diff: {exc}")
    diff = diff_bench(old, new, tolerance=args.tolerance)
    print(format_bench_diff(diff))
    return 0 if diff.ok else 1


def _run_observed_fleet(store: VStore, args: argparse.Namespace) -> None:
    """Run the requested homogeneous fleet with tracing forced on."""
    if args.queries < 1:
        raise SystemExit("--queries must be at least 1")
    spec = {"query": args.query, "dataset": args.dataset,
            "accuracy": args.accuracy, "t0": args.t0, "t1": args.t1}
    store.execute_many([dict(spec) for _ in range(args.queries)],
                       trace=True)


def cmd_trace(args: argparse.Namespace) -> int:
    store = _build_store(args)
    with store:
        store.configure()
        _run_observed_fleet(store, args)
        obs = store.observability()
        if args.action == "export":
            written = obs.export(args.outdir, bench_path=args.bench)
            for name in sorted(written):
                print(f"{name:>14}: {written[name]}")
        else:
            print(obs.summary())
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.analysis.obs import format_metrics_table

    store = _build_store(args)
    with store:
        store.configure()
        _run_observed_fleet(store, args)
        print(format_metrics_table(store.metrics.snapshot()))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.analysis.slo import format_slo_table
    from repro.query.scheduler import AdmissionConfig
    from repro.query.workload import ArrivalSpec, QueryMixEntry, TenantSpec

    if args.tenants < 1:
        raise SystemExit("--tenants must be at least 1")
    if args.horizon <= 0:
        raise SystemExit("--horizon must be positive")
    mix = (QueryMixEntry(query=args.query, dataset=args.dataset,
                         accuracy=args.accuracy, t0=args.t0, t1=args.t1),)
    tenants = [
        TenantSpec(name=f"tenant{i}",
                   arrivals=ArrivalSpec(kind=args.arrival, rate=args.rate),
                   mix=mix, slo_seconds=args.slo)
        for i in range(args.tenants)
    ]
    admission = None
    if args.max_in_flight is not None:
        admission = AdmissionConfig(max_in_flight=args.max_in_flight,
                                    queue_policy=args.queue_policy)
    store = _build_store(args)
    with store:
        store.configure()
        report = store.serve(tenants, horizon=args.horizon, seed=args.seed,
                             admission=admission, failures=args.failures,
                             policy=args.policy)
        print(format_slo_table(report.slo))
        if report.availability is not None:
            from repro.analysis.availability import format_availability_table

            print()
            print(format_availability_table(report.availability))
        stats = report.stats
        print(f"executor [{stats.core}]: {stats.events} events in "
              f"{stats.total_wall_seconds:.3f}s real "
              f"({stats.events_per_second:,.0f} events/s)")
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    for name, ds in DATASETS.items():
        print(f"{name:>9} [{ds.kind}] {ds.description}")
    return 0


def cmd_focus(args: argparse.Namespace) -> int:
    model = FocusComparison(alpha=args.alpha)
    r = model.query_delay_ratio(args.selectivity)
    print(f"selectivity {args.selectivity:.2%}: VStore/Focus query delay "
          f"ratio r = {r:.2f}")
    print(f"ingest hardware: Focus costs {model.ingest_cost_ratio():.1f}x "
          f"VStore per stream")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VStore: a data store for analytics on large videos "
                    "(EuroSys'19 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("configure", help="derive and print a configuration")
    _add_store_arguments(p)
    p.set_defaults(func=cmd_configure)

    p = sub.add_parser("query", help="estimate a query's speed")
    _add_store_arguments(p)
    p.add_argument("query", choices=("A", "B"))
    p.add_argument("--dataset", default="jackson", choices=sorted(DATASETS))
    p.add_argument("--accuracy", type=float, default=0.9)
    p.add_argument("--duration", type=float, default=3600.0)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("ingest", help="ingest segments into a workdir store")
    _add_store_arguments(p)
    p.add_argument("--workdir", required=True)
    p.add_argument("--dataset", default="jackson", choices=sorted(DATASETS))
    p.add_argument("--segments", type=int, default=8)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("execute", help="run a query over stored segments")
    _add_store_arguments(p)
    p.add_argument("query", choices=("A", "B"))
    p.add_argument("--workdir", required=True)
    p.add_argument("--dataset", default="jackson", choices=sorted(DATASETS))
    p.add_argument("--accuracy", type=float, default=0.9)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=64.0)
    p.add_argument("--cache-mb", type=float, default=None,
                   help="enable the tiered retrieval cache with this many "
                        "MB of decoded-frame capacity")
    p.add_argument("--cache-policy", choices=sorted(POLICIES), default=None,
                   help="eviction policy of the cache tiers (default: lru; "
                        "requires --cache-mb)")
    p.add_argument("--tiering", action="store_true",
                   help="enable hot-segment promotion to a fast disk tier")
    p.add_argument("--repeat", type=int, default=1,
                   help="run the query this many times (shows warm-cache "
                        "speedup with --cache-mb)")
    p.add_argument("--trace", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force per-event trace recording on (--trace) or "
                        "off (--no-trace); default records only for fleets "
                        "of up to 64 queries")
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser(
        "evolve",
        help="two-phase drift scenario: frozen vs oracle retrieval cost, "
             "optionally with the online-evolution arm",
    )
    p.add_argument("--online", action="store_true",
                   help="run the online-evolution arm: detect drift, "
                        "re-plan incrementally, and materialize new "
                        "formats with background jobs contending with "
                        "foreground queries")
    p.add_argument("--dataset", default="jackson", choices=sorted(DATASETS))
    p.add_argument("--segments", type=int, default=4)
    p.add_argument("--phase2-queries", type=int, default=20)
    p.add_argument("--detection-queries", type=int, default=4,
                   help="phase-2 queries the drift detector observes at "
                        "frozen-plan cost before evolution triggers")
    p.add_argument("--workdir", default=None,
                   help="host the three per-arm stores here (default: a "
                        "cleaned-up temporary directory)")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser(
        "serve",
        help="serve an open-loop multi-tenant workload with SLO-aware "
             "admission; print latency quantiles, miss rates and fairness",
    )
    _add_store_arguments(p)
    p.add_argument("--workdir", required=True,
                   help="store with previously ingested segments "
                        "(see the ingest command)")
    p.add_argument("--query", choices=("A", "B"), default="B")
    p.add_argument("--dataset", default="jackson", choices=sorted(DATASETS))
    p.add_argument("--accuracy", type=float, default=0.9)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=16.0)
    p.add_argument("--tenants", type=int, default=2,
                   help="identical tenants sharing the store (default: 2)")
    p.add_argument("--arrival", choices=("poisson", "bursty", "diurnal"),
                   default="poisson",
                   help="arrival process per tenant (default: poisson)")
    p.add_argument("--rate", type=float, default=0.5,
                   help="mean arrivals per simulated second per tenant")
    p.add_argument("--horizon", type=float, default=120.0,
                   help="simulated seconds of arrivals (default: 120)")
    p.add_argument("--slo", type=float, default=None,
                   help="per-tenant SLO in simulated seconds; each query's "
                        "deadline is its arrival + SLO")
    p.add_argument("--max-in-flight", type=int, default=None,
                   help="admission control: bound on concurrently running "
                        "queries (default: unbounded, no admission queue)")
    p.add_argument("--queue-policy", choices=("arrival", "edf", "wfair"),
                   default="arrival",
                   help="admission-queue order (requires --max-in-flight)")
    p.add_argument("--failures", default=None,
                   help="failure campaign on the workload timeline, e.g. "
                        "'fail@10:0,degrade@10:1:8,recover@60:0' "
                        "(action@t:shard[:factor]); prints an availability "
                        "report alongside the SLO table")
    p.add_argument("--policy", choices=EXECUTOR_POLICIES, default="fifo",
                   help="resource scheduling policy inside the executor")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("datasets", help="list the benchmark streams")
    p.set_defaults(func=cmd_datasets)

    p = sub.add_parser("focus", help="Section-7 Focus comparison model")
    p.add_argument("--selectivity", type=float, default=0.10)
    p.add_argument("--alpha", type=float, default=1 / 48)
    p.set_defaults(func=cmd_focus)

    for name, help_text in (
        ("trace", "run a traced fleet; print its critical-path summary or "
                  "export the observability bundle (trace export)"),
        ("metrics", "run a fleet and print the always-on metrics registry"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_store_arguments(p)
        if name == "trace":
            p.add_argument("action", nargs="?", choices=("summary", "export"),
                           default="summary",
                           help="summary (default) prints critical-path, "
                                "queue-depth and metrics tables; export "
                                "writes chrome_trace.json plus the JSONL "
                                "analytics tables into --outdir")
        p.add_argument("--query", choices=("A", "B"), default="A")
        p.add_argument("--workdir", required=True,
                       help="store with previously ingested segments "
                            "(see the ingest command)")
        p.add_argument("--dataset", default="jackson",
                       choices=sorted(DATASETS))
        p.add_argument("--accuracy", type=float, default=0.9)
        p.add_argument("--t0", type=float, default=0.0)
        p.add_argument("--t1", type=float, default=64.0)
        p.add_argument("--queries", type=int, default=4,
                       help="fleet width: how many copies of the query run "
                            "concurrently (default: 4)")
        if name == "trace":
            p.add_argument("--outdir", default="obs_out",
                           help="directory the export bundle is written "
                                "into (default: obs_out)")
            p.add_argument("--bench", default=None,
                           help="also flatten this BENCH.json into a "
                                "bench_history analytics table")
            p.set_defaults(func=cmd_trace)
        else:
            p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "bench-diff",
        help="compare two BENCH.json runs; exit 1 on throughput regression",
    )
    p.add_argument("old", help="baseline BENCH.json (e.g. the committed "
                               "benchmarks/BENCH_BASELINE.json)")
    p.add_argument("new", help="fresh BENCH.json to compare against it")
    p.add_argument("--tolerance", type=float, default=0.30,
                   help="allowed fractional events/s drop before a cell "
                        "counts as a regression (default: 0.30)")
    p.set_defaults(func=cmd_bench_diff)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
