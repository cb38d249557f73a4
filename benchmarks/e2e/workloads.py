"""The benchmark's four workloads, driven through VStore's public API.

Each workload builds a store (the set-up that ``setup_s`` times), turns a
seed into inputs, runs the timed calls, and checks what came back.  The
seed feeds every generator: the serving workloads' arrival streams and
``serve(seed=)``'s query-mix draws, and a ``random.Random(seed)`` that
draws stream assignment and admission order for the other two.  The
store sees only the generated inputs.

Sizes come in two scales: ``full`` is what the benchmark measures,
``smoke`` is the same code path shrunk for the harness test.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.slo import percentile
from repro.codec.decoder import DecoderPool
from repro.core import evolve
from repro.core.store import VStore
from repro.operators.library import Consumer, default_library
from repro.query.cascade import QUERY_A
from repro.query.scheduler import AdmissionConfig, OperatorContextPool
from repro.query.workload import (
    ArrivalSpec,
    QueryMixEntry,
    TenantSpec,
    bursty_arrivals,
    poisson_arrivals,
)
from repro.storage.disk import DiskBandwidthPool
from repro.units import SEGMENT_SECONDS

SCALES = ("full", "smoke")
DATASET = "jackson"
LIBRARY = ("Diff", "S-NN", "NN", "Motion", "License", "OCR")
SHARDS = 4

#: Disk channels per shard, decoder contexts, operator contexts.
POOLS = dict(disk_pool=DiskBandwidthPool(1), decoder_pool=DecoderPool(2),
             operator_pool=OperatorContextPool(4))
ADMISSION = AdmissionConfig(max_in_flight=6, queue_policy="edf")

PHASE1 = (Consumer("Motion", 0.9), Consumer("License", 0.9),
          Consumer("OCR", 0.9))
PHASE2 = (Consumer("Diff", 0.9), Consumer("S-NN", 0.9), Consumer("NN", 0.9))


def first_arrivals(generate, n: int, rate: float) -> List[float]:
    """The first ``n`` arrivals of a seeded process.

    A stream's prefix does not depend on the horizon it is cut at, so the
    horizon doubles until ``n`` arrivals fit.
    """
    horizon = 2.0 * n / rate
    while True:
        times = generate(horizon)
        if len(times) >= n:
            return times[:n]
        horizon *= 2.0


def tenants(seed: int, gold: int, bronze: int, gold_rate: float,
            bronze_rate: float) -> List[TenantSpec]:
    """Gold runs query B on 16-s windows; bronze bursts query A on 64-s ones.

    Gold arrives as a Poisson process, bronze as a two-state MMPP with 4x
    bursts, each seeded by ``(seed, tenant)`` and cut after exactly
    ``gold`` and ``bronze`` arrivals, so the seed moves when queries
    arrive but not how much work there is.  The windows start at 0, 64,
    128 and 192 s, spread over the 32 stored segments (256 s).
    """
    starts = (0.0, 64.0, 128.0, 192.0)
    gold_times = first_arrivals(
        lambda h: poisson_arrivals(gold_rate, h, (seed, "gold")),
        gold, gold_rate)
    bronze_times = first_arrivals(
        lambda h: bursty_arrivals(bronze_rate, 4.0 * bronze_rate, h,
                                  (seed, "bronze")),
        bronze, bronze_rate)
    return [
        TenantSpec(
            name="gold",
            arrivals=ArrivalSpec(kind="trace", trace=tuple(gold_times)),
            mix=tuple(QueryMixEntry("B", DATASET, 0.9, t, t + 16.0)
                      for t in starts),
            slo_seconds=5.0,
        ),
        TenantSpec(
            name="bronze",
            arrivals=ArrivalSpec(kind="trace", trace=tuple(bronze_times)),
            mix=tuple(QueryMixEntry("A", DATASET, accuracy, t, t + 64.0)
                      for accuracy in (0.8, 0.9) for t in starts),
            slo_seconds=15.0,
        ),
    ]


@dataclass
class RunOutcome:
    """What one run produced, after its checks."""

    attempted: int
    problems: List[str] = field(default_factory=list)
    digest: str = ""
    #: Simulated metrics (``sim.*``) and storage counts.
    sim: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """A failed check fails every query of the run."""
        return self.attempted if self.problems else 0


def outcome_digest(runs, counts: Dict[str, object]) -> str:
    """sha256 over every outcome of every executor run, plus ``counts``.

    Each outcome contributes its qid, tenant, label, stream, arrival,
    finish and latency; floats enter through ``repr``, so any change in
    the last bit changes the digest.
    """
    h = hashlib.sha256()
    for phase, outcomes in enumerate(runs):
        for o in outcomes:
            s = o.session
            h.update(repr((phase, s.qid, s.tenant, s.label, s.stream,
                           s.arrival_at, s.finished_at, o.latency)).encode())
    h.update(repr(sorted(counts.items())).encode())
    return h.hexdigest()


def completion_problems(outcomes, expected: int) -> List[str]:
    """Every admitted query completed exactly once with a finite latency."""
    problems = []
    if [o.session.qid for o in outcomes] != list(range(len(outcomes))):
        problems.append("outcomes are not one per admitted session")
    unfinished = [o.session.qid for o in outcomes
                  if o.session.finished_at is None
                  or not math.isfinite(o.latency) or o.latency < 0]
    if unfinished:
        problems.append(f"{len(unfinished)} sessions without a finite "
                        f"latency, first qid {unfinished[0]}")
    foreground = sum(1 for o in outcomes if o.session.klass == 0)
    if foreground != expected:
        problems.append(f"{foreground} queries completed, {expected} "
                        f"admitted")
    return problems


def _quantile(values: List[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def sim_metrics(runs, stats, slo=None, availability=None) -> Dict[str, float]:
    """Simulated-time numbers of one workload run.

    ``runs`` holds the outcome list of every executor run the workload
    made; each starts its own clock at 0, so their spans add up.
    ``stats`` is the main run's ExecutorStats (pool utilisation).
    """
    foreground = [o for run in runs for o in run if o.session.klass == 0]
    latency = [o.latency for o in foreground]
    deadlines = [o for o in foreground if o.session.deadline is not None]

    def util(resource: str) -> float:
        values = [stats.utilization(name) for name in stats.capacities
                  if name.split(":")[0] == resource]
        values = [v for v in values if v is not None]
        return sum(values) / len(values) if values else 0.0

    a = availability
    return {
        "sim.p50_s": _quantile(latency, 0.50),
        "sim.p99_s": _quantile(latency, 0.99),
        "sim.makespan_s": sum(max(o.session.finished_at for o in run)
                              for run in runs if run),
        "sim.miss_rate": (sum(1 for o in deadlines if not o.deadline_met)
                          / len(deadlines) if deadlines else 0.0),
        "sim.admission_wait_p99_s": _quantile(
            [o.queued_seconds for o in foreground], 0.99),
        "sim.service_p50_s": _quantile(
            [o.service_seconds for o in foreground], 0.50),
        "sim.peak_queued": slo.peak_queued if slo is not None else 0,
        "sim.util.disk": util("disk"),
        "sim.util.decoder": util("decoder"),
        "sim.util.operators": util("operators"),
        "sim.degraded_queries": a.degraded_queries if a else 0,
        "sim.degraded_slowdown": a.degraded_slowdown if a else 0.0,
        "sim.rebuild_s": (a.rebuild_seconds or 0.0) if a else 0.0,
        "storage.replicas_rebuilt": a.replicas_rebuilt if a else 0,
        "storage.rebuilt_bytes": a.rebuilt_bytes if a else 0.0,
    }


class Workload:
    """A store shape plus the calls a run times on it."""

    name = ""
    #: Build a new store before every run (the build is not timed).
    fresh_store = False
    replication = 1
    consumers: Optional[tuple] = None
    segments = 32

    def __init__(self, scale: str):
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; known: {SCALES}")
        self.scale = scale

    @property
    def streams(self) -> tuple:
        """Stream aliases to ingest; None stores under the dataset name."""
        return (None,)

    def build(self, workdir: str) -> VStore:
        """Cold set-up: construct, configure, ingest every stream, flush."""
        store = VStore(workdir=workdir, library=default_library(names=LIBRARY),
                       shards=SHARDS, replication=self.replication)
        store.configure(
            consumers=list(self.consumers) if self.consumers else None
        )
        for stream in self.streams:
            store.ingest(DATASET, n_segments=self.segments, stream=stream)
        store.flush()
        return store

    def prepare(self, store: VStore, seed: int) -> dict:
        """Untimed: the run's inputs, including ``expected`` query count."""
        raise NotImplementedError

    def execute(self, store: VStore, inputs: dict):
        """The timed calls."""
        raise NotImplementedError

    def outcome(self, store: VStore, inputs: dict, raw) -> RunOutcome:
        """Untimed: checks, digest and simulated metrics."""
        raise NotImplementedError


class ServeOpenloop(Workload):
    """Open-loop serve of two tenants under EDF admission.

    This is the path users call, and per-arrival planning dominates its
    host time, so a plan memo or faster planning shows here.
    """

    name = "serve_openloop"
    #: Arrivals per tenant, (gold, bronze).
    arrivals = {"full": (500, 500), "smoke": (12, 12)}
    #: Gold's Poisson rate and bronze's calm rate, in queries per second.
    rates = (1.2, 0.8)

    def prepare(self, store, seed):
        mix = tenants(seed, *self.arrivals[self.scale], *self.rates)
        last = max(t for tenant in mix for t in tenant.arrivals.trace)
        return {"tenants": mix, "horizon": last + 1.0, "seed": seed,
                "expected": sum(self.arrivals[self.scale])}

    def execute(self, store, inputs):
        return store.serve(inputs["tenants"], inputs["horizon"],
                           seed=inputs["seed"], admission=ADMISSION, **POOLS)

    def _counts(self, store, report) -> Dict[str, object]:
        return {}

    def _problems(self, store, report) -> List[str]:
        return []

    def outcome(self, store, inputs, report):
        problems = completion_problems(report.outcomes, inputs["expected"])
        problems += self._problems(store, report)
        return RunOutcome(
            attempted=inputs["expected"],
            problems=problems,
            digest=outcome_digest([report.outcomes],
                                  self._counts(store, report)),
            sim=sim_metrics([report.outcomes], report.stats, report.slo,
                            report.availability),
        )


class FailoverRebuild(ServeOpenloop):
    """The serving workload through a failure campaign, on a fresh store.

    Rebuild writes contend with degraded reads and arrivals are planned
    under the shard health at their instant, so a plan memo that ignores
    health, or a rebuild change that costs foreground latency, shows here.
    """

    name = "failover_rebuild"
    fresh_store = True
    replication = 2
    arrivals = {"full": (490, 510), "smoke": (15, 15)}
    rates = (1.0, 0.7)
    #: Fail shard 0 and degrade shard 1 6x, recover both, then fail shard
    #: 2 and recover it; the smoke scale runs it 20x faster.
    campaign_events = ((60.0, "fail", "0"), (60.0, "degrade", "1:6"),
                       (200.0, "recover", "0"), (200.0, "recover", "1"),
                       (300.0, "fail", "2"), (450.0, "recover", "2"))
    time_scale = {"full": 1.0, "smoke": 0.05}

    def campaign(self) -> str:
        scale = self.time_scale[self.scale]
        return ",".join(f"{kind}@{t * scale:g}:{args}"
                        for t, kind, args in self.campaign_events)

    def execute(self, store, inputs):
        return store.serve(inputs["tenants"], inputs["horizon"],
                           seed=inputs["seed"], admission=ADMISSION,
                           failures=self.campaign(), **POOLS)

    def _counts(self, store, report):
        a = report.availability
        return {"lost_keys": a.lost_keys, "replicas_rebuilt":
                a.replicas_rebuilt, "rebuild_jobs": a.rebuild_jobs,
                "degraded_queries": a.degraded_queries}

    def _problems(self, store, report):
        a = report.availability
        problems = []
        if a.lost_keys or store.disk_array.lost_keys():
            problems.append(f"{a.lost_keys} keys lost")
        if not a.replicas_rebuilt or a.replicas_rebuilt != a.rebuild_jobs:
            problems.append(f"{a.replicas_rebuilt} replicas rebuilt by "
                            f"{a.rebuild_jobs} rebuild jobs")
        short = [key for key, shards in
                 store.disk_array.replica_assignments().items()
                 if len(shards) != self.replication]
        if short:
            problems.append(f"{len(short)} keys not back to "
                            f"{self.replication} replicas, e.g. {short[0]}")
        return problems


class ClosedFleet(Workload):
    """A closed-loop fleet admitted at t=0 with plans precomputed per stream.

    Planning is bypassed and the executor core does the work, so a
    planning change should move nothing here.
    """

    name = "closed_fleet"
    segments = 16
    queries = {"full": 16384, "smoke": 128}
    window = (0.0, 64.0)

    @property
    def streams(self):
        return tuple(f"cam{i:02d}" for i in range(8))

    def prepare(self, store, seed):
        engine = store.engine(DATASET)
        plans = {s: engine.plan(QUERY_A, 0.9, store.segments, *self.window,
                                stream=s) for s in self.streams}
        rng = random.Random(seed)
        specs = [{"query": "A", "dataset": DATASET, "accuracy": 0.9,
                  "t0": self.window[0], "t1": self.window[1],
                  "stream": s, "plan": plans[s]}
                 for s in (rng.choice(self.streams)
                           for _ in range(self.queries[self.scale]))]
        return {"specs": specs, "expected": len(specs)}

    def execute(self, store, inputs):
        return store.execute_many(inputs["specs"], **POOLS)

    def outcome(self, store, inputs, outcomes):
        return RunOutcome(
            attempted=inputs["expected"],
            problems=completion_problems(outcomes, inputs["expected"]),
            digest=outcome_digest([outcomes], {}),
            sim=sim_metrics([outcomes], store.last_run.stats),
        )


class EvolveDrift(Workload):
    """Query-mix drift, a legacy stopgap, then online format evolution.

    Covers the write path (re-encode, format epochs, retirement) and the
    incremental planner, interleaved with foreground reads.
    """

    name = "evolve_drift"
    fresh_store = True
    consumers = PHASE1
    segments = 16
    queries = {"full": 32, "smoke": 4}
    n_streams = {"full": 16, "smoke": 2}
    evolve_pools = dict(disk_pool=DiskBandwidthPool(1),
                        decoder_pool=DecoderPool(1),
                        operator_pool=OperatorContextPool(2))

    @property
    def streams(self):
        return tuple(f"cam{i:02d}" for i in range(self.n_streams[self.scale]))

    def prepare(self, store, seed):
        rng = random.Random(seed)
        n = self.queries[self.scale]

        def specs(kinds):
            """Whole-stream queries on seeded streams, in seeded order."""
            kinds = list(kinds)
            rng.shuffle(kinds)
            return [{"query": query, "dataset": DATASET, "accuracy": 0.9,
                     "t0": 0.0, "t1": self.segments * SEGMENT_SECONDS,
                     "stream": rng.choice(self.streams)} for query in kinds]

        # B queries stay in the drift window: a window of phase-2 queries
        # only makes evolve_online retire the golden format.
        mixed = ["A", "A", "A", "B"] * (n // 4)
        return {"phase1": specs(["B"] * n), "phase2": specs(mixed),
                "drift": specs(mixed), "expected": 3 * n,
                "golden": store.configuration.plan.golden.fmt}

    def execute(self, store, inputs):
        first = store.execute_many(inputs["phase1"], **POOLS)
        decisions = evolve.decide_consumers(
            store.library, PHASE2, clock=store.clock,
            known={d.consumer: d for d in store.configuration.decisions},
        )
        store.adopt(evolve.legacy_configuration(store.configuration,
                                                decisions))
        second = store.execute_many(inputs["phase2"], **POOLS)
        report = store.evolve_online(foreground=inputs["drift"],
                                     **self.evolve_pools)
        return first, second, report

    def outcome(self, store, inputs, raw):
        first, second, report = raw
        n = report.stats.n_queries
        runs = [first, second, report.outcomes[:n], report.outcomes[n:]]
        per_phase = len(inputs["phase1"])
        problems = []
        for outcomes, expected in zip(runs, (per_phase, per_phase,
                                             per_phase, 0)):
            problems += completion_problems(outcomes, expected)
        if report.reencoded_segments <= 0:
            problems.append("evolution re-encoded no segment")
        golden = [sf.fmt for sf in store.configuration.plan.formats
                  if sf.golden]
        if golden != [inputs["golden"]]:
            problems.append("the adopted plan lost the golden format")
        counts = {"reencoded": report.reencoded_segments,
                  "retired": report.retired_segments,
                  "added": len(report.replan.added),
                  "removed": len(report.replan.removed)}
        return RunOutcome(
            attempted=inputs["expected"],
            problems=problems,
            digest=outcome_digest(runs, counts),
            sim=sim_metrics(runs, report.stats),
        )


WORKLOADS = {w.name: w for w in (ServeOpenloop, ClosedFleet,
                                 FailoverRebuild, EvolveDrift)}


def make(name: str, scale: str) -> Workload:
    try:
        return WORKLOADS[name](scale)
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; known: "
                         f"{', '.join(WORKLOADS)}") from None
