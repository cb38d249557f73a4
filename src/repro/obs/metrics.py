"""Always-on metrics: counters, gauges, and log-bucket histograms.

The observability plane's second leg: while the trace stream records
*events* (opt-in beyond small fleets — per-event dicts are too hot for
4096-query benchmarks), the metrics registry records *aggregates*, and
is cheap enough to stay on for every run:

* :class:`Counter` and :class:`Gauge` are one float each;
* :class:`Histogram` keeps fixed logarithmic buckets — an observation is
  two dict operations, and p50/p95/p99 come from the cumulative bucket
  counts without retaining a single sample.  Quantiles are therefore
  *bucket upper bounds* (resolution ~±12% at the default 8 buckets per
  decade), which is exactly the precision a regression gate needs and
  nothing a per-sample reservoir would have to pay for;
* :class:`MetricsRegistry` holds them by name and snapshots to one
  deterministic dict, ready for the JSONL exporter and bench-diff.

The registry is fed by the executor at the end of every ``run()`` —
**inside** the wall-clock window ``ExecutorStats.wall_seconds`` reports,
so the CI perf-smoke overhead gate (metrics-on vs metrics-off smoke run
diffed at 5%) measures the true cost — and by the store facade from the
cache plane, the sharded disks, and the drift detector after each store
run.  A run passed ``metrics=None`` feeds no registry (the detached side
of the overhead gate); everything else keeps working.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Log-bucket resolution: buckets per decade.  8 gives bucket edges
#: ~1.33x apart — ±~15% worst-case quantile error, 2 dict slots per
#: decade of dynamic range.
BUCKETS_PER_DECADE = 8

@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount


@dataclass
class Gauge:
    """A last-write-wins instantaneous value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Fixed log-bucket latency histogram; quantiles without samples.

    Bucket ``i`` covers ``(base**(i-1), base**i]`` with ``base =
    10**(1/BUCKETS_PER_DECADE)``; zero and negative observations land in
    a dedicated underflow bucket whose upper bound reports as 0.0.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: Dict[int, int] = field(default_factory=dict)

    _LOG_BASE = math.log(10.0) / BUCKETS_PER_DECADE
    _UNDERFLOW = -(10 ** 9)  # bucket index reserved for values <= 0

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        """Record observations in order, in one pass: the same state as
        observing them one at a time, without the per-value call.

        A value inside :data:`_TABLE`'s range finds its bucket by bisection
        over the table's bounds — the canonical index
        :meth:`_bucket_index` computes, without a logarithm.
        """
        count, total, lo, hi = self.count, self.total, self.min, self.max
        buckets = self.buckets
        first, last = _TABLE_FIRST, len(_TABLE) - 1
        for value in values:
            count += 1
            total += value
            if value < lo:
                lo = value
            if value > hi:
                hi = value
            if value <= 0.0:
                idx = self._UNDERFLOW
            else:
                # _TABLE[at - 1] < value <= _TABLE[at]: bucket first + at.
                at = bisect_left(_TABLE, value)
                idx = (first + at if 0 < at <= last
                       else self._bucket_index(value))
            buckets[idx] = buckets.get(idx, 0) + 1
        self.count, self.total, self.min, self.max = count, total, lo, hi

    def _bucket_index(self, value: float) -> int:
        """Stable log-bucket index of a positive observation.

        The raw ``ceil(log(value) / LOG_BASE)`` can flip a value sitting
        exactly on a bucket boundary into the adjacent bucket: ``log``
        carries float error, so the quotient of a boundary value lands an
        ulp above or below the integer it should hit.  The index is
        therefore nudged until it satisfies the canonical bound function
        ``_bucket_upper`` — the unique ``i`` with
        ``upper(i - 1) < value <= upper(i)`` — which keeps the bucket
        assignment (and the bit-equal JSONL export built on it)
        consistent with the reported bounds on every platform.
        """
        idx = math.ceil(math.log(value) / self._LOG_BASE)
        while value > self._bucket_upper(idx):
            idx += 1
        while value <= self._bucket_upper(idx - 1):
            idx -= 1
        return idx

    def _bucket_upper(self, idx: int) -> float:
        """Canonical upper bound of bucket ``idx`` (its reported value),
        ``exp(idx * LOG_BASE)``; :data:`_TABLE` holds it in its range."""
        at = idx - _TABLE_FIRST
        if 0 <= at < len(_TABLE):
            return _TABLE[at]
        return math.exp(idx * self._LOG_BASE)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile observation,
        clamped to the observed ``[min, max]`` range.

        ``q = 0`` returns the minimum observation itself: rank 0 is
        matched by the first occupied bucket, whose *upper* bound may sit
        a full bucket factor above the smallest sample.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        if not self.count:
            return 0.0
        if q == 0.0:
            return self.min
        rank = q * self.count
        seen = 0
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= rank:
                if idx == self._UNDERFLOW:
                    # The underflow bucket holds the <= 0 observations;
                    # its reported bound is 0, clamped like any other.
                    upper = 0.0
                else:
                    upper = self._bucket_upper(idx)
                return max(self.min, min(upper, self.max))
        return self.max  # pragma: no cover - q=1 handled by >= above

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


#: Canonical upper bounds ``exp(idx * LOG_BASE)`` of the buckets from
#: ``_TABLE_FIRST`` on, covering (1e-9, 1e9].
_TABLE_FIRST = -9 * BUCKETS_PER_DECADE
_TABLE = [math.exp(idx * Histogram._LOG_BASE)
          for idx in range(_TABLE_FIRST, 9 * BUCKETS_PER_DECADE + 1)]


class MetricsRegistry:
    """Named counters/gauges/histograms with a deterministic snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (create on first use) ------------------------

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name)
        return inst

    # -- cross-layer feeders ----------------------------------------------

    def observe_executor(self, stats, sessions: Iterable) -> None:
        """Fold one finished concurrent run into the registry.

        Called by ``ConcurrentExecutor.run()`` inside its timed window;
        cost is O(n_queries + n_resources), no per-event work.
        """
        self.counter("executor.runs").inc()
        self.counter("executor.events").inc(stats.events)
        self.gauge("executor.makespan_seconds").set(stats.makespan)
        # The loop that ran: 1.0 for the one production loop, -1.0 for
        # anything else (a parity oracle swapped in by a test).
        self.gauge("executor.core").set(1.0 if stats.core == "heap" else -1.0)
        for resource in sorted(stats.busy_seconds):
            util = stats.utilization(resource)
            if util is not None:
                self.gauge(f"resource.{resource}.utilization").set(util)
            self.gauge(f"resource.{resource}.busy_seconds").set(
                stats.busy_seconds[resource]
            )
        latency: List[float] = []
        wait: List[float] = []
        slowdown: List[float] = []
        jobs = pure_wait = 0
        for session in sessions:
            if session.finished_at is None:  # pragma: no cover - defensive
                continue
            if session.klass != 0:
                jobs += 1
                continue
            lat = session.finished_at - session.arrival_at
            latency.append(lat)
            wait.append(session.waited_seconds)
            service = session.plan.service_seconds
            if service > 0:
                slowdown.append(lat / service)
            elif lat > 0:
                # A zero-service outcome that still waited: its slowdown
                # is infinite (pure queueing), which a log-bucket
                # histogram cannot hold — count it honestly instead of
                # recording a fictitious 1.0.
                pure_wait += 1
            else:
                slowdown.append(1.0)
        for name, n in (("executor.background_jobs", jobs),
                        ("executor.queries", len(latency)),
                        ("executor.pure_wait_queries", pure_wait)):
            if n:
                self.counter(name).inc(n)
        self.histogram("query.latency_seconds").observe_many(latency)
        self.histogram("query.wait_seconds").observe_many(wait)
        self.histogram("query.slowdown").observe_many(slowdown)

    def observe_wall(self, stats) -> None:
        """Record the run's host-side wall accounting (post-run).

        Separate from :meth:`observe_executor` because the run wall is
        only known after the timed window closes; includes the
        plan/admit wall the PR-8 bugfix made honest.
        """
        self.histogram("executor.run_wall_seconds").observe(
            stats.wall_seconds
        )
        self.histogram("executor.admit_wall_seconds").observe(
            stats.admit_wall_seconds
        )
        if stats.events_per_second > 0:
            self.gauge("executor.events_per_second").set(
                stats.events_per_second
            )

    def observe_cache(self, cache_stats) -> None:
        """Mirror the cache plane's cumulative counters as gauges."""
        for tier, counters in (("frames", cache_stats.frames),
                               ("results", cache_stats.results)):
            self.gauge(f"cache.{tier}.hits").set(counters.hits)
            self.gauge(f"cache.{tier}.misses").set(counters.misses)
            self.gauge(f"cache.{tier}.evictions").set(counters.evictions)
        self.gauge("cache.single_flight_hits").set(
            cache_stats.single_flight_hits
        )
        self.gauge("cache.single_flight_wakeups").set(
            cache_stats.single_flight_wakeups
        )
        self.gauge("cache.seconds_saved").set(cache_stats.seconds_saved)

    def observe_disks(self, disk_array) -> None:
        """Per-shard write-seconds and health gauges from the disk plane.

        Reads are the executor's retrieve tasks; their per-shard busy time
        is the ``resource.disk:i.busy_seconds`` gauge of
        :meth:`observe_executor`.
        """
        self.gauge("disk.shards").set(disk_array.n_shards)
        for i in range(disk_array.n_shards):
            self.gauge(f"disk.shard{i}.write_seconds").set(
                disk_array.busy_write_seconds[i]
            )
        if not disk_array.healthy or disk_array.failures_injected:
            # Resilience plane: only materializes once a campaign (or a
            # direct health flip) touched the array, so failure-free
            # snapshots keep their pre-existing key set.
            for i in range(disk_array.n_shards):
                state = disk_array.shard_state(i)
                self.gauge(f"disk.shard{i}.failed").set(
                    1.0 if state == "failed" else 0.0
                )
                self.gauge(f"disk.shard{i}.degrade_factor").set(
                    disk_array.degrade_factor(i)
                )
            self.gauge("failures.injected").set(disk_array.failures_injected)
            lost = disk_array.lost_keys()
            self.gauge("failures.lost_keys").set(len(lost))
            self.gauge("failures.lost_bytes").set(sum(lost.values()))
            self.gauge("failures.replicas_rebuilt").set(
                disk_array.replicas_rebuilt
            )
            self.gauge("failures.rebuilt_bytes").set(disk_array.rebuilt_bytes)

    def observe_kvstore(self, kv) -> None:
        """Crash-recovery counters from the segment log (reopen repair)."""
        self.gauge("kv.torn_truncations").set(kv.torn_truncations)
        self.gauge("kv.dropped_bytes").set(kv.dropped_bytes)
        self.gauge("kv.recovered_bytes").set(kv.recovered_bytes)

    def observe_drift(self, detector) -> None:
        """Drift-detector state after an ``execute_many``."""
        self.gauge("drift.score").set(detector.drift_score())
        self.gauge("drift.samples").set(detector.samples)
        self.gauge("drift.drifted").set(1.0 if detector.drifted else 0.0)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """One deterministic, JSON-ready view of every instrument."""
        out: Dict[str, Dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._counters):
            out["counters"][name] = self._counters[name].value
        for name in sorted(self._gauges):
            out["gauges"][name] = self._gauges[name].value
        for name in sorted(self._histograms):
            h = self._histograms[name]
            out["histograms"][name] = {
                "count": h.count,
                "mean": h.mean,
                "min": h.min if h.count else 0.0,
                "max": h.max if h.count else 0.0,
                "p50": h.p50,
                "p95": h.p95,
                "p99": h.p99,
            }
        return out

    def rows(self) -> List[Dict[str, object]]:
        """Snapshot flattened to columnar rows (one instrument per row)."""
        snap = self.snapshot()
        rows: List[Dict[str, object]] = []
        for name, value in snap["counters"].items():
            rows.append({"metric": name, "type": "counter", "value": value,
                         "count": None, "p50": None, "p95": None,
                         "p99": None})
        for name, value in snap["gauges"].items():
            rows.append({"metric": name, "type": "gauge", "value": value,
                         "count": None, "p50": None, "p95": None,
                         "p99": None})
        for name, h in snap["histograms"].items():
            rows.append({"metric": name, "type": "histogram",
                         "value": h["mean"], "count": h["count"],
                         "p50": h["p50"], "p95": h["p95"], "p99": h["p99"]})
        return rows
