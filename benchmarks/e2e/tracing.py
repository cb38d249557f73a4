"""Span tracer for the benchmark's traced run.

The tracer wraps each layer's public callable at the attribute where its
caller looks it up (``repro.core.store.derive_configuration``, not
``repro.core.config.derive_configuration``, because ``store.py`` imported
the name), records one span per call while a root span is open, and puts
every original back on exit.  Spans stay in memory; :meth:`Tracer.write`
dumps them as JSONL when the run ends.

A span is ``[id, parent id, name, request id, start, end]``.  The request
id of an ``admit`` span is its query's qid; every other span inherits its
parent's, and root spans carry the run id.  A layer's self time is its
span's duration minus the time its child spans cover, so the self times
of all spans of a run add up to the duration of its roots.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List

from repro.analysis.slo import percentile

#: (span name, module, attribute) for every wrapped callable.  A trailing
#: ``*`` wraps every method of the class with that prefix.
LAYERS = (
    ("core.store", "repro.core.store", "VStore.serve"),
    ("core.store", "repro.core.store", "VStore.execute_many"),
    ("core.drift", "repro.core.drift", "DriftDetector.observe_run"),
    ("core.configure", "repro.core.store", "derive_configuration"),
    ("ingest.ingest", "repro.ingest.pipeline",
     "IngestionPipeline.ingest_segments"),
    ("storage.put", "repro.storage.segment_store", "SegmentStore.put"),
    ("storage.delete", "repro.storage.segment_store", "SegmentStore.delete"),
    ("storage.commit_replica", "repro.storage.segment_store",
     "SegmentStore.commit_replica"),
    ("storage.apply_event", "repro.storage.failures", "apply_event"),
    ("storage.rebuild_jobs", "repro.storage.failures", "rebuild_jobs"),
    ("query.workload_build", "repro.query.workload", "build_workload"),
    ("query.workload_build", "repro.query.workload", "workload_specs"),
    ("query.admit", "repro.query.scheduler", "ConcurrentExecutor.admit"),
    ("query.admit", "repro.query.scheduler", "ConcurrentExecutor.admit_job"),
    ("query.plan", "repro.query.engine", "QueryEngine.plan"),
    ("retrieval.assess", "repro.retrieval.reader",
     "SegmentReader.assess_cached_many"),
    ("operators.run", "repro.operators.detector", "DetectorOperator.run"),
    ("operators.run", "repro.operators.signal_op", "SignalOperator.run"),
    ("video.clip", "repro.video.content", "ContentModel.clip"),
    ("query.run", "repro.query.scheduler", "ConcurrentExecutor.run"),
    ("core.evolve", "repro.core.store", "VStore.evolve_online"),
    ("core.replan", "repro.core.store", "replan_incremental"),
    ("core.reencode_jobs", "repro.core.store", "reencode_jobs"),
    ("core.decide_consumers", "repro.core.evolve", "decide_consumers"),
    ("core.decide_consumers", "repro.core.evolve", "legacy_configuration"),
    ("analysis.report", "repro.analysis.slo", "slo_report"),
    ("analysis.report", "repro.analysis.availability", "availability_report"),
    ("obs.observe", "repro.obs.metrics", "MetricsRegistry.observe_*"),
)

#: Layers called often enough (>= 1,000 times on some workload) for
#: per-call percentiles to mean something.
HOT_LAYERS = ("query.admit", "query.plan", "retrieval.assess",
              "operators.run", "video.clip", "storage.put")

#: Layers that do work on behalf of whichever layer called them.
HELPER_LAYERS = ("retrieval.assess", "operators.run", "video.clip")

ROOTS = ("bench.setup", "bench.run")


def layer_names() -> List[str]:
    return list(dict.fromkeys(name for name, _, _ in LAYERS))


def _resolve(module: str, attr: str):
    """(owner object, [attribute names]) for one LAYERS entry."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if leaf.endswith("*"):
        prefix = leaf[:-1]
        return owner, sorted(a for a in vars(owner) if a.startswith(prefix))
    return owner, [leaf]


class Tracer:
    """Records spans around the LAYERS callables while a root is open."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self._stack: List[list] = []
        self._patches: List[tuple] = []
        #: (args, kwargs, returned plan) per ``QueryEngine.plan`` call;
        #: keys are derived after the run so the spans do not pay for them.
        self.plan_calls: List[tuple] = []
        #: Every executor whose ``run()`` was traced, in call order.
        self.executors: List[object] = []
        self._executor_index: Dict[int, int] = {}
        self.value_bytes = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1][0], name, None, perf_counter(), 0.0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced

    def _executor_id(self, executor) -> int:
        key = id(executor)
        if key not in self._executor_index:
            self._executor_index[key] = len(self._executor_index)
            self.executors.append(executor)
        return self._executor_index[key]

    def _note_admit(self, span, args, kwargs, session):
        span[3] = f"e{self._executor_id(args[0])}:q{session.qid}"

    def _note_plan(self, span, args, kwargs, plan):
        self.plan_calls.append((args, kwargs, plan))

    def _note_run(self, span, args, kwargs, result):
        self._executor_id(args[0])

    def _count_value_bytes(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def counted(kv, key, value):
            if stack:
                self.value_bytes += len(value)
            return fn(kv, key, value)

        return counted

    def install(self) -> None:
        notes = {"query.admit": self._note_admit,
                 "query.plan": self._note_plan,
                 "query.run": self._note_run}
        for name, module, attr in LAYERS:
            owner, leaves = _resolve(module, attr)
            for leaf in leaves:
                original = vars(owner)[leaf] if isinstance(owner, type) \
                    else getattr(owner, leaf)
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(name, original,
                                                notes.get(name)))
        kv, _ = _resolve("repro.storage.kvstore", "KVStore.put")
        self._patches.append((kv, "put", kv.put))
        kv.put = self._count_value_bytes(kv.put)

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    @contextmanager
    def root(self, name: str):
        """Install the wrappers and record everything under one root span."""
        span = [len(self.spans), None, name, self.run_id, perf_counter(), 0.0]
        self.spans.append(span)
        self.install()
        self._stack.append(span)
        try:
            yield span
        finally:
            span[5] = perf_counter()
            self._stack.pop()
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] is not None:
                covered[span[1]] += span[5] - span[4]
        return [s[5] - s[4] - c for s, c in zip(self.spans, covered)]

    def requests(self) -> List[str]:
        """Each span's request id: its own, else its nearest ancestor's."""
        out: List[str] = []
        for span in self.spans:  # parents are always recorded first
            out.append(span[3] if span[3] is not None else out[span[1]])
        return out

    def _outermost(self, span) -> bool:
        """False when an ancestor has the same name (recursion)."""
        parent = span[1]
        while parent is not None:
            if self.spans[parent][2] == span[2]:
                return False
            parent = self.spans[parent][1]
        return True

    def layer_metrics(self) -> Dict[str, float]:
        """calls / total / self / share per layer, percentiles for hot ones."""
        selfs = self.self_times()
        wall = sum(s[5] - s[4] for s in self.spans if s[1] is None)
        names = layer_names()
        calls = dict.fromkeys(names, 0)
        total = dict.fromkeys(names, 0.0)
        own = dict.fromkeys(names, 0.0)
        per_call: Dict[str, List[float]] = {n: [] for n in HOT_LAYERS}
        unattributed = 0.0
        for span, self_s in zip(self.spans, selfs):
            name = span[2]
            if span[1] is None:
                unattributed += self_s
                continue
            duration = span[5] - span[4]
            calls[name] += 1
            own[name] += self_s
            if self._outermost(span):
                total[name] += duration
            if name in per_call:
                per_call[name].append(duration)
        out: Dict[str, float] = {}
        for name in names:
            out[f"{name}_calls"] = calls[name]
            out[f"{name}_s"] = total[name]
            out[f"{name}_self_s"] = own[name]
            out[f"{name}_share"] = total[name] / wall if wall else 0.0
        for name, durations in per_call.items():
            for q, label in ((0.50, "p50"), (0.99, "p99")):
                out[f"{name}_ms_{label}"] = (
                    1e3 * percentile(durations, q) if durations else 0.0)
        out["bench.traced_wall_s"] = wall
        out["bench.attributed_share"] = (
            1.0 - unattributed / wall if wall else 0.0
        )
        out["query.plan_redundant_ratio"] = self.plan_redundant_ratio()
        return out

    def plan_redundant_ratio(self) -> float:
        """1 - distinct plans / plan calls: the planning a memo could skip.

        A plan is identified by its admit arguments plus its task tuple,
        so two calls count as one plan only when they would be
        interchangeable.
        """
        if not self.plan_calls:
            return 0.0
        from repro.query.engine import QueryEngine

        signature = inspect.signature(QueryEngine.plan)
        distinct = set()
        for args, kwargs, plan in self.plan_calls:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            call = dict(bound.arguments)
            del call["self"], call["store"]
            call["query"] = call["query"].name
            call["dataset"] = args[0].dataset
            tasks = tuple((t.kind, t.resource, t.units, t.duration, t.shard,
                           t.operator) for t in plan.tasks)
            distinct.add((repr(sorted(call.items())), tasks))
        return 1.0 - len(distinct) / len(self.plan_calls)

    def largest_layer(self) -> str:
        """The layer whose spans, with their rolled-up helpers, took longest.

        Retrieval, operator and clip spans are helpers: their self time
        counts toward the layer that called them (``query.plan`` while
        serving, ``core.configure`` while profiling).  Every other span
        counts its own self time.
        """
        selfs = self.self_times()
        owner: List[str] = []
        totals: Dict[str, float] = {}
        for span, self_s in zip(self.spans, selfs):
            name = span[2]
            if span[1] is not None and name in HELPER_LAYERS:
                name = owner[span[1]]
            owner.append(name)
            if span[1] is not None:
                totals[name] = totals.get(name, 0.0) + self_s
        totals = {k: v for k, v in totals.items() if k not in ROOTS}
        return max(totals, key=totals.get) if totals else ""

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for span, request in zip(self.spans, self.requests()):
                f.write(json.dumps({
                    "id": span[0], "parent": span[1], "name": span[2],
                    "request": request, "start": span[4], "end": span[5],
                }) + "\n")

