"""The typed trace-event model: one schema, one constructor.

Before this module, each executor loop hand-rolled its own ``{"event":
..., "t": ...}`` dict — copies of an implicit schema whose only
guarantee was the golden-trace files happening to agree.  Now the schema
is *locked* here:

* :data:`TRACE_SCHEMA` is the exact key-set of every task lifecycle
  event; :func:`task_event` is the one constructor the executor's event
  loop and the parity oracles in ``tests/oracles`` call, so the streams
  are identical by construction
  and the parity tests (:mod:`tests.test_obs_trace`) can diff key-sets
  and full streams mechanically;
* :class:`TaskInterval` pairs each ``start``/``finish`` event into one
  scheduled task occupancy interval, reconstructing the *submission*
  instant from the chain rule (a session's chain is serial: task ``i``
  is submitted the moment task ``i - 1`` finishes, and the first task at
  run start), which gives per-task queueing delay without growing the
  event stream;
* :class:`QuerySpan` rolls a query's intervals up into the span the
  paper's argument needs: where did this query's simulated time go —
  service or waiting, resource by resource.

The raw stream stays a list of plain dicts (the golden traces pin its
bytes; dict construction is also what keeps tracing cheap enough to be
on by default for small fleets).  Everything typed is a *view* built on
demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "BACKGROUND_KINDS",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "PHASES",
    "QuerySpan",
    "TaskInterval",
    "intervals_from_events",
    "phase_of",
    "query_spans",
    "task_event",
    "validate_events",
]

#: Version of the locked task-event schema.  Bump only with a reviewed
#: golden-trace regeneration — the schema is a cross-PR contract.
TRACE_SCHEMA_VERSION = 1

#: The exact key-set of one task lifecycle event.  Order matters for the
#: raw dicts' repr stability; equality/JSON never depend on it.
TRACE_SCHEMA: Tuple[str, ...] = (
    "event", "t", "query", "kind", "operator", "resource", "duration",
)

#: Task kinds only background work emits (foreground queries emit
#: "retrieve" and "consume") — the job annotation on a span.  "read" /
#: "replicate" are the two halves of a re-replication job; "fail" /
#: "degrade" / "recover" are the zero-duration shard health transitions
#: a failure campaign stamps onto the timeline.
BACKGROUND_KINDS = frozenset({
    "read", "transcode", "write", "delete",
    "replicate", "fail", "degrade", "recover",
})

#: Execution phases a query span decomposes into, in data-path order.
#: ``plan``/``admit`` happen on the host clock before the simulation
#: starts (see ``ExecutorStats.admit_wall_seconds``); the simulated
#: phases are keyed off the resource a task ran on.
PHASES: Tuple[str, ...] = ("retrieve", "decode", "consume", "cache")


def task_event(event: str, t: float, query: str, kind: str, operator: str,
               resource: str, duration: float) -> Dict[str, object]:
    """The shared constructor of one task lifecycle event.

    The executor's event loop and the parity oracles emit their
    ``start``/``finish`` records through this function, so their streams
    carry the identical key-set and value layout — the property the
    golden traces and the parity tests pin.  It intentionally returns a
    plain dict (not a dataclass): tracing is on by default for fleets up to
    ``TRACE_AUTO_QUERIES`` and this runs once per event.
    """
    return {
        "event": event,
        "t": t,
        "query": query,
        "kind": kind,
        "operator": operator,
        "resource": resource,
        "duration": duration,
    }


def validate_events(events: Iterable[Mapping[str, object]]) -> None:
    """Raise ``ValueError`` on any event that breaks the locked schema."""
    want = set(TRACE_SCHEMA)
    for i, e in enumerate(events):
        keys = set(e)
        if keys != want:
            extra = sorted(keys - want)
            missing = sorted(want - keys)
            raise ValueError(
                f"trace event {i} breaks schema v{TRACE_SCHEMA_VERSION}: "
                f"extra keys {extra}, missing keys {missing}"
            )
        if e["event"] not in ("start", "finish"):
            raise ValueError(
                f"trace event {i}: unknown lifecycle {e['event']!r}"
            )


def phase_of(resource: str) -> str:
    """Map a task's resource onto its data-path phase.

    Disk channels (``disk`` or the per-shard ``disk:i``) serve retrieval,
    the decoder pool serves decode, the operator pool serves consumption,
    and the RAM tier serves cache hits.
    """
    if resource == "disk" or resource.startswith("disk:"):
        return "retrieve"
    if resource == "decoder":
        return "decode"
    if resource == "operators":
        return "consume"
    if resource == "cache":
        return "cache"
    return resource  # a future pool names its own phase


@dataclass(frozen=True)
class TaskInterval:
    """One scheduled task: submitted, then started, then finished.

    ``submit`` is reconstructed (chain rule), not recorded — see the
    module docstring.  ``wait = start - submit`` is the task's queueing
    delay on its resource.
    """

    query: str
    kind: str
    operator: str
    resource: str
    submit: float
    start: float
    end: float
    duration: float

    @property
    def wait(self) -> float:
        return self.start - self.submit

    @property
    def phase(self) -> str:
        return phase_of(self.resource)

    @property
    def background(self) -> bool:
        return self.kind in BACKGROUND_KINDS


def intervals_from_events(
    events: Sequence[Mapping[str, object]],
    start_time: Optional[float] = None,
) -> List[TaskInterval]:
    """Pair start/finish events into per-task intervals, in start order.

    ``start_time`` is the instant the run began (every session's first
    task was submitted then); it defaults to the earliest event time,
    which is exact for executors started on a fresh clock.

    Starts and finishes pair per query in stream order: each session's
    chain is serial, so its k-th finish closes its k-th start — no task
    ids needed.  A ``finish`` without a matching ``start`` (or an event
    breaking the schema) raises ``ValueError``.
    """
    validate_events(events)
    if not events:
        return []
    if start_time is None:
        start_time = min(float(e["t"]) for e in events)
    open_by_query: Dict[str, List[Mapping[str, object]]] = {}
    last_finish: Dict[str, float] = {}
    intervals: List[TaskInterval] = []
    for e in events:
        query = str(e["query"])
        if e["event"] == "start":
            open_by_query.setdefault(query, []).append(e)
            continue
        queue = open_by_query.get(query)
        if not queue:
            raise ValueError(
                f"finish without a start for query {query!r} at t={e['t']}"
            )
        start = queue.pop(0)
        if (start["kind"], start["operator"], start["resource"]) != (
                e["kind"], e["operator"], e["resource"]):
            raise ValueError(
                f"mismatched start/finish pair for query {query!r}: "
                f"{start['resource']}/{start['operator']} vs "
                f"{e['resource']}/{e['operator']}"
            )
        intervals.append(TaskInterval(
            query=query,
            kind=str(e["kind"]),
            operator=str(e["operator"]),
            resource=str(e["resource"]),
            submit=last_finish.get(query, start_time),
            start=float(start["t"]),
            end=float(e["t"]),
            duration=float(e["duration"]),
        ))
        last_finish[query] = float(e["t"])
    dangling = {q: len(v) for q, v in open_by_query.items() if v}
    if dangling:
        raise ValueError(f"unfinished tasks at end of trace: {dangling}")
    intervals.sort(key=lambda iv: (iv.start, iv.end, iv.query))
    return intervals


@dataclass(frozen=True)
class QuerySpan:
    """One query's full span: where its simulated time went, per resource.

    ``service_by_resource``/``wait_by_resource`` are chain-order float
    sums over the query's intervals; ``bound_resource`` names the
    resource that dominated ``service + wait`` — the critical resource
    of this query's latency.
    """

    query: str
    admitted: float  # first submission instant
    finished: float  # last finish instant
    n_tasks: int
    background: bool  # True for background evolution jobs
    #: True when any retrieval of this query was served from the RAM
    #: tier — a planned cache hit or a single-flight dedup follower (the
    #: stream cannot tell the two apart; ``CacheStats`` counts each).
    single_flight: bool
    service_by_resource: Dict[str, float] = field(default_factory=dict)
    wait_by_resource: Dict[str, float] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.finished - self.admitted

    @property
    def service_seconds(self) -> float:
        return sum(self.service_by_resource.values())

    @property
    def waited_seconds(self) -> float:
        return sum(self.wait_by_resource.values())

    @property
    def bound_resource(self) -> str:
        """The resource whose service + wait dominated this query's time."""
        resources = set(self.service_by_resource) | set(self.wait_by_resource)
        if not resources:
            return "none"
        return max(
            sorted(resources),
            key=lambda r: (self.service_by_resource.get(r, 0.0)
                           + self.wait_by_resource.get(r, 0.0)),
        )


def query_spans(
    events: Sequence[Mapping[str, object]],
    start_time: Optional[float] = None,
) -> List[QuerySpan]:
    """Roll a trace up into per-query spans, in first-submission order.

    A retrieval that ran on the RAM tier *while carrying a retrieve
    kind* was served by the cache plane — a planned hit or the
    executor's single-flight follower rewrite; the span's
    ``single_flight`` annotation flags it.  Kinds in
    :data:`BACKGROUND_KINDS` mark background evolution jobs.
    """
    order: List[str] = []
    by_query: Dict[str, List[TaskInterval]] = {}
    for iv in intervals_from_events(events, start_time):
        if iv.query not in by_query:
            order.append(iv.query)
            by_query[iv.query] = []
        by_query[iv.query].append(iv)
    spans: List[QuerySpan] = []
    for query in sorted(order, key=lambda q: (by_query[q][0].submit,
                                              order.index(q))):
        ivs = by_query[query]
        service: Dict[str, float] = {}
        wait: Dict[str, float] = {}
        for iv in ivs:
            service[iv.resource] = service.get(iv.resource, 0.0) + iv.duration
            wait[iv.resource] = wait.get(iv.resource, 0.0) + iv.wait
        spans.append(QuerySpan(
            query=query,
            admitted=min(iv.submit for iv in ivs),
            finished=max(iv.end for iv in ivs),
            n_tasks=len(ivs),
            background=any(iv.background for iv in ivs),
            single_flight=any(
                iv.kind == "retrieve" and iv.resource == "cache"
                for iv in ivs
            ),
            service_by_resource=service,
            wait_by_resource=wait,
        ))
    return spans
