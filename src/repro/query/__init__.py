"""Query execution: operator cascades streaming data out of the store.

A query is a cascade of operators (Figure 2): early cheap operators scan
the whole queried timespan and activate later, costlier operators over the
fraction of frames they flag.  The engine estimates (and, against a real
segment store, measures) per-stage speeds as the minimum of retrieval and
consumption speed, and composes them with cascade selectivities into the
end-to-end "x realtime" query speed of Figure 11a.
"""

from repro.query.alternatives import (
    AlternativeScheme,
    one_to_n_scheme,
    one_to_one_scheme,
    n_to_n_scheme,
    vstore_scheme,
)
from repro.query.cascade import QUERY_A, QUERY_B, QueryCascade
from repro.query.engine import ExecutionResult, QueryEngine, QueryReport, StageReport
from repro.query.scheduler import (
    ConcurrentExecutor,
    DispatchResult,
    ExecutorStats,
    OperatorContextPool,
    QueryOutcome,
    QueryPlan,
    QuerySession,
    ResourceTask,
    StagePlan,
    dispatch,
)

__all__ = [
    "AlternativeScheme",
    "ConcurrentExecutor",
    "QUERY_A",
    "QUERY_B",
    "QueryCascade",
    "DispatchResult",
    "ExecutorStats",
    "OperatorContextPool",
    "QueryOutcome",
    "QueryPlan",
    "QuerySession",
    "ResourceTask",
    "StagePlan",
    "dispatch",
    "ExecutionResult",
    "QueryEngine",
    "QueryReport",
    "StageReport",
    "n_to_n_scheme",
    "one_to_n_scheme",
    "one_to_one_scheme",
    "vstore_scheme",
]
