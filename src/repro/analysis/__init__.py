"""Analysis helpers: the Focus comparison model and table formatting."""

from repro.analysis.cache import (
    WarmColdComparison,
    format_cache_table,
    format_warm_cold_table,
)
from repro.analysis.concurrency import (
    ConcurrencyReport,
    QueryLatencyRow,
    concurrency_report,
    format_concurrency_table,
    jain_index,
)
from repro.analysis.drift import (
    DriftRegretReport,
    drift_regret_report,
    format_drift_table,
    retrieval_seconds,
)
from repro.analysis.focus import FocusComparison
from repro.analysis.sharding import (
    ShardRow,
    ShardingReport,
    format_sharding_table,
    sharding_report,
)
from repro.analysis.sweeps import budget_sweep_series, operator_scaling_series
from repro.analysis.tables import (
    format_configuration_table,
    format_erosion_table,
    format_profiling_summary_table,
    format_query_speed_table,
)

__all__ = [
    "ConcurrencyReport",
    "DriftRegretReport",
    "drift_regret_report",
    "format_drift_table",
    "retrieval_seconds",
    "WarmColdComparison",
    "format_cache_table",
    "format_warm_cold_table",
    "FocusComparison",
    "QueryLatencyRow",
    "ShardRow",
    "ShardingReport",
    "concurrency_report",
    "format_concurrency_table",
    "format_sharding_table",
    "sharding_report",
    "jain_index",
    "budget_sweep_series",
    "operator_scaling_series",
    "format_configuration_table",
    "format_erosion_table",
    "format_profiling_summary_table",
    "format_query_speed_table",
]
