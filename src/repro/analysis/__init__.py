"""Statistics, table rendering and experiment reporting."""

from repro.analysis.replication import (
    Replication,
    bootstrap_ci,
    replicate,
)
from repro.analysis.reporting import ExperimentResult, Finding
from repro.analysis.stats import (
    geomean,
    mean,
    mean_absolute_relative_error,
    normalize,
    percent_improvement,
    percentile,
    percentiles,
    stdev,
)
from repro.analysis.tables import format_bar_chart, format_table
from repro.analysis.trace import core_rows, epoch_rows, to_csv, to_json, write_trace

__all__ = [
    "ExperimentResult",
    "Finding",
    "mean",
    "geomean",
    "stdev",
    "percent_improvement",
    "percentile",
    "percentiles",
    "mean_absolute_relative_error",
    "normalize",
    "format_table",
    "format_bar_chart",
    "epoch_rows",
    "core_rows",
    "to_csv",
    "to_json",
    "write_trace",
    "Replication",
    "bootstrap_ci",
    "replicate",
]
