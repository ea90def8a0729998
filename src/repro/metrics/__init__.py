"""Measurement: SLOC counting, composition-cost accounting, latency stats.

- :mod:`repro.metrics.sloc`      -- source-lines-of-code counting over the
  artifact files each composition task touches (Table 1's SLOC column),
- :mod:`repro.metrics.costmodel` -- the operations/files/SLOC accounting
  model behind Table 1,
- :mod:`repro.metrics.latency`   -- per-stage latency extraction and
  summary statistics (Table 2),
- :mod:`repro.metrics.report`    -- plain-text table rendering with
  paper-vs-measured columns.
"""

from repro.metrics.costmodel import CompositionTask, TaskComparison
from repro.metrics.latency import StageBreakdown, summarize
from repro.metrics.report import Table, format_seconds
from repro.metrics.sloc import Artifact, count_sloc
from repro.metrics.telemetry import (
    exchange_durations,
    resilience_snapshot,
    runtime_snapshot,
)

__all__ = [
    "Artifact",
    "CompositionTask",
    "StageBreakdown",
    "Table",
    "TaskComparison",
    "count_sloc",
    "exchange_durations",
    "format_seconds",
    "resilience_snapshot",
    "runtime_snapshot",
    "summarize",
]
