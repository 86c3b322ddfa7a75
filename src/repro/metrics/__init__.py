"""Metrics substrate: streaming stats, quantiles, collectors, reports."""

from repro.metrics.collector import (
    ClassMetrics,
    GatewayMetrics,
    MetricsCollector,
)
from repro.metrics.histogram import SampleSet
from repro.metrics.reporting import ascii_chart, render_series, render_table
from repro.metrics.stats import StreamingStats
from repro.metrics.timeseries import TimelineCollector, TimeSeries

__all__ = [
    "StreamingStats",
    "TimeSeries",
    "TimelineCollector",
    "SampleSet",
    "MetricsCollector",
    "ClassMetrics",
    "GatewayMetrics",
    "render_table",
    "render_series",
    "ascii_chart",
]
