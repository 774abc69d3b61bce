"""Measurement utilities: latency statistics and the capacity model used
to extrapolate saturation throughput to large n (DESIGN.md §2,
substitution for real-testbed throughput runs)."""

from repro.metrics.stats import LatencySummary, percentile, summarize_latencies
from repro.metrics.capacity import (
    CapacityInputs,
    extrapolate_users,
    lyra_capacity,
    pompe_capacity,
    lyra_instance_profile,
    pompe_cert_profile,
    lyra_loaded_latency_us,
    pompe_loaded_latency_us,
)
from repro.metrics.fairness import (
    count_inversions,
    fairness_block,
    reorder_distance,
    sandwich_stats,
)
from repro.metrics.tracelog import TraceLog, TraceEvent, install_lyra_tracing
from repro.metrics.registry import (
    MetricsRegistry,
    merge_snapshots,
)
from repro.metrics.spans import (
    Span,
    build_spans,
    decompose_phases,
    export_chrome_trace,
)
from repro.metrics.report import render_phase_table, render_run_report
from repro.metrics.invariants import (
    InvariantReport,
    InvariantViolation,
    InvariantWatchdog,
)
from repro.metrics.ascii_chart import chart_fig2, chart_fig3, render_chart

__all__ = [
    "LatencySummary",
    "percentile",
    "summarize_latencies",
    "CapacityInputs",
    "count_inversions",
    "extrapolate_users",
    "fairness_block",
    "reorder_distance",
    "sandwich_stats",
    "lyra_capacity",
    "pompe_capacity",
    "lyra_instance_profile",
    "pompe_cert_profile",
    "lyra_loaded_latency_us",
    "pompe_loaded_latency_us",
    "TraceLog",
    "TraceEvent",
    "install_lyra_tracing",
    "MetricsRegistry",
    "merge_snapshots",
    "Span",
    "build_spans",
    "decompose_phases",
    "export_chrome_trace",
    "render_phase_table",
    "render_run_report",
    "InvariantWatchdog",
    "InvariantReport",
    "InvariantViolation",
    "render_chart",
    "chart_fig2",
    "chart_fig3",
]
