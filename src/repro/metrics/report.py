"""Render observability data as terminal-friendly reports.

``python -m repro run`` feeds each deployment's
:class:`~repro.harness.cluster.ExperimentResult` (and, with ``--trace``,
its :class:`TraceLog`; with ``--trace-jsonl``, a dumped trace alone)
through :func:`render_run_report`.  It prints the headline, then each
block the run carries: the paper's per-phase latency decomposition
(proposed → decided → committed → executed, each with p50/p90/p99) when
traced; per-link wire and fault statistics; per-replica log lengths and
the watchdog's verdict when a fault plan ran; reorder, sandwich, latency
and capacity when the workload asked for fairness; cache hit rates and the
registry's counter totals.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.metrics.capacity import extrapolate_users
from repro.metrics.spans import PHASE_PAIRS, decompose_phases
from repro.metrics.stats import LatencySummary
from repro.metrics.tracelog import TraceLog


def _fmt_us(value: float) -> str:
    return f"{value / 1000.0:10.2f}"


def render_phase_table(decomp: Dict[str, LatencySummary]) -> str:
    """The latency-decomposition table, all figures in milliseconds."""
    lines = [
        f"{'phase':<22} {'count':>7} {'mean_ms':>10} {'p50_ms':>10} "
        f"{'p90_ms':>10} {'p99_ms':>10} {'max_ms':>10}",
        "-" * 84,
    ]
    for phase in PHASE_PAIRS:
        s = decomp.get(phase)
        if s is None:
            continue
        lines.append(
            f"{phase:<22} {s.count:>7} {_fmt_us(s.mean)} {_fmt_us(s.p50)} "
            f"{_fmt_us(s.p90)} {_fmt_us(s.p99)} {_fmt_us(s.maximum)}"
        )
    if len(lines) == 2:
        lines.append("(no complete phase spans in trace)")
    return "\n".join(lines)


def _render_counter_dict(title: str, stats: Dict[str, Any]) -> List[str]:
    if not stats:
        return []
    lines = [f"## {title}"]
    for key in sorted(stats):
        lines.append(f"  {key:<32} {stats[key]}")
    lines.append("")
    return lines


def _render_links(links: Dict[str, Dict[str, int]], limit: int = 12) -> List[str]:
    if not links:
        return []
    lines = ["## Per-link deliveries (top by messages)"]
    ranked = sorted(links.items(), key=lambda kv: -kv[1]["messages"])
    for link, counts in ranked[:limit]:
        lines.append(
            f"  {link:<10} messages={counts['messages']:<10} bytes={counts['bytes']}"
        )
    if len(ranked) > limit:
        lines.append(f"  ... and {len(ranked) - limit} more links")
    lines.append("")
    return lines


def _render_registry(snapshot: Dict[str, Any]) -> List[str]:
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    cache_lines = []
    other_lines = []
    for name in sorted(counters):
        total = counters[name].get("total", 0)
        if name.startswith("cache."):
            cache_lines.append(f"  {name:<40} {total}")
        else:
            other_lines.append(f"  {name:<40} {total}")
    if other_lines:
        lines.append("## Registry counters (totals across nodes)")
        lines.extend(other_lines)
        lines.append("")
    if cache_lines:
        lines.append("## Cache layers")
        lines.extend(cache_lines)
        lines.append("")
    return lines


def run_failures(result: Any, config: Any) -> List[str]:
    """Why a run fails (empty when clean): an SMR-safety or watchdog
    violation, or a missing fairness block the workload asked for."""
    failures = []
    if result.safety_violation:
        failures.append(f"SAFETY VIOLATION: {result.safety_violation}")
    if result.invariant_violations:
        failures.append(
            f"INVARIANT VIOLATIONS ({len(result.invariant_violations)}): "
            + "; ".join(result.invariant_violations[:3])
        )
    workload = getattr(config, "workload", None)
    if workload is not None and workload.fairness and not result.fairness:
        failures.append("MISSING FAIRNESS BLOCK: the workload asked for one")
    return failures


def _render_faulted(cluster: Any, result: Any) -> List[str]:
    """Per-replica committed-log lengths and the watchdog's report."""
    lines = ["## Committed log lengths"]
    for node in cluster.nodes:
        recoveries = getattr(node, "recoveries", 0)
        marker = f" (recovered x{recoveries})" if recoveries else ""
        lines.append(f"  pid {node.pid}: {len(node.output_sequence())}{marker}")
    lines += [
        "",
        "## Invariant watchdog",
        f"  invariant checks run : {result.invariant_checks}",
        f"  violations           : {len(result.invariant_violations)}",
    ]
    lines += [f"  {violation}" for violation in result.invariant_violations]
    lines.append("")
    return lines


def _render_fairness(cluster: Any, result: Any, protocol: str) -> List[str]:
    """The fairness block (counts, reorder distance, sandwich outcomes,
    per-group latency in µs) and the capacity extrapolation."""
    block = result.fairness
    if not block:
        return []
    lines: List[str] = []
    for key in ("counts", "reorder", "sandwich"):
        lines += _render_counter_dict(f"Fairness: {key}", block.get(key, {}))
    for name, row in sorted(block.get("latency", {}).items()):
        lines += _render_counter_dict(f"Fairness: latency[{name}]", row)
    config = cluster.config
    try:
        capacity = extrapolate_users(
            protocol=protocol,
            n=config.n_nodes,
            f=config.resolved_f(),
            users=config.workload.resolved_users(config.n_nodes),
            offered_tps=config.workload.offered_tps(config.n_nodes),
            measured_tps=result.throughput_tps,
        )
    except ValueError as err:  # a protocol without a capacity model
        capacity = {"error": str(err)}
    return lines + _render_counter_dict(f"Fairness: capacity[{protocol}]", capacity)


def render_run_report(
    *,
    trace: Optional[TraceLog] = None,
    result: Optional[Any] = None,
    cluster: Optional[Any] = None,
    protocol: str = "lyra",
    title: str = "Run report",
    proposer_only: bool = True,
) -> str:
    """One full report of one run.

    ``result`` (an :class:`~repro.harness.cluster.ExperimentResult`)
    contributes the headline figures, wire/fault stats and the registry
    snapshot; ``trace`` (``cluster.trace`` by default) the phase-latency
    decomposition.  ``cluster``, the deployment that produced ``result``
    under ``protocol``, adds the log lengths and watchdog report when a
    fault plan ran, and the fairness and capacity block when the result
    carries one.  Any argument may be omitted.
    """
    if trace is None and cluster is not None:
        trace = cluster.trace
    lines: List[str] = [f"# {title}", ""]
    if result is not None:
        lines.append(
            f"n={result.n_nodes} duration={result.duration_us / 1_000_000.0:.1f}s "
            f"committed={result.committed_count} executed={result.executed_total} "
            f"throughput={result.throughput_tps:.1f} tps "
            f"avg_latency={result.avg_latency_ms:.1f} ms "
            f"p99_latency={result.p99_latency_us / 1000.0:.1f} ms"
        )
        lines.extend(run_failures(result, getattr(cluster, "config", None)))
        lines.append("")
    if trace is not None and len(trace):
        lines.append("## Phase latency decomposition"
                     + (" (at proposer)" if proposer_only else " (all nodes)"))
        lines.append(render_phase_table(decompose_phases(trace, proposer_only)))
        lines.append("")
        kinds = trace.kinds()
        lines.append(
            "trace events: "
            + "  ".join(f"{k}={kinds[k]}" for k in sorted(kinds))
        )
        lines.append("")
    if result is not None:
        lines.extend(_render_counter_dict("Fault/channel stats", result.fault_stats))
        if cluster is not None:
            if cluster.config.fault_plan is not None:
                lines.extend(_render_faulted(cluster, result))
            lines.extend(_render_fairness(cluster, result, protocol))
        snap = getattr(result, "metrics", None) or {}
        lines.extend(_render_links(snap.get("links", {})))
        lines.extend(_render_registry(snap))
    return "\n".join(lines).rstrip() + "\n"


__all__ = ["render_phase_table", "render_run_report", "run_failures"]
