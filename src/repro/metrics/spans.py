"""Span construction over a :class:`~repro.metrics.tracelog.TraceLog`.

Turns raw point events into per-instance *spans* covering the paper's
commit pipeline — ``proposed → decided`` (BOC, 3 message delays),
``decided → committed`` (Commit-protocol lag), ``committed → executed``
(commit-reveal) — and aggregates them into the per-phase latency
decomposition rendered by ``python -m repro run --trace``.  Also exports
spans in chrome://tracing "Trace Event Format" for visual inspection
in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.metrics.stats import LatencySummary, summarize_latencies
from repro.metrics.tracelog import PHASES, TraceLog, phase_durations

#: Adjacent phase pairs, in pipeline order, plus the end-to-end span.
PHASE_PAIRS = tuple(
    f"{earlier}->{later}" for earlier, later in zip(PHASES, PHASES[1:])
) + ("total",)


@dataclass(frozen=True)
class Span:
    """One phase interval of one instance at one node."""

    instance: Tuple[int, int]
    node: int
    phase: str  # e.g. "proposed->decided"
    start_us: int
    duration_us: int

    @property
    def end_us(self) -> int:
        return self.start_us + self.duration_us


def build_spans(log: TraceLog, node: Optional[int] = None) -> List[Span]:
    """Per-instance phase spans, sorted by start time.

    ``node=None`` builds spans at every node that observed the instance;
    pass a pid to restrict (e.g. the proposer for wall-clock latency).
    Instances missing a phase boundary simply contribute no span for
    that pair.
    """
    spans: List[Span] = []
    for iid, by_node in log.grouped_first_times().items():
        pids = [node] if node is not None else sorted(by_node)
        for pid in pids:
            times = by_node.get(pid, {})
            for earlier, later in zip(PHASES, PHASES[1:]):
                if earlier in times and later in times:
                    spans.append(
                        Span(
                            iid,
                            pid,
                            f"{earlier}->{later}",
                            times[earlier],
                            times[later] - times[earlier],
                        )
                    )
    spans.sort(key=lambda s: (s.start_us, s.node, s.instance))
    return spans


def decompose_phases(
    log: TraceLog, proposer_only: bool = True
) -> Dict[str, LatencySummary]:
    """The paper's latency decomposition: per-phase latency summaries.

    With ``proposer_only`` (the default, matching the paper's
    client-visible latency), each instance is measured at its proposer;
    otherwise every observing node contributes a sample per phase.
    """
    samples: Dict[str, List[float]] = {p: [] for p in PHASE_PAIRS}
    for iid, by_node in log.grouped_first_times().items():
        pids = [iid[0]] if proposer_only else sorted(by_node)
        for pid in pids:
            for phase, dur in phase_durations(by_node.get(pid, {})).items():
                samples[phase].append(float(dur))
    return {p: summarize_latencies(vals) for p, vals in samples.items() if vals}


def export_chrome_trace(log: TraceLog, path: str, node: Optional[int] = None) -> int:
    """Write spans as chrome://tracing JSON ("X" complete events).

    Nodes map to pids, phases to tids, so each node gets a lane per
    pipeline phase.  Returns the number of events written.
    """
    events = []
    for s in build_spans(log, node=node):
        events.append(
            {
                "name": f"{s.instance[0]}/{s.instance[1]} {s.phase}",
                "cat": s.phase,
                "ph": "X",
                "pid": s.node,
                "tid": PHASE_PAIRS.index(s.phase) if s.phase in PHASE_PAIRS else 0,
                "ts": s.start_us,
                "dur": s.duration_us,
                "args": {"proposer": s.instance[0], "batch_no": s.instance[1]},
            }
        )
    # Instant events for point occurrences that never became spans
    # (recoveries, catch-up adoptions) keep faults visible in the lane.
    for e in log.events:
        if e.kind in ("recovered", "catchup_adopt", "catchup_done"):
            events.append(
                {
                    "name": e.kind,
                    "cat": "lifecycle",
                    "ph": "i",
                    "pid": e.node,
                    "tid": 0,
                    "ts": e.time_us,
                    "s": "p",
                }
            )
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return len(events)


__all__ = ["Span", "build_spans", "decompose_phases", "export_chrome_trace", "PHASE_PAIRS"]
