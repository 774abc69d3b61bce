"""Observability-layer tests: the counter registry, span construction and
report rendering, digest-neutrality of tracing, and registry snapshots
across crash–recovery."""

import json
from collections import Counter

from repro.__main__ import main
from repro.bench.suite import prefix_digest
from repro.core.types import InstanceId
from repro.harness import build_cluster
from repro.harness.cluster import ExperimentResult
from repro.metrics.registry import GLOBAL_NODE, MetricsRegistry
from repro.metrics.report import render_phase_table, render_run_report
from repro.metrics.spans import (
    PHASE_PAIRS,
    build_spans,
    decompose_phases,
    export_chrome_trace,
)
from repro.metrics.tracelog import TraceLog
from repro.net.faults import CrashEvent, FaultPlan
from repro.sim.engine import MILLISECONDS, SECONDS

from tests.helpers import quick_lyra_config


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistrySnapshot:
    def test_snapshot_shape_and_totals(self):
        reg = MetricsRegistry()
        reg.add_source("boc", lambda: {"decided": 3}, 0)
        reg.add_source("boc", lambda: {"decided": 2}, 1)
        reg.add_source("net", lambda: {"global": 1})  # no node -> GLOBAL_NODE
        snap = reg.snapshot()
        assert set(snap) == {"counters"}
        decided = snap["counters"]["boc.decided"]
        assert decided == {"per_node": {"0": 3, "1": 2}, "total": 5}
        assert snap["counters"]["net.global"]["per_node"] == {GLOBAL_NODE: 1}
        # Plain JSON all the way down.
        json.dumps(snap)

    def test_sources_fold_into_counters(self):
        reg = MetricsRegistry()
        reg.add_source("node", lambda: {"txs": 10}, 0)
        reg.add_source("node", lambda: {"txs": 5, "polls": 1}, 0)
        reg.add_source("node", lambda: {"polls": 2}, 1)
        snap = reg.snapshot()
        # Same-named values from several sources sum per node.
        assert snap["counters"]["node.txs"]["per_node"]["0"] == 15
        assert snap["counters"]["node.polls"] == {
            "per_node": {"0": 1, "1": 2},
            "total": 3,
        }


# ----------------------------------------------------------------------
# Spans + report rendering
# ----------------------------------------------------------------------
def _pipeline_log():
    """Two instances at their proposers, full pipeline, known durations."""
    log = TraceLog()
    for iid, t0 in ((InstanceId(0, 0), 0), (InstanceId(1, 0), 50)):
        log.record(t0, iid.proposer, "proposed", iid)
        log.record(t0 + 300, iid.proposer, "decided", iid)
        log.record(t0 + 500, iid.proposer, "committed", iid)
        log.record(t0 + 600, iid.proposer, "executed", iid)
    return log


class TestSpans:
    def test_build_spans_covers_adjacent_pairs(self):
        spans = build_spans(_pipeline_log())
        assert len(spans) == 6  # 3 phase pairs x 2 instances
        by_phase = {}
        for s in spans:
            by_phase.setdefault(s.phase, []).append(s)
        assert set(by_phase) == set(PHASE_PAIRS) - {"total"}
        first = [s for s in by_phase["proposed->decided"] if s.instance == (0, 0)][0]
        assert first.start_us == 0 and first.duration_us == 300
        assert first.end_us == 300

    def test_decompose_phases_proposer_only(self):
        decomp = decompose_phases(_pipeline_log())
        assert decomp["proposed->decided"].count == 2
        assert decomp["proposed->decided"].mean == 300.0
        assert decomp["total"].mean == 600.0

    def test_chrome_export(self, tmp_path):
        log = _pipeline_log()
        log.record(700, 2, "recovered")
        path = str(tmp_path / "trace.json")
        count = export_chrome_trace(log, path)
        data = json.loads(open(path).read())
        events = data["traceEvents"]
        assert len(events) == count == 7  # 6 spans + 1 lifecycle instant
        complete = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] > 0 for e in complete)
        instants = [e for e in events if e["ph"] == "i"]
        assert instants[0]["name"] == "recovered" and instants[0]["pid"] == 2


class TestReportRendering:
    def test_phase_table_lists_phases_in_ms(self):
        table = render_phase_table(decompose_phases(_pipeline_log()))
        assert "proposed->decided" in table
        assert "total" in table
        assert "p99_ms" in table
        # 300 us renders as 0.30 ms.
        assert "0.30" in table

    def test_empty_trace_renders_placeholder(self):
        assert "(no complete phase spans" in render_phase_table({})

    def test_run_report_sections(self):
        result = ExperimentResult(
            n_nodes=4,
            duration_us=1 * SECONDS,
            committed_count=10,
            executed_total=40,
            throughput_tps=10.0,
            fault_stats={"dropped": 3},
            metrics={
                "counters": {
                    "cache.feldman_verify.hits": {"total": 5},
                    "boc.decided_accept": {"total": 9},
                },
                "links": {"0->1": {"messages": 12, "bytes": 3400}},
            },
        )
        text = render_run_report(
            trace=_pipeline_log(), result=result, title="T"
        )
        assert "# T" in text
        assert "Phase latency decomposition" in text
        assert "trace events:" in text
        assert "Fault/channel stats" in text
        assert "Per-link deliveries" in text
        assert "0->1" in text
        assert "Registry counters" in text
        assert "Cache layers" in text

    def test_run_report_flags_violations(self):
        result = ExperimentResult(
            n_nodes=4, duration_us=1, safety_violation="diverged at seq 3"
        )
        assert "SAFETY VIOLATION" in render_run_report(result=result)


# ----------------------------------------------------------------------
# Cluster integration: digest neutrality, crash–recovery, one switch
# ----------------------------------------------------------------------
class TestClusterObservability:
    def test_tracing_and_metrics_do_not_perturb_the_run(self):
        """The whole layer must be read-only: same seed, same decided
        prefixes and executed totals with ``tracing`` on and off."""
        plain = build_cluster(quick_lyra_config(), protocol="lyra")
        plain_result = plain.run()
        observed = build_cluster(
            quick_lyra_config(tracing=True), protocol="lyra"
        )
        observed_result = observed.run()
        assert prefix_digest(observed) == prefix_digest(plain)
        assert observed_result.executed_total == plain_result.executed_total
        assert observed_result.committed_count == plain_result.committed_count

    def test_metrics_snapshot_lands_in_result(self):
        cluster = build_cluster(quick_lyra_config(tracing=True), protocol="lyra")
        result = cluster.run()
        snap = result.metrics
        # executed_total reports the best replica; the scraped counter
        # keeps the per-replica split.
        executed = snap["counters"]["node.txs_executed"]["per_node"]
        assert max(executed.values()) == result.executed_total
        assert snap["counters"]["boc.decided_accept"]["total"] > 0
        assert set(snap) == {"counters", "links", "phases"}
        # Link stats ride along under "links".
        assert snap["links"]
        assert all(
            set(v) == {"messages", "bytes"} for v in snap["links"].values()
        )
        # The snapshot survives the sweep/cache JSON path.
        round_tripped = ExperimentResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert round_tripped.metrics == result.metrics

    def test_decided_counters_match_trace_events(self):
        """Per node, the BOC decision counters count exactly the trace's
        ``decided`` events, split by decided value."""
        cluster = build_cluster(quick_lyra_config(tracing=True), protocol="lyra")
        counters = cluster.run().metrics["counters"]
        decided, accepted = Counter(), Counter()
        for event in cluster.trace.events:
            if event.kind == "decided":
                decided[event.node] += 1
                accepted[event.node] += dict(event.detail)["value"] == 1
        assert decided
        accept = counters["boc.decided_accept"]["per_node"]
        reject = counters["boc.decided_reject"]["per_node"]
        for node in cluster.nodes:
            key = str(node.pid)
            assert accept[key] == accepted[node.pid]
            assert accept[key] + reject[key] == decided[node.pid]

    def test_traced_run_report_prints_each_phase_figure_once(self, capsys):
        """``run --trace`` prints the phase table and no second copy of
        the same figures as registry histograms."""
        argv = ["run", "--n", "4", "--seed", "1", "--duration-ms", "2000"]
        assert main(argv + ["--trace"]) == 0
        text = capsys.readouterr().out
        assert "RESULT: PASS" in text
        assert text.count("Phase latency decomposition") == 1
        assert "Registry histograms" not in text
        assert "Registry counters" in text

    def test_trace_attached_when_tracing_enabled(self):
        cluster = build_cluster(quick_lyra_config(tracing=True), protocol="lyra")
        cluster.run()
        assert cluster.trace is not None
        assert len(cluster.trace) > 0
        decomp = decompose_phases(cluster.trace)
        assert decomp["total"].count > 0

    def test_phases_block_is_the_trace_decomposition(self):
        """A traced result carries the proposer-side decomposition of its
        own trace, and the block survives the sweep/cache JSON path."""
        cluster = build_cluster(quick_lyra_config(tracing=True), protocol="lyra")
        result = cluster.run()
        expected = {
            phase: {"count": s.count, "mean_us": s.mean, "max_us": s.maximum}
            for phase, s in decompose_phases(cluster.trace).items()
        }
        assert expected["total"]["count"] > 0
        assert result.metrics["phases"] == expected
        round_tripped = ExperimentResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert round_tripped.metrics["phases"] == expected

    def test_snapshot_sane_across_crash_recovery(self):
        """Registry sources are bound to the live node object, so a
        recovered incarnation keeps reporting through the same entry."""
        crash = CrashEvent(
            pid=2,
            crash_at_us=1_500 * MILLISECONDS,
            recover_at_us=2_200 * MILLISECONDS,
        )
        cfg = quick_lyra_config(
            tracing=True,
            reliable_channels=True,
            fault_plan=FaultPlan(crashes=(crash,)),
        )
        cluster = build_cluster(cfg, protocol="lyra")
        result = cluster.run()
        assert result.safety_violation is None
        snap = result.metrics
        per_node = snap["counters"]["node.recoveries"]["per_node"]
        assert per_node["2"] == 1
        assert all(per_node.get(str(pid), 0) == 0 for pid in (0, 1, 3))
        assert snap["counters"]["node.incarnation"]["per_node"]["2"] == (
            snap["counters"]["node.incarnation"]["per_node"]["0"] + 1
        )
        json.dumps(snap)
