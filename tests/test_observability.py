"""Observability-layer tests: the metrics registry, span construction and
report rendering, digest-neutrality of tracing+metrics, and registry
snapshots across crash–recovery."""

import json

import pytest

from repro.bench.suite import prefix_digest
from repro.core.types import InstanceId
from repro.harness import build_cluster
from repro.harness.cluster import ExperimentResult
from repro.harness.sweep import CellRecord, SweepReport
from repro.metrics.registry import (
    GLOBAL_NODE,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    merge_snapshots,
)
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
class TestRegistryInstruments:
    def test_counter_gauge_histogram_handles(self):
        reg = MetricsRegistry()
        c = reg.counter("boc", "decided", 0)
        c.inc()
        c.inc(4)
        assert c.value == 5
        # Same key returns the same live handle.
        assert reg.counter("boc", "decided", 0) is c
        g = reg.gauge("net", "queue_depth", 1)
        g.set(3.5)
        assert g.value == 3.5
        h = reg.histogram("commit", "lag_us", 2)
        for v in (10.0, 20.0, 30.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3 and s["min"] == 10.0 and s["max"] == 30.0

    def test_disabled_registry_hands_out_null_handles(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a", "b", 0) is NULL_COUNTER
        assert reg.gauge("a", "b", 0) is NULL_GAUGE
        assert reg.histogram("a", "b", 0) is NULL_HISTOGRAM
        # Null handles absorb writes; snapshot stays empty.
        reg.counter("a", "b", 0).inc()
        reg.histogram("a", "b", 0).observe(1.0)
        reg.add_source("a", lambda: {"x": 1})
        assert reg.snapshot() == {}

    def test_histogram_memory_is_bounded_but_count_exact(self):
        h = Histogram(capacity=4)
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100
        assert len(h.samples) == 4
        assert h.minimum == 0.0 and h.maximum == 99.0
        assert h.summary()["sum"] == sum(range(100))

    def test_histogram_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            Histogram(capacity=0)


class TestRegistrySnapshot:
    def test_snapshot_shape_and_totals(self):
        reg = MetricsRegistry()
        reg.counter("boc", "decided", 0).inc(3)
        reg.counter("boc", "decided", 1).inc(2)
        reg.counter("net", "global").inc()  # no node -> GLOBAL_NODE key
        reg.gauge("net", "depth", 0).set(7)
        reg.histogram("commit", "lag_us", 0).observe(100.0)
        reg.histogram("commit", "lag_us", 1).observe(300.0)
        snap = reg.snapshot()
        decided = snap["counters"]["boc.decided"]
        assert decided == {"per_node": {"0": 3, "1": 2}, "total": 5}
        assert snap["counters"]["net.global"]["per_node"] == {GLOBAL_NODE: 1}
        assert snap["gauges"]["net.depth"]["per_node"] == {"0": 7}
        lag = snap["histograms"]["commit.lag_us"]
        assert lag["per_node"]["0"]["count"] == 1
        # "all" pools samples across nodes.
        assert lag["all"]["count"] == 2
        assert lag["all"]["min"] == 100.0 and lag["all"]["max"] == 300.0
        # Plain JSON all the way down.
        json.dumps(snap)

    def test_sources_fold_into_counters(self):
        reg = MetricsRegistry()
        reg.counter("node", "txs", 0).inc(10)
        reg.add_source("node", lambda: {"txs": 5, "polls": 1}, 0)
        reg.add_source("node", lambda: {"polls": 2}, 1)
        snap = reg.snapshot()
        # Source values merge with same-named push counters per node.
        assert snap["counters"]["node.txs"]["per_node"]["0"] == 15
        assert snap["counters"]["node.polls"] == {
            "per_node": {"0": 1, "1": 2},
            "total": 3,
        }


class TestMergeSnapshots:
    def _snap(self, total, gauge, hist_count, hist_p50):
        return {
            "counters": {"boc.decided": {"total": total}},
            "gauges": {"net.depth": {"per_node": {"0": gauge}}},
            "histograms": {
                "commit.lag_us": {
                    "all": {
                        "count": hist_count,
                        "sum": hist_p50 * hist_count,
                        "min": 1.0,
                        "max": 9.0,
                        "mean": hist_p50,
                        "p50": hist_p50,
                        "p90": hist_p50,
                        "p99": hist_p50,
                    }
                }
            },
        }

    def test_counters_sum_gauges_average_histograms_weight(self):
        merged = merge_snapshots(
            [self._snap(3, 10.0, 1, 100.0), self._snap(7, 30.0, 3, 200.0), {}]
        )
        assert merged["cells"] == 2  # empty snapshots contribute nothing
        assert merged["counters"]["boc.decided"]["total"] == 10
        assert merged["gauges"]["net.depth"]["mean"] == 20.0
        lag = merged["histograms"]["commit.lag_us"]["all"]
        assert lag["count"] == 4
        # Count-weighted p50: (100*1 + 200*3) / 4.
        assert lag["p50"] == 175.0

    def test_merge_of_nothing_is_empty_shell(self):
        merged = merge_snapshots([])
        assert merged["cells"] == 0
        assert merged["counters"] == {} and merged["histograms"] == {}


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
            wire_stats={"dissemination": {"strategy": "tree"}},
            metrics={
                "counters": {"cache.digest.hits": {"total": 5}},
                "gauges": {},
                "histograms": {
                    "commit.lag_us": {
                        "all": {
                            "count": 2,
                            "sum": 400.0,
                            "min": 100.0,
                            "max": 300.0,
                            "mean": 200.0,
                            "p50": 200.0,
                            "p90": 300.0,
                            "p99": 300.0,
                        }
                    }
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
        assert "Wire stats" in text
        assert "Per-link deliveries" in text
        assert "0->1" in text
        assert "Registry histograms" in text
        assert "Cache layers" in text

    def test_run_report_flags_violations(self):
        result = ExperimentResult(
            n_nodes=4, duration_us=1, safety_violation="diverged at seq 3"
        )
        assert "SAFETY VIOLATION" in render_run_report(result=result)


# ----------------------------------------------------------------------
# Cluster integration: digest neutrality, crash–recovery, sweep rollup
# ----------------------------------------------------------------------
class TestClusterObservability:
    def test_tracing_and_metrics_do_not_perturb_the_run(self):
        """The whole layer must be read-only: same seed, same decided
        prefixes and executed totals with observability on and off."""
        plain = build_cluster(quick_lyra_config(), protocol="lyra")
        plain_result = plain.run()
        observed = build_cluster(
            quick_lyra_config(tracing=True, metrics=True), protocol="lyra"
        )
        observed_result = observed.run()
        assert prefix_digest(observed) == prefix_digest(plain)
        assert observed_result.executed_total == plain_result.executed_total
        assert observed_result.committed_count == plain_result.committed_count

    def test_metrics_snapshot_lands_in_result(self):
        cluster = build_cluster(quick_lyra_config(metrics=True), protocol="lyra")
        result = cluster.run()
        snap = result.metrics
        # executed_total reports the best replica; the scraped counter
        # keeps the per-replica split.
        executed = snap["counters"]["node.txs_executed"]["per_node"]
        assert max(executed.values()) == result.executed_total
        assert snap["counters"]["boc.decided_accept"]["total"] > 0
        assert snap["histograms"]["commit.e2e_us"]["all"]["count"] > 0
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

    def test_trace_attached_when_tracing_enabled(self):
        cluster = build_cluster(quick_lyra_config(tracing=True), protocol="lyra")
        cluster.run()
        assert cluster.trace is not None
        assert len(cluster.trace) > 0
        decomp = decompose_phases(cluster.trace)
        assert decomp["total"].count > 0

    def test_snapshot_sane_across_crash_recovery(self):
        """Registry sources are bound to the live node object, so a
        recovered incarnation keeps reporting through the same entry —
        and the per-instance phase dicts cleared by recover() must not
        poison the snapshot."""
        crash = CrashEvent(
            pid=2,
            crash_at_us=1_500 * MILLISECONDS,
            recover_at_us=2_200 * MILLISECONDS,
        )
        cfg = quick_lyra_config(
            metrics=True,
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

    def test_sweep_aggregates_cell_snapshots(self):
        def record(total):
            result = ExperimentResult(
                n_nodes=4,
                duration_us=1,
                metrics={"counters": {"boc.decided_accept": {"total": total}}},
            )
            return CellRecord(
                key=f"k{total}",
                protocol="lyra",
                config={},
                status="ok",
                result=result,
            )

        no_metrics = CellRecord(
            key="plain",
            protocol="lyra",
            config={},
            status="ok",
            result=ExperimentResult(n_nodes=4, duration_us=1),
        )
        report = SweepReport(records=[record(3), record(4), no_metrics])
        merged = report.aggregate_metrics()
        assert merged["cells"] == 2
        assert merged["counters"]["boc.decided_accept"]["total"] == 7
