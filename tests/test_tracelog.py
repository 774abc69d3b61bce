"""Tests for the protocol trace log and the latency-decomposition and
Δ-sensitivity experiments built on it."""

from repro.core.types import InstanceId
from repro.harness import build_cluster
from repro.harness.config import closed_loop_config
from repro.harness.experiments import delta_ablation, latency_breakdown
from repro.metrics.tracelog import PHASES, TraceLog, install_lyra_tracing
from repro.sim.engine import SECONDS

from tests.helpers import quick_lyra_config


class TestTraceLog:
    def test_record_and_query(self):
        log = TraceLog()
        iid = InstanceId(2, 5)
        log.record(100, 0, "proposed", iid, txs=3)
        log.record(400, 0, "decided", iid, value=1)
        log.record(200, 1, "proposed", InstanceId(1, 1))
        assert len(log) == 3
        assert len(log.for_instance(iid)) == 2
        assert log.kinds() == {"proposed": 2, "decided": 1}

    def test_first_times_per_node(self):
        log = TraceLog()
        iid = InstanceId(0, 0)
        log.record(100, 0, "proposed", iid)
        log.record(150, 1, "proposed", iid)
        log.record(500, 0, "decided", iid)
        assert log.first_times(iid, node=0) == {"proposed": 100, "decided": 500}
        assert log.first_times(iid, node=1) == {"proposed": 150}

    def test_phase_durations(self):
        log = TraceLog()
        iid = InstanceId(0, 0)
        for t, kind in zip((100, 400, 700, 800), PHASES):
            log.record(t, 0, kind, iid)
        durations = log.phase_durations_us(iid, 0)
        assert durations["proposed->decided"] == 300
        assert durations["decided->committed"] == 300
        assert durations["committed->executed"] == 100
        assert durations["total"] == 700

    def test_jsonl_roundtrip(self, tmp_path):
        log = TraceLog()
        log.record(1, 0, "proposed", InstanceId(0, 0), txs=2)
        log.record(2, 1, "decided", None)
        path = str(tmp_path / "trace.jsonl")
        assert log.dump_jsonl(path) == 2
        loaded = TraceLog.load_jsonl(path)
        assert len(loaded) == 2
        assert loaded.events[0].kind == "proposed"
        assert dict(loaded.events[0].detail)["txs"] == 2

    def test_jsonl_roundtrip_preserves_event_equality(self, tmp_path):
        """Tuple/bytes detail values must survive dump/load: JSON turns
        tuples into lists and cannot carry bytes, so both record() and
        load_jsonl() canonicalise — events compare equal across the trip."""
        log = TraceLog()
        log.record(
            5,
            2,
            "committed",
            InstanceId(1, 3),
            entries=((0, 1), (2, 4)),
            digest=b"\x00\xff",
            note="ok",
        )
        log.record(9, 0, "executed", (1, 3), seqs=[7, 8, 9])
        path = str(tmp_path / "trace.jsonl")
        log.dump_jsonl(path)
        loaded = TraceLog.load_jsonl(path)
        assert loaded.events == log.events
        detail = dict(log.events[0].detail)
        assert detail["entries"] == ((0, 1), (2, 4))
        assert detail["digest"] == "00ff"
        # Nested list detail recorded as a tuple too.
        assert dict(log.events[1].detail)["seqs"] == (7, 8, 9)

    def test_tuple_instance_keys_interchangeable(self):
        """Queries accept raw (proposer, batch_no) pairs — what a JSONL
        dump preserves — interchangeably with InstanceId."""
        log = TraceLog()
        log.record(10, 0, "proposed", (2, 7))
        log.record(40, 0, "decided", InstanceId(2, 7))
        assert len(log.for_instance(InstanceId(2, 7))) == 2
        assert len(log.for_instance((2, 7))) == 2
        assert log.first_times((2, 7), node=0) == {"proposed": 10, "decided": 40}
        assert log.instances() == [(2, 7)]

    def test_missing_phases_yield_partial_durations(self):
        """An instance that skipped phases (crash-recovered replica,
        catch-up adoption) yields a partial — never erroneous —
        decomposition, and first_times simply omits the missing kinds."""
        log = TraceLog()
        iid = InstanceId(0, 4)
        # The recovered node only ever saw committed and executed.
        log.record(700, 2, "committed", iid)
        log.record(800, 2, "executed", iid)
        durations = log.phase_durations_us(iid, 2)
        assert durations == {"committed->executed": 100}
        assert "total" not in durations
        assert "proposed" not in log.first_times(iid, node=2)
        # A node with no events at all: everything empty, nothing raised.
        assert log.phase_durations_us(iid, 3) == {}
        assert log.first_times(iid, node=3) == {}


class TestClusterTracing:
    def test_instrumented_run_emits_pipeline_events(self):
        cluster = build_cluster(quick_lyra_config())
        log = install_lyra_tracing(cluster)
        cluster.run()
        kinds = log.kinds()
        for kind in PHASES:
            assert kinds.get(kind, 0) > 0, f"no {kind} events"
        # Every committed instance passed through all phases at node 0.
        node0 = cluster.nodes[0]
        for entry in node0.commit.output_log[:3]:
            times = log.first_times(entry.instance, node=0)
            assert "committed" in times and "executed" in times
            assert times["committed"] <= times["executed"]

    def test_install_composes_with_existing_tracer(self):
        """install_lyra_tracing must not clobber a tracer already hooked on
        a node — both the prior hook and the new log keep observing."""
        cluster = build_cluster(quick_lyra_config())
        seen = []
        for node in cluster.nodes:
            node.tracer = (
                lambda kind, iid, _pid=node.pid, **detail: seen.append(
                    (_pid, kind)
                )
            )
        log = install_lyra_tracing(cluster)
        cluster.run()
        assert len(log) > 0
        # The pre-existing hook saw exactly the events the log recorded.
        assert len(seen) == len(log)
        assert {k for _, k in seen} == set(log.kinds())

    def test_install_twice_feeds_both_logs(self):
        cluster = build_cluster(quick_lyra_config())
        first = install_lyra_tracing(cluster)
        second = install_lyra_tracing(cluster)
        cluster.run()
        assert len(first) == len(second) > 0
        assert first.kinds() == second.kinds()


class TestLatencyBreakdown:
    def test_phases_sum_to_total(self):
        rows = latency_breakdown()
        by_phase = {r["phase"]: r for r in rows}
        assert set(by_phase) == {
            "proposed->decided",
            "decided->committed",
            "committed->executed",
            "total",
        }
        parts = (
            by_phase["proposed->decided"]["mean_ms"]
            + by_phase["decided->committed"]["mean_ms"]
            + by_phase["committed->executed"]["mean_ms"]
        )
        assert abs(parts - by_phase["total"]["mean_ms"]) < 1.0

    def test_boc_phase_within_L(self):
        """The BOC decision must fit inside the acceptance window L = 3Δ
        (450 ms at the default Δ) — that is what makes L a sound bound."""
        rows = latency_breakdown()
        by_phase = {r["phase"]: r for r in rows}
        assert by_phase["proposed->decided"]["max_ms"] <= 450.0
        # ...and the total stays sub-second.
        assert by_phase["total"]["mean_ms"] < 1000.0

    def test_every_proposed_instance_is_sampled(self):
        """The rows cover every instance its proposer proposed, not only
        those still live at the horizon: a node forgets an instance 10·Δ
        after it finishes.  A cluster built from the DECOMP cell's config
        gives the proposals to count."""
        by_phase = {r["phase"]: r for r in latency_breakdown()}
        cluster = build_cluster(
            closed_loop_config(4, 29, 6 * SECONDS, tracing=True), protocol="lyra"
        )
        cluster.run()
        proposed = sum(
            1
            for e in cluster.trace.events
            if e.kind == "proposed" and e.node == e.instance[0]
        )
        assert by_phase["proposed->decided"]["samples"] == proposed


class TestDeltaAblation:
    def test_latency_tracks_three_delta(self):
        rows = delta_ablation((75, 300))
        by_delta = {r["delta_ms"]: r for r in rows}
        assert by_delta[75]["safety"] is None
        assert by_delta[300]["safety"] is None
        # End-to-end latency grows with Δ at roughly the 3Δ window rate.
        gap = by_delta[300]["latency_ms"] - by_delta[75]["latency_ms"]
        assert 2.0 * (300 - 75) <= gap <= 4.0 * (300 - 75)
