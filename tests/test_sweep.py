"""Sweep runner: cache hit/miss, per-cell failure isolation, parallel ==
serial determinism; plus the unified factory, the drop-counting null
transport, and verification memoization."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.crypto.memo import MemoCache
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.harness import (
    Cluster,
    ExperimentConfig,
    ExperimentResult,
    available_protocols,
    build_cluster,
)
from repro.harness.sweep import (
    SweepCell,
    cell_key,
    grid_cells,
    load_cached_record,
    run_sweep,
)
from repro.net.faults import CrashEvent, FaultPlan, partition_faults


def tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        n_nodes=4,
        seed=2,
        batch_size=10,
        clients_per_node=1,
        client_window=5,
        duration_us=1_500_000,
        warmup_rounds=2,
        warmup_spacing_us=150_000,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestCellKeys:
    def test_key_is_deterministic(self):
        assert cell_key(tiny_config(), "lyra") == cell_key(tiny_config(), "lyra")

    def test_key_depends_on_config_and_protocol(self):
        base = cell_key(tiny_config(), "lyra")
        assert cell_key(tiny_config(seed=3), "lyra") != base
        assert cell_key(tiny_config(), "pompe") != base

    def test_grid_cells_shape_and_order(self):
        cells = grid_cells(
            tiny_config(), protocols=("lyra", "pompe"), seeds=(1, 2), n_nodes=[4, 7]
        )
        assert len(cells) == 2 * 2 * 2
        assert cells[0].protocol == "lyra" and cells[-1].protocol == "pompe"
        assert cells[0].config.seed == 1 and cells[0].config.n_nodes == 4
        assert cells[1].config.n_nodes == 7  # axes vary fastest

    def test_grid_cells_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown ExperimentConfig axes"):
            grid_cells(tiny_config(), nodes=[4])

    @pytest.mark.parametrize(
        "base, axes, named",
        [
            (dict(report_quorum=3), {}, "pompe cannot honour: report_quorum=3"),
            (dict(f=1), {"n_nodes": [4, 3]}, "n=3 does not tolerate f=1"),
            (
                dict(fault_plan=FaultPlan(crashes=(CrashEvent(1, 0), CrashEvent(2, 0)))),
                {},
                "exceeds f=1",
            ),
        ],
        ids=["adapter", "resilience", "fault-plan"],
    )
    def test_grid_cells_refuses_a_cell_no_cluster_can_run(self, base, axes, named):
        with pytest.raises(ValueError, match=named):
            grid_cells(tiny_config(**base), protocols=("lyra", "pompe"), **axes)


class TestSweepCache:
    def test_miss_then_hit(self, tmp_path):
        cells = [SweepCell("lyra", tiny_config())]
        first = run_sweep(cells, cache_dir=str(tmp_path))
        assert first.executed == 1 and first.cache_hits == 0
        assert first.records[0].ok and not first.records[0].cached

        second = run_sweep(cells, cache_dir=str(tmp_path))
        assert second.executed == 0 and second.cache_hits == 1
        assert second.records[0].cached
        assert (
            second.records[0].result.to_dict() == first.records[0].result.to_dict()
        )

    def test_cache_layout_is_one_jsonl_per_cell(self, tmp_path):
        cell = SweepCell("lyra", tiny_config())
        run_sweep([cell], cache_dir=str(tmp_path))
        path = tmp_path / f"{cell.key}.jsonl"
        assert path.exists()
        record = json.loads(path.read_text().splitlines()[0])
        assert record["status"] == "ok"
        assert record["protocol"] == "lyra"
        assert record["config"]["n_nodes"] == 4

    def test_force_reruns_cached_cells(self, tmp_path):
        cells = [SweepCell("lyra", tiny_config())]
        run_sweep(cells, cache_dir=str(tmp_path))
        forced = run_sweep(cells, cache_dir=str(tmp_path), force=True)
        assert forced.executed == 1 and forced.cache_hits == 0

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        cell = SweepCell("lyra", tiny_config())
        run_sweep([cell], cache_dir=str(tmp_path))
        (tmp_path / f"{cell.key}.jsonl").write_text("not json\n")
        assert load_cached_record(tmp_path, cell.key) is None
        report = run_sweep([cell], cache_dir=str(tmp_path))
        assert report.executed == 1 and report.failures == 0

    def test_no_cache_dir_always_executes(self):
        cells = [SweepCell("lyra", tiny_config())]
        assert run_sweep(cells).executed == 1
        assert run_sweep(cells).executed == 1


class TestSweepIsolationAndDeterminism:
    def test_failing_cell_does_not_kill_the_grid(self, tmp_path):
        cells = [
            SweepCell("lyra", tiny_config()),
            # n=4 cannot tolerate f=2: cluster construction raises.
            SweepCell("lyra", tiny_config(f=2)),
            SweepCell("lyra", tiny_config(seed=5)),
        ]
        report = run_sweep(cells, cache_dir=str(tmp_path))
        assert report.failures == 1
        bad = report.records[1]
        assert not bad.ok and "ValueError" in bad.error
        assert report.records[0].ok and report.records[2].ok
        # Failures are never cached — the cell retries next sweep.
        assert load_cached_record(tmp_path, cells[1].key) is None

    def test_unknown_protocol_is_a_contained_failure(self):
        report = run_sweep([SweepCell("nope", tiny_config())])
        assert report.failures == 1
        assert "unknown protocol" in report.records[0].error

    def test_parallel_results_identical_to_serial(self):
        cells = grid_cells(
            tiny_config(), protocols=("lyra", "pompe"), seeds=(2, 3)
        )
        serial = run_sweep(cells, workers=1)
        parallel = run_sweep(cells, workers=4)
        assert serial.failures == 0 and parallel.failures == 0
        for a, b in zip(serial.records, parallel.records):
            assert a.key == b.key
            assert a.result.to_dict() == b.result.to_dict()

    def test_cached_result_identical_to_fresh(self, tmp_path):
        cells = [SweepCell("pompe", tiny_config())]
        fresh = run_sweep(cells, cache_dir=str(tmp_path)).records[0]
        cached = run_sweep(cells, cache_dir=str(tmp_path)).records[0]
        assert cached.cached
        assert cached.result == fresh.result


class TestResultRoundTrip:
    def test_experiment_result_round_trips(self):
        result = build_cluster(tiny_config(), protocol="lyra").run()
        clone = ExperimentResult.from_dict(result.to_dict())
        assert clone == result

    def test_unknown_result_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown ExperimentResult"):
            ExperimentResult.from_dict({"n_nodes": 4, "duration_us": 1, "bogus": 2})

    def test_config_round_trips(self):
        plan = FaultPlan(
            links=partition_faults([{0}], 4, heal_at_us=123), gst_us=123
        )
        cfg = tiny_config(fault_plan=plan, obfuscation="hash")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_size", 0),
            ("lambda_us", -1),
            ("duration_us", 0),
            ("client_window", 0),
            ("warmup_rounds", -1),
        ],
    )
    def test_impossible_config_values_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            tiny_config(**{field: value})

    def test_unknown_config_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown ExperimentConfig"):
            ExperimentConfig.from_dict({"n_nodes": 4, "bogus": 1})


class TestFactory:
    def test_factory_builds_each_protocol(self):
        assert set(available_protocols()) >= {"lyra", "pompe"}
        lyra = build_cluster(tiny_config(), protocol="lyra")
        pompe = build_cluster(tiny_config(), protocol="pompe")
        assert isinstance(lyra, Cluster) and isinstance(pompe, Cluster)
        assert type(lyra.nodes[0]).__name__ == "LyraNode"
        assert type(pompe.nodes[0]).__name__ == "PompeNode"

    def test_factory_rejects_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            build_cluster(tiny_config(), protocol="hotstuff-marketing-name")


class TestNullTransport:
    def _services(self, **kwargs):
        from repro.core.services import ProtocolServices
        from repro.sim.engine import Simulator

        registry = KeyRegistry(1)
        return ProtocolServices(
            pid=0,
            n=4,
            f=1,
            sim=Simulator(),
            delta_us=1000,
            signer=registry.signer(0),
            registry=registry,
            threshold=ThresholdScheme(3, 4, seed=1),
            **kwargs,
        )

    def test_unwired_services_count_drops(self):
        services = self._services()
        assert services.dropped_messages == 0
        services.send(1, "PING", {"x": 1})
        services.broadcast("PONG", {"y": 2})
        assert services.dropped_messages == 2
        assert services.null_transport.dropped_sends == 1
        assert services.null_transport.dropped_broadcasts == 1
        assert services.null_transport.last_dropped.kind == "PONG"

    def test_wired_services_report_zero_drops(self):
        sent = []
        services = self._services(
            send_fn=lambda dst, msg: sent.append((dst, msg)),
            broadcast_fn=lambda msg: sent.append(("*", msg)),
        )
        services.send(1, "PING", {})
        services.broadcast("PONG", {})
        assert services.dropped_messages == 0
        assert len(sent) == 2


class TestVerifyMemoization:
    def test_memo_cache_counters_and_eviction(self):
        cache = MemoCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", True)
        assert cache.get("a") is True
        cache.put("b", False)
        cache.put("c", True)  # evicts "a" (FIFO)
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.get("b") is False  # cached False is a hit, not a miss
        assert cache.stats()["hits"] == 2

    def test_share_verify_hits_cache_and_stays_correct(self):
        scheme = ThresholdScheme(3, 4, seed=7)
        share = scheme.share_signer(1).share_sign("payload")
        assert scheme.share_verify("payload", share, 1)
        before = scheme.verify_cache_stats()["hits"]
        assert scheme.share_verify("payload", share, 1)
        assert scheme.verify_cache_stats()["hits"] == before + 1
        # Shares never cross-validate for another pid or message.
        assert not scheme.share_verify("payload", share, 2)
        assert not scheme.share_verify("other", share, 1)

    def test_full_verify_memoized(self):
        scheme = ThresholdScheme(3, 4, seed=7)
        shares = [scheme.share_signer(i).share_sign("m") for i in range(3)]
        full = scheme.combine("m", shares)
        assert scheme.verify_full(full, "m")
        before = scheme.verify_cache_stats()["hits"]
        assert scheme.verify_full(full, "m")
        assert scheme.verify_cache_stats()["hits"] == before + 1
        assert not scheme.verify_full(full, "other-message")


class TestSweepCli:
    def test_sweep_cli_smoke_and_resume(self, tmp_path, capsys):
        from repro.__main__ import main

        cache = str(tmp_path / "cache")
        argv = [
            "sweep",
            "--protocol",
            "lyra",
            "--n",
            "4",
            "--seeds",
            "1",
            "--cache-dir",
            cache,
            "--duration-ms",
            "1500",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 run, 0 cached" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 run, 1 cached" in out

    def test_a_cell_no_cluster_can_run_stops_the_sweep_before_any_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.__main__ as cli

        build = cli.config_from_args
        monkeypatch.setattr(
            cli,
            "config_from_args",
            lambda *a: replace(build(*a), report_quorum=3),
        )
        cache = tmp_path / "cache"
        argv = ["sweep", "--protocol", "lyra,pompe", "--cache-dir", str(cache)]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "pompe cannot honour: report_quorum=3" in captured.err
        assert captured.out == ""
        assert not cache.exists()

    def test_a_cell_that_fails_while_running_exits_1(self, monkeypatch, capsys):
        from repro.__main__ import main

        def crash(self, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(Cluster, "run", crash)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--n", "4", "7", "--duration-ms", "500"])
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert out.count("FAILED: RuntimeError: boom") == 2
        assert "(0 run, 0 cached, 2 failed)" in out

    def test_run_cli_with_protocol_flag(self, capsys):
        from repro.__main__ import main

        assert main(
            ["run", "--protocol", "pompe", "--n", "4", "--duration-ms", "1500"]
        ) == 0
        out = capsys.readouterr().out
        assert "# RUN — pompe n=4 seed=1" in out and "throughput=" in out

    def test_cli_rejects_unknown_protocol(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["run", "--protocol", "nope", "--duration-ms", "1500"])
