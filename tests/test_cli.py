"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, config_from_args, main
from repro.harness import experiments as exp
from repro.harness.config import ExperimentConfig
from repro.net.faults import CrashEvent, FaultPlan, LinkFault
from repro.sim.engine import MILLISECONDS as MS
from repro.workload.spec import ClientGroup, WorkloadSpec


def _exit_code(argv) -> int:
    """``main``'s exit status, whether it returns or raises ``SystemExit``."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _run_config(argv) -> ExperimentConfig:
    args = build_parser().parse_args(["run", *argv])
    return config_from_args(args, args.n, args.seed)


def _closed_loop(duration_ms, **overrides) -> ExperimentConfig:
    """The closed-loop rig `chaos`, `report` and `run` built from flags."""
    rig = dict(
        n_nodes=4,
        seed=1,
        batch_size=10,
        clients_per_node=1,
        client_window=5,
        duration_us=duration_ms * MS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MS,
    )
    return ExperimentConfig(**{**rig, **overrides})


def _traffic(rate_tps, users):
    return ClientGroup(
        name="traffic",
        client="arrival",
        count_per_node=1,
        arrival={"kind": "poisson", "rate_tps": rate_tps},
        body="raw",
        users=users,
    )


#: The invocations ``run`` replaced, each as ``run`` flags beside the
#: config its old subcommand built.
REPLACED_INVOCATIONS = {
    # CI's chaos smoke: `chaos` implied reorder 0.02 and reliable channels.
    "chaos-ci-smoke": (
        "--seed 1 --loss 0.15 --dup 0.05 --reorder 0.02 --corrupt 0.02 "
        "--crash 2:2000:3000 --duration-ms 5000 --batch 8 --window 4",
        lambda: _closed_loop(
            5000,
            batch_size=8,
            client_window=4,
            fault_plan=FaultPlan(
                links=(LinkFault(0.15, 0.05, 0.02, corrupt_rate=0.02),),
                crashes=(CrashEvent(2, 2000 * MS, 3000 * MS),),
            ),
            reliable_channels=True,
        ),
    ),
    # CI's workload smoke.
    "workload-ci-smoke": (
        "--arrival poisson --n 4 --offered-tps 100 --users 1000000 "
        "--duration-ms 2500 --seed 1",
        lambda: ExperimentConfig(
            n_nodes=4,
            seed=1,
            batch_size=10,
            duration_us=2500 * MS,
            warmup_rounds=2,
            warmup_spacing_us=150 * MS,
            workload=WorkloadSpec(
                groups=(_traffic(25.0, 1_000_000),), fairness=True, users=1_000_000
            ),
        ),
    ),
    # tests/test_chaos.py's CLI call, with `chaos`'s implied rates.
    "chaos-test": (
        "--loss 0.1 --dup 0.02 --reorder 0.02 --corrupt 0.01 "
        "--crash 2:1500:2500 --duration-ms 4000 --batch 8 --window 3",
        lambda: _closed_loop(
            4000,
            batch_size=8,
            client_window=3,
            fault_plan=FaultPlan(
                links=(LinkFault(0.1, 0.02, 0.02, corrupt_rate=0.01),),
                crashes=(CrashEvent(2, 1500 * MS, 2500 * MS),),
            ),
            reliable_channels=True,
        ),
    ),
    # `report --delay-ms 10`: a fresh traced run on uniform 10 ms links.
    "report-delay": (
        "--trace --delay-ms 10",
        lambda: _closed_loop(
            4000,
            tracing=True,
            uniform_delay_us=10 * MS,
            delta_us=10 * MS,
        ),
    ),
    # The ledger's lyra_n7_mev_open shape.
    "workload-mev": (
        "--arrival poisson --mev --n 7 --offered-tps 150 --duration-ms 6000",
        lambda: ExperimentConfig(
            n_nodes=7,
            seed=1,
            batch_size=1,
            duration_us=6000 * MS,
            warmup_rounds=2,
            warmup_spacing_us=150 * MS,
            regions=["tokyo", "singapore"] + ["saopaulo"] * 5,
            workload=WorkloadSpec(
                groups=(
                    _traffic(150 / 7, 1000),
                    ClientGroup(
                        name="victims",
                        client="arrival",
                        count=1,
                        home=0,
                        arrival={"kind": "poisson", "rate_tps": 2.0},
                        body="amm",
                        body_params={"amount_min": 1_000, "amount_max": 5_000},
                    ),
                    ClientGroup(name="mev", client="mev", count=1, home=1, collude=True),
                ),
                fairness=True,
                users=1000,
            ),
        ),
    ),
}


class TestCli:
    def test_rounds_subcommand(self, capsys):
        """``experiment <name>`` prints that experiment's tables only,
        then the summary of its claims."""
        assert main(["experiment", "rounds"]) == 0
        out = capsys.readouterr().out
        assert "## LAT3" in out
        assert "lyra_decide_rounds" in out
        assert out.count("\n## ") == 2
        assert "\n## Summary\n" in out and "| LAT3 |" in out

    def test_fig3_subcommand_prints_table_and_chart(self, capsys):
        assert main(["experiment", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "lyra_ktps" in out
        assert "o lyra" in out  # the ASCII chart legend
        assert "## FIG 3 — message-level validation (n=4)" in out

    def test_batch_subcommand(self, capsys):
        assert main(["experiment", "batch"]) == 0
        out = capsys.readouterr().out
        assert "batch_fill_ms" in out

    def test_out_writes_the_printed_rows(self, tmp_path, capsys):
        """``--out`` writes ``{name: [{"title", "rows"}]}`` and the rows
        reproduce the printed table."""
        path = tmp_path / "rounds.json"
        assert main(["experiment", "rounds", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        blob = json.loads(path.read_text(encoding="utf-8"))
        assert list(blob) == ["rounds", "summary"]
        [section] = blob["rounds"]
        assert section["title"] == "LAT3 — good-case message delays"
        assert exp.markdown_table(section["rows"]) in out
        assert [row["id"] for row in blob["summary"]] == ["LAT3"]
        assert exp.markdown_table(blob["summary"]) in out

    def test_rounds_and_decomp_replay_from_the_cache(
        self, tmp_path, capsys, monkeypatch
    ):
        """LAT3 and DECOMP are sweep cells: with ``REPRO_CACHE`` set, a
        second run prints the same rows without building a cluster."""
        from repro.harness.cluster import Cluster

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        assert main(["experiment", "rounds", "decomp"]) == 0
        first = capsys.readouterr().out

        def refuse(self, *args, **kwargs):
            raise AssertionError("a cached cell built a cluster")

        monkeypatch.setattr(Cluster, "__init__", refuse)
        assert main(["experiment", "rounds", "decomp"]) == 0
        assert capsys.readouterr().out == first

    def test_no_name_runs_every_section_in_table_order(self, capsys, monkeypatch):
        stub = {
            name: experiment._replace(
                sections=tuple(
                    section._replace(rows=lambda: {"stub": 1}, chart=None)
                    for section in experiment.sections
                ),
                claims=(),
            )
            for name, experiment in exp.EXPERIMENTS.items()
        }
        monkeypatch.setattr(exp, "EXPERIMENTS", stub)
        assert main(["experiment"]) == 0
        out = capsys.readouterr().out
        titles = [s.title for e in stub.values() for s in e.sections]
        printed = [line[3:] for line in out.splitlines() if line.startswith("## ")]
        assert printed == titles + ["Summary"]

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "rounds", "fig9"])
        assert excinfo.value.code == 2
        assert "unknown experiment 'fig9'" in capsys.readouterr().err

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["no-such-thing"])

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_report_fresh_run_prints_phase_table(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        chrome_path = str(tmp_path / "trace.json")
        assert (
            main(
                [
                    "run",
                    "--trace",
                    "--duration-ms",
                    "1500",
                    "--export-trace",
                    trace_path,
                    "--export-chrome",
                    chrome_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Phase latency decomposition" in out
        assert "proposed->decided" in out
        assert "trace events:" in out
        assert (tmp_path / "trace.jsonl").exists()
        assert (tmp_path / "trace.json").exists()

    def test_report_from_trace_jsonl(self, tmp_path, capsys):
        from repro.metrics.tracelog import TraceLog

        log = TraceLog()
        for t, kind in zip(
            (0, 300, 500, 600), ("proposed", "decided", "committed", "executed")
        ):
            log.record(t, 0, kind, (0, 0))
        path = str(tmp_path / "trace.jsonl")
        log.dump_jsonl(path)
        assert main(["run", "--trace-jsonl", path]) == 0
        out = capsys.readouterr().out
        assert "proposed->decided" in out
        assert "total" in out


class TestRun:
    @pytest.mark.parametrize("name", sorted(REPLACED_INVOCATIONS))
    def test_builds_the_config_of_the_replaced_subcommand(self, name):
        flags, expected = REPLACED_INVOCATIONS[name]
        assert _run_config(flags.split()).to_dict() == expected().to_dict()

    def test_fino_jittered_run_exits_0(self, capsys):
        # Seed 2's jitter lets a HotStuff decide overtake its predecessor;
        # blocks are still handed over by height, so replicas agree.
        assert _exit_code(["run", "--protocol", "fino", "--n", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "SAFETY VIOLATION" not in out
        assert out.rstrip().endswith("RESULT: PASS")

    # The epidemic distance estimator's flags and the relay tree's; split
    # so that a search for the retired names finds no live use.
    @pytest.mark.parametrize(
        "flag, old_default",
        [
            ("--distance-mode", "probe"),
            ("--goss" "ip-fanout", "3"),
            ("--goss" "ip-rounds", "6"),
            ("--dissem" "ination", "tree"),
            ("--fan" "out", "3"),
        ],
    )
    def test_retired_flag_is_a_usage_error(self, flag, old_default, capsys):
        assert _exit_code(["run", flag, old_default]) == 2
        assert flag in capsys.readouterr().err

    def test_runs_every_named_protocol(self, capsys):
        argv = ["run", "--protocol", "lyra,pompe", "--n", "4", "--duration-ms", "1500"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "# RUN — lyra n=4 seed=1" in out
        assert "# RUN — pompe n=4 seed=1" in out
        assert out.count("RESULT:") == 1

    def test_fino_open_loop_reports_no_capacity_model(self, capsys):
        argv = ["run", "--protocol", "fino", "--arrival", "poisson", "--n", "4"]
        assert main([*argv, "--duration-ms", "1500"]) == 0
        out = capsys.readouterr().out
        assert "## Fairness: sandwich" in out
        assert "## Fairness: capacity[fino]" in out
        assert "no capacity model for protocol 'fino'" in out

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--protocol", "pompe", "--trace"], "tracing"),
            (["--protocol", "pompe", "--crash", "1:500:900"], "recover_at_us"),
            (["--crash", "nonsense"], "--crash"),
            (["--arrival", "poisson", "--window", "4"], "--window"),
        ],
        ids=["pompe-trace", "pompe-crash-recover", "bad-crash-spec", "arrival-window"],
    )
    def test_rejects_by_name(self, argv, named, capsys):
        assert _exit_code(["run", *argv, "--duration-ms", "500"]) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert "RESULT" not in captured.out

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--batch", "0", "batch_size"),
            ("--lambda-ms", "-1", "lambda_us"),
            ("--duration-ms", "0", "duration_us"),
            ("--window", "0", "client_window"),
            ("--warmup-rounds", "-1", "warmup_rounds"),
            ("--delay-ms", "-1", "delta_us"),
            ("--clients", "-1", "clients_per_node"),
        ],
    )
    def test_impossible_config_is_a_usage_error(self, flag, value, field, capsys):
        assert _exit_code(["run", flag, value]) == 2
        captured = capsys.readouterr()
        assert f"{field} must be >= " in captured.err
        assert "RESULT" not in captured.out

    def test_lossy_pompe_is_a_verdict_not_a_rejection(self, capsys):
        """Pompē honours a fault plan: under loss a retransmitted decide
        lands after its successor's, HotStuff still hands blocks over by
        height, and the run passes."""
        assert _exit_code(["run", "--protocol", "pompe", "--loss", "0.1"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("RESULT: PASS")
