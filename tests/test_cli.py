"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_rounds_subcommand(self, capsys):
        assert main(["rounds"]) == 0
        out = capsys.readouterr().out
        assert "LAT3" in out
        assert "lyra_decide_rounds" in out

    def test_fig3_subcommand_prints_table_and_chart(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "lyra_ktps" in out
        assert "o lyra" in out  # the ASCII chart legend

    def test_batch_subcommand(self, capsys):
        assert main(["batch"]) == 0
        out = capsys.readouterr().out
        assert "batch_fill_ms" in out

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
                    "report",
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
        assert main(["report", "--trace-jsonl", path]) == 0
        out = capsys.readouterr().out
        assert "proposed->decided" in out
        assert "total" in out


class TestDistanceCli:
    def test_distance_subcommand_writes_artifact(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "ABLATION_distance_error.json")
        assert (
            main(
                [
                    "distance",
                    "--n",
                    "4",
                    "--seed",
                    "3",
                    "--rounds",
                    "2",
                    "--out",
                    path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "DIST" in out
        assert "lambda_failure_rate" in out
        blob = json.loads(open(path).read())
        rows = blob["rows"]
        # One probe baseline row plus the swept gossip budget.
        assert [r["mode"] for r in rows] == ["probe", "gossip"]
        assert rows[1]["rounds"] == 2
        assert rows[1]["converged_nodes"] == 4
