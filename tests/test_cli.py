"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.harness import experiments as exp


class TestCli:
    def test_rounds_subcommand(self, capsys):
        """``experiment <name>`` prints that experiment's tables only."""
        assert main(["experiment", "rounds"]) == 0
        out = capsys.readouterr().out
        assert "## LAT3" in out
        assert "lyra_decide_rounds" in out
        assert out.count("\n## ") == 1

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

    def test_no_name_runs_every_section_in_table_order(self, capsys, monkeypatch):
        stub = {
            name: tuple(
                section._replace(rows=lambda: {"stub": 1}, chart=None)
                for section in sections
            )
            for name, sections in exp.EXPERIMENTS.items()
        }
        monkeypatch.setattr(exp, "EXPERIMENTS", stub)
        assert main(["experiment"]) == 0
        out = capsys.readouterr().out
        titles = [s.title for sections in stub.values() for s in sections]
        printed = [line[3:] for line in out.splitlines() if line.startswith("## ")]
        assert printed == titles

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
    def test_distance_subcommand_writes_artifact(self, tmp_path, capsys, monkeypatch):
        """``--out`` writes ``{name: [{"title", "rows"}]}`` and the rows
        reproduce the printed table."""
        monkeypatch.delenv("REPRO_FULL", raising=False)
        path = tmp_path / "ABLATION_distance_error.json"
        assert main(["experiment", "distance", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        blob = json.loads(path.read_text(encoding="utf-8"))
        assert list(blob) == ["distance"]
        [section] = blob["distance"]
        assert section["title"] == "DIST — estimator error vs λ-validation failures"
        assert exp.format_rows(section["rows"]) in out
        # Quick mode: the probe baseline plus CI's gossip budgets at n=8.
        rows = section["rows"]
        assert [(r["mode"], r["rounds"]) for r in rows] == [
            ("probe", "-"),
            ("gossip", 1),
            ("gossip", 4),
        ]
        assert rows[1]["converged_nodes"] == 8
