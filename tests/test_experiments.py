"""Tests for the experiment entry points (one per paper artefact), the
good-case round measurements, and the checked-in artefacts that hold
every paper number."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.harness.experiments import (
    batch_ablation,
    fig2_commit_latency,
    fig3_sim_validation,
    fig3_throughput,
    goodcase_latency_rounds,
    jitter_sensitivity,
    lambda_ablation,
    markdown_table,
    obfuscation_ablation,
    render_markdown,
    summarise,
    warmup_bias,
)

ROOT = Path(__file__).resolve().parents[1]


class TestGoodCaseRounds:
    """§III-§IV: Lyra's BOC decides in 3 message delays — the paper's
    optimality claim (Theorem 3) versus Pompē's ~11 rounds."""

    def test_lyra_three_rounds(self):
        rounds = goodcase_latency_rounds(n=4, delay_ms=40)["lyra_decide_rounds"]
        assert 2.9 <= rounds <= 3.2, rounds

    def test_lyra_three_rounds_larger_cluster(self):
        rounds = goodcase_latency_rounds(n=7, delay_ms=40)["lyra_decide_rounds"]
        assert 2.9 <= rounds <= 3.2, rounds

    def test_pompe_about_eleven_rounds(self):
        rounds = goodcase_latency_rounds(n=4, delay_ms=40)["pompe_commit_rounds"]
        assert 9.0 <= rounds <= 13.0, rounds

    def test_summary_row(self):
        row = goodcase_latency_rounds(n=4, delay_ms=40)
        assert row["lyra_decide_rounds"] < row["pompe_commit_rounds"]
        assert row["paper_lyra"] == 3 and row["paper_pompe"] == 11


@pytest.mark.slow
class TestFig2:
    def test_quick_sweep_sane(self):
        rows = fig2_commit_latency([4, 7])
        assert len(rows) == 2
        for row in rows:
            assert row["lyra_safety"] is None
            assert row["pompe_safety"] is None
            # Lyra: sub-second average commit latency (§VI-C).
            assert 0 < row["lyra_latency_ms"] < 1000
            assert 0 < row["pompe_latency_ms"] < 4000
            # Pompē never meaningfully beats Lyra.
            assert row["ratio"] > 0.85

    def test_lyra_latency_stable_across_n(self):
        rows = fig2_commit_latency([4, 10])
        lats = [r["lyra_latency_ms"] for r in rows]
        assert max(lats) < 1.5 * min(lats)  # "relatively stable" (§VI-C)


class TestFig3:
    def test_paper_rows_shape(self):
        rows = fig3_throughput()
        by_n = {r["n"]: r for r in rows}
        assert by_n[100]["ratio"] >= 5.0
        assert by_n[5]["ratio"] < 1.0
        lyra = [r["lyra_ktps"] for r in rows]
        assert lyra == sorted(lyra)

    def test_custom_ns(self):
        rows = fig3_throughput([10, 20])
        assert [r["n"] for r in rows] == [10, 20]

    def test_sim_validation_both_protocols_commit(self):
        row = fig3_sim_validation(4)
        assert row["lyra_tps"] > 0
        assert row["pompe_tps"] > 0


class TestAblations:
    @pytest.mark.slow
    def test_lambda_five_ms_suffices(self):
        rows = lambda_ablation((2, 5, 50), n=4)
        by_lambda = {r["lambda_ms"]: r for r in rows}
        # §VI-B: λ = 5 ms does not hurt performance: acceptance at 5 ms is
        # as good as with a very loose λ.
        assert by_lambda[5]["acceptance_rate"] == by_lambda[50]["acceptance_rate"]
        assert by_lambda[5]["committed"] > 0
        # Acceptance is monotone in λ.
        rates = [r["acceptance_rate"] for r in rows]
        assert rates == sorted(rates)

    def test_jitter_sensitivity(self):
        """How much per-link WAN jitter the λ = 5 ms budget tolerates: [26]
        measures sub-millisecond RTT variation on stable WAN paths, well
        inside the regime where acceptance stays at 1.0."""
        rows = jitter_sensitivity((0.0, 0.01, 0.03, 0.06))
        by_jitter = {r["jitter"]: r for r in rows}
        assert by_jitter[0.01]["acceptance_rate"] == 1.0
        # Degradation is monotone; heavy jitter breaks predictions.
        rates = [r["acceptance_rate"] for r in rows]
        assert rates == sorted(rates, reverse=True)

    def test_batch_ablation_shape(self):
        rows = batch_ablation((1, 100, 800, 3200), n=100)
        by_batch = {r["batch"]: r for r in rows}
        # Tiny batches cannot amortise per-instance costs.
        assert by_batch[800]["lyra_ktps"] > 5 * by_batch[1]["lyra_ktps"]
        # Past the knee, throughput gains flatten while fill time grows.
        gain = by_batch[3200]["lyra_ktps"] / by_batch[800]["lyra_ktps"]
        assert gain < 1.5
        assert by_batch[3200]["batch_fill_ms"] == 4 * by_batch[800]["batch_fill_ms"]


    def test_obfuscation_rows(self):
        by_scheme = {r["scheme"]: r for r in obfuscation_ablation()}
        assert by_scheme["vss"]["safety"] is None
        assert by_scheme["hash"]["safety"] is None
        # Hash commitments commit faster (no quorum reveal round)...
        assert by_scheme["hash"]["latency_ms"] <= by_scheme["vss"]["latency_ms"]
        # ...but only the proposer can open them.
        assert by_scheme["hash"]["reveal_quorum"] == "proposer only"
        assert by_scheme["vss"]["reveal_quorum"] == "2f+1 replicas"


class TestWarmupBias:
    def test_recovers_after_gst(self):
        """§VI-D's network adversary: biased warm-up measurements get the
        victim's proposals rejected, then re-probing recovers them
        post-GST."""
        row = warmup_bias()
        assert row["safety_violation"] is None
        assert row["live_after_gst"]


class TestFormatting:
    def test_markdown_table(self):
        assert markdown_table([{"a": 1}, {"a": 22, "c": None}]).splitlines() == [
            "| a | c |",
            "|---|---|",
            "| 1 |  |",
            "| 22 | None |",
        ]
        assert markdown_table([]) == "(no rows)"

    def test_render_markdown_refuses_missing_and_unknown_blocks(self):
        artefact = {"rounds": [{"title": "t", "rows": [{"a": 1}]}], "summary": []}
        block = "<!-- generated {0} -->\n<!-- /generated {0} -->\n".format
        with pytest.raises(ValueError, match=r"no generated block for \['rounds.0'\]"):
            render_markdown(block("summary"), artefact)
        with pytest.raises(ValueError, match="no table for block 'fig9.0'"):
            render_markdown(block("summary") + block("fig9.0"), artefact)


class TestArtefacts:
    """``EXPERIMENTS_quick.json`` and ``EXPERIMENTS_full.json`` hold every
    paper number: tier-1 regenerates the quick one, CI the full one, and
    EXPERIMENTS.md's tables are rendered from the full one."""

    def test_quick_artefact_regenerates_byte_for_byte(self, tmp_path, monkeypatch):
        for var in ("REPRO_FULL", "REPRO_CACHE", "REPRO_WORKERS"):
            monkeypatch.delenv(var, raising=False)
        out = tmp_path / "quick.json"
        assert main(["experiment", "--out", str(out)]) == 0
        expected = (ROOT / "EXPERIMENTS_quick.json").read_text(encoding="utf-8")
        assert out.read_text(encoding="utf-8") == expected

    def test_experiments_md_tables_render_from_the_full_artefact(self):
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        full = json.loads((ROOT / "EXPERIMENTS_full.json").read_text(encoding="utf-8"))
        assert render_markdown(text, full) == text
        summary = full.pop("summary")
        assert summary == summarise(full)
        for row in summary:  # a model can at most agree
            assert "model" not in row["provenance"] or "model" in row["verdict"], row
