"""Tests for the repro.bench table: row schema, the determinism oracle,
the one baseline check, the table's own invariants, and every quick row
against its pin."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.bench import suite
from repro.bench.suite import (
    BENCH_SCHEMA_VERSION,
    CELLS,
    PINNED_FIELDS,
    Row,
    check_against_baseline,
    default_output_path,
    prefix_digest,
    run_row,
    write_report,
)
from repro.harness.config import ExperimentConfig
from repro.sim.engine import MILLISECONDS

REPO = Path(__file__).resolve().parents[1]
BASELINE = REPO / "benchmarks" / "bench_baseline.json"


def _small_config(**overrides):
    base = dict(
        n_nodes=4,
        seed=1,
        batch_size=10,
        clients_per_node=1,
        client_window=5,
        duration_us=800 * MILLISECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestMacroCell:
    def test_schema_and_determinism(self):
        cell_a = run_row(_small_config())
        cell_b = run_row(_small_config())
        for key in (
            "n",
            "seed",
            "duration_ms",
            "events",
            "committed",
            "prefix_sha256",
            "invariant_violations",
            "safety_violation",
            "caches",
        ):
            assert key in cell_a
        assert cell_a["n"] == 4
        assert cell_a["events"] > 0
        assert cell_a["safety_violation"] is None
        assert cell_a["invariant_violations"] == []
        # The bit-determinism oracle: same config, same decided prefixes.
        assert cell_a["prefix_sha256"] == cell_b["prefix_sha256"]
        assert cell_a["events"] == cell_b["events"]
        # Cache layers report hits/misses through the suite.
        assert "feldman_verify" in cell_a["caches"]
        assert cell_a["caches"]["feldman_verify"]["hits"] >= 0

    def test_prefix_digest_sensitive_to_output(self):
        class FakeNode:
            def __init__(self, pid, out):
                self.pid = pid
                self._out = out

            def output_sequence(self):
                return self._out

        class FakeCluster:
            def __init__(self, outs):
                self.nodes = [FakeNode(pid, o) for pid, o in enumerate(outs)]

        a = prefix_digest(FakeCluster([[(0, b"aa")], [(0, b"aa")]]))
        same = prefix_digest(FakeCluster([[(0, b"aa")], [(0, b"aa")]]))
        different = prefix_digest(FakeCluster([[(0, b"aa")], [(1, b"aa")]]))
        assert a == same
        assert a != different


class TestReportIo:
    def test_write_report_round_trips(self, tmp_path):
        report = {"schema": BENCH_SCHEMA_VERSION, "macro": {}}
        path = write_report(report, tmp_path / "BENCH_test.json")
        assert json.loads(path.read_text()) == report

    def test_default_output_path_shape(self, tmp_path):
        path = default_output_path(tmp_path)
        assert path.name.startswith("BENCH_")
        assert path.suffix == ".json"


def _report(prefix="ab" * 32, violations=(), safety=None, name="cell"):
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "macro": {
            name: {
                "n": 4,
                "seed": 1,
                "duration_ms": 800,
                "events": 3958,
                "committed": 20,
                "prefix_sha256": prefix,
                "invariant_violations": list(violations),
                "safety_violation": safety,
            }
        },
    }


class TestCheckAgainstBaseline:
    """One test per failure mode of the one check."""

    def test_identical_passes(self):
        assert check_against_baseline(_report(), _report()) == []

    def test_prefix_mismatch_is_hard_failure(self):
        failures = check_against_baseline(_report(prefix="cd" * 32), _report())
        assert len(failures) == 1
        assert "determinism" in failures[0]

    def test_twin_mismatch_fails(self):
        # Both rows equal their pins, but the twin no longer reproduces
        # its base row: the table's claim is what fails.
        base, twin = "goodcase_n4", "goodcase_n4_observed"
        assert CELLS[twin].base == base
        report = _report(name=base)
        report["macro"][twin] = dict(
            report["macro"][base], prefix_sha256="cd" * 32
        )
        failures = check_against_baseline(report, report)
        assert len(failures) == 1
        assert "twin diverged" in failures[0] and failures[0].startswith(twin)

    @pytest.mark.parametrize("key", ["events", "committed"])
    def test_changed_count_fails(self, key):
        # Same digest, different count: a row that commits nothing pins
        # the digest of empty logs, so only its counts can see a change.
        current = _report()
        current["macro"]["cell"][key] += 1
        failures = check_against_baseline(current, _report())
        assert len(failures) == 1
        assert failures[0].startswith(f"cell: {key} ")

    @pytest.mark.parametrize("key", ["events", "committed"])
    def test_twin_count_mismatch_fails(self, key):
        base, twin = "goodcase_n4", "goodcase_n4_observed"
        report = _report(name=base)
        report["macro"][twin] = dict(report["macro"][base])
        report["macro"][twin][key] += 1
        failures = check_against_baseline(report, report)
        assert len(failures) == 1
        assert "twin diverged" in failures[0] and key in failures[0]

    def test_invariant_violation_fails(self):
        current = _report(violations=["prefix divergence at seq 3"])
        failures = check_against_baseline(current, _report())
        assert len(failures) == 1
        assert "invariant" in failures[0]

    def test_safety_violation_fails(self):
        current = _report(safety="pid 1 diverged")
        failures = check_against_baseline(current, _report())
        assert len(failures) == 1
        assert "safety" in failures[0]

    def test_row_missing_from_baseline_fails(self):
        baseline = _report(name="other")
        failures = check_against_baseline(_report(), baseline)
        assert len(failures) == 1
        assert "no pinned digest" in failures[0]

    def test_expected_violation_that_runs_clean_fails(self):
        # The corpus's calibration row must be flagged: a clean run means
        # the oracle lost the bug class it is there to catch.
        name = "corpus_pb-forge-inflate-weakened"
        assert CELLS[name].expect_violation
        failures = check_against_baseline(_report(name=name), _report(name=name))
        assert len(failures) == 1
        assert "expected a violation" in failures[0]

    def test_expected_violation_reproduces_its_pin(self):
        name = "corpus_pb-forge-inflate-weakened"
        flagged = _report(name=name, violations=["prefix-agreement: x"])
        assert check_against_baseline(flagged, flagged) == []
        moved = _report(name=name, violations=["ordered-output: y"])
        failures = check_against_baseline(moved, flagged)
        assert len(failures) == 1 and "violations" in failures[0]

    def test_plain_row_reporting_a_violation_fails_against_its_own_pin(self):
        # A row without ``expect_violation`` must run clean, even when its
        # pin recorded the same violation.
        name = "corpus_pb-forge-stale"
        assert not CELLS[name].expect_violation
        flagged = _report(name=name, violations=["reveal-before-commit: x"])
        failures = check_against_baseline(flagged, flagged)
        assert len(failures) == 1 and "invariant violation" in failures[0]

    def test_unknown_cell_in_baseline_ignored(self):
        # A quick run skips the full-only rows the baseline still pins.
        baseline = _report()
        baseline["macro"]["other"] = dict(baseline["macro"]["cell"])
        assert check_against_baseline(_report(), baseline) == []


class TestCellsTable:
    def test_twins_differ_from_base_only_in_digest_neutral_fields(self):
        # A twin may only be declared on a change that must not move the
        # digest: observability on.
        twins = 0
        for name, row in CELLS.items():
            base = row.base
            if base is None:
                continue
            twins += 1
            assert CELLS[base].base is None, f"{name}: base {base} is a twin"
            assert row.protocol == CELLS[base].protocol, name
            twin_cfg, base_cfg = row.build(), CELLS[base].build()
            changed = {
                f.name
                for f in dataclasses.fields(ExperimentConfig)
                if getattr(twin_cfg, f.name) != getattr(base_cfg, f.name)
            }
            assert changed, f"{name}: identical to {base}"
            assert changed <= {"tracing"}, (
                f"{name}: differs from {base} in {sorted(changed)}"
            )
        assert twins >= 1

    def test_every_row_pinned_in_checked_in_baseline(self):
        pins = json.loads(BASELINE.read_text())["macro"]
        assert set(pins) == set(CELLS)
        for name, row in CELLS.items():
            pin = pins[name]
            assert len(pin["prefix_sha256"]) == 64
            cfg = row.build()
            assert (pin["protocol"], pin["n"], pin["seed"], pin["duration_ms"]) == (
                row.protocol,
                cfg.n_nodes,
                cfg.seed,
                cfg.duration_us // 1000,
            ), name
            assert isinstance(pin["events"], int) and pin["events"] > 0, name
            assert isinstance(pin["committed"], int), name
            assert set(PINNED_FIELDS) <= set(pin), name
            if row.base is not None:
                for key in PINNED_FIELDS:
                    assert pin[key] == pins[row.base][key], (name, key)

    def test_corpus_rows_are_the_corpus_cases(self):
        """Every ``CORPUS`` case is a ``corpus_<name>`` row with the same
        config at seed 1 and the same expected verdict, and the fuzz rows
        are the generator's first seeds.  Only configs are compared."""
        from repro.attacks.corpus import CORPUS
        from repro.attacks.fuzz import generate_schedule

        for name, case in CORPUS.items():
            row = CELLS[f"corpus_{name}"]
            assert row.protocol == "lyra" and not row.full_only, name
            assert row.build() == case.schedule(1), name
            assert row.expect_violation == case.expect_violation, name
        fuzz = sorted(int(name[5:]) for name in CELLS if name.startswith("fuzz_"))
        assert fuzz == list(range(15))
        for seed in fuzz:
            assert CELLS[f"fuzz_{seed}"].build() == generate_schedule(seed)
        flagged = [name for name, row in CELLS.items() if row.expect_violation]
        assert flagged == ["corpus_pb-forge-inflate-weakened"]

    def test_smoke_rows_are_the_ledger_smoke_shapes(self):
        """Each ``<workload>_smoke`` row builds the ledger workload's smoke
        config, so the pinned run cannot drift from the benchmark's.  Only
        the configs are compared; nothing runs."""
        path = REPO / "benchmarks" / "ledger" / "workloads.py"
        spec = importlib.util.spec_from_file_location("_ledger_workloads", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look themselves up
        spec.loader.exec_module(module)
        for name, workload in module.WORKLOADS.items():
            row = CELLS[f"{name}_smoke"]
            assert row.protocol == workload.protocol, name
            assert row.build() == workload.build(1, True), name


@pytest.mark.parametrize(
    "name", [name for name, row in CELLS.items() if not row.full_only]
)
def test_quick_row_reproduces_its_pin(name):
    """The tier-1 form of ``repro bench --quick --check-against``: the row
    (and a twin's base row) through the one check, against the one pin
    file.  A digest, count or fingerprint that moves fails here."""
    base = CELLS[name].base
    names = [base, name] if base else [name]
    rows = {n: run_row(CELLS[n].build(), CELLS[n].protocol) for n in names}
    baseline = json.loads(BASELINE.read_text())
    assert check_against_baseline({"macro": rows}, baseline) == []


class TestBenchCommand:
    def test_quick_run_checks_table_rows_in_order(
        self, tmp_path, monkeypatch, capsys
    ):
        table = {
            "small": Row(_small_config),
            "small_observed": Row(
                lambda: _small_config(tracing=True), base="small"
            ),
            "big": Row(lambda: _small_config(n_nodes=7), full_only=True),
        }
        monkeypatch.setattr(suite, "CELLS", table)
        out = tmp_path / "BENCH_quick.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert list(report["macro"]) == ["small", "small_observed"]
        digest = report["macro"]["small"]["prefix_sha256"]
        assert report["macro"]["small_observed"]["prefix_sha256"] == digest

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(report))
        argv = ["bench", "--quick", "--out", str(out)]
        argv += ["--check-against", str(baseline)]
        assert main(argv) == 0
        assert "PASS" in capsys.readouterr().out

        report["macro"]["small"]["prefix_sha256"] = "cd" * 32
        baseline.write_text(json.dumps(report))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_passing_check_names_rows_that_commit_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        # Clients start after the 300 ms warm-up, so the 200 ms row
        # commits nothing and its digest pins empty logs.
        def sized(ms):
            return lambda: _small_config(duration_us=ms * MILLISECONDS)

        table = {"busy": Row(sized(1500)), "idle": Row(sized(200))}
        monkeypatch.setattr(suite, "CELLS", table)
        out = tmp_path / "BENCH_quick.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["macro"]["idle"]["committed"] == 0
        assert report["macro"]["busy"]["committed"] > 0
        capsys.readouterr()
        argv = ["bench", "--quick", "--out", str(out), "--check-against", str(out)]
        assert main(argv) == 0
        out_lines = capsys.readouterr().out.splitlines()
        notes = [line for line in out_lines if "note:" in line]
        assert len(notes) == 1 and "idle commits 0" in notes[0]
