"""Smoke test of the ledger pipeline (not part of tier-1; run explicitly):

    python -m pytest benchmarks/ledger

Runs ``run.py --smoke`` once (every workload at n=4, <=2 s simulated) and
checks the report's schema against ``BENCHMARK.json``, the layer closure,
the driver-contract output lines and ``compare.py`` on a report against
itself.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from layers import LAYERS

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=REPO, timeout=120
    )


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "report.json"
    proc = _run(str(HERE / "run.py"), "--smoke", "--reps", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return out, json.loads(out.read_text())


def test_spec_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]] + sorted(END_TO_END | PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert "setup_s" in END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_report_names_match_spec_both_ways(smoke_report):
    _, data = smoke_report
    assert set(data["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, record in data["workloads"].items():
        assert set(record["end_to_end"]) == END_TO_END, name
        assert set(record["per_layer"]) == PER_LAYER, name
        for row in record["end_to_end"].values():
            assert {"value", "q1", "q3", "n", "unit", "clock"} <= set(row)
            assert row["clock"] in ("host", "sim")
        assert record["correct"], record["checks"]
        assert record["ops_attempted"] >= 1
    assert data["environment"]["fingerprint"] and data["environment"]["nproc"]


def test_layer_shares_close(smoke_report):
    _, data = smoke_report
    for name, record in data["workloads"].items():
        layer = {k: v["value"] for k, v in record["per_layer"].items()}
        total = sum(layer[f"{l}.self_share"] for l in LAYERS)
        assert abs(total - 1.0) <= layer["trace.closure_error"] + 1e-9, name
        assert layer["trace.overhead_ratio"] > 1.0, name
    pompe = data["workloads"]["pompe_n100_closed"]["per_layer"]
    assert pompe["core.commit.self_share"]["value"] == 0.0
    assert pompe["core.commit.calls"]["value"] == 0


def test_compare_report_with_itself_is_all_unchanged(smoke_report):
    path, _ = smoke_report
    proc = _run(str(HERE / "compare.py"), str(path), str(path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [line.split()[-1] for line in proc.stdout.splitlines()[1:-1]]
    assert verdicts and set(verdicts) <= {"unchanged", "ok"}, proc.stdout


@pytest.mark.parametrize("trace,expected", [("0", END_TO_END), ("1", PER_LAYER)])
def test_driver_contract_line(trace, expected):
    proc = _run(
        str(HERE / "run.py"), "--smoke", "--workload", "lyra_n7_chaos",
        "--seed", "3", "--seconds", "1", "--trace", trace,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, row in result["metrics"].items():
        assert set(row) == {"value", "unit"} and row["unit"] == units[name]
        assert isinstance(row["value"], (int, float))
