"""The ledger: end-to-end host/sim metrics and per-layer attribution.

    PYTHONPATH=src python benchmarks/ledger/run.py [--seed S] [--reps K]
        [--workload NAME] [--out FILE] [--record] [--smoke]

runs every workload ``K`` times untraced (fresh subprocess each), once more
under the tracer, runs the direct-call probes, checks correctness, prints
every metric by name with its unit and writes one JSON report.  Exit status
is non-zero when a correctness check fails; the report is written anyway.

The benchmark driver calls the same file as

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds T --trace 0|1

and reads one JSON object from the last line of stdout: the end-to-end
metrics with ``--trace 0`` (``ceil(T / nominal seconds per repetition)``
untraced repetitions on sub-seeds of ``N``, pooled), the per-layer metrics
with ``--trace 1`` (one untraced and one traced repetition of ``N`` plus the
probes).

There are two clocks and every metric says which it uses: *host* time is
what a researcher waits for; *sim* time is what the modelled protocol would
take and is exact for a given seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC_PATH = REPO / "BENCHMARK.json"
HISTORY_PATH = HERE / "history.jsonl"
BASELINE_PATH = REPO / "benchmarks" / "bench_baseline.json"

REPORT_SCHEMA = 1
DEFAULT_REPS = 3
#: ``setup_s`` is the median of at least this many fresh-process set-ups.
SETUP_SAMPLES = 7
CELL_TIMEOUT_S = 170
#: A repetition whose CPU time is below this share of its wall time shared
#: the host with something else; it is flagged in the report.
CONTENDED_CPU_SHARE = 0.9

#: Simulation-seed distance between the sub-seeded repetitions of one run.
SEED_STRIDE = 7919


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def spawn_cell(name: str, seed: int, mode: str, smoke: bool) -> Dict[str, Any]:
    """Run ``cell.py`` in a fresh interpreter and parse its result line."""
    cmd = [
        sys.executable,
        str(HERE / "cell.py"),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--mode",
        mode,
    ]
    if smoke:
        cmd.append("--smoke")
    # A fixed hash seed keeps str-keyed dict layout — and with it one
    # source of run-to-run timing spread — the same in every repetition.
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, timeout=CELL_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{name} ({mode}) exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: List[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and sample count."""
    median = statistics.median(values)
    q1 = q3 = median
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def _pinned_digest_checks(workload, digest: str) -> List[Dict[str, Any]]:
    """Seed-1 digest oracles: the pin in ``workloads.py`` and, where the
    shape matches a ``bench_baseline.json`` cell, that cell's digest."""
    checks = []
    if workload.seed1_digest is not None:
        checks.append(
            _check(
                "digest_pinned",
                digest == workload.seed1_digest,
                f"{digest} vs pinned {workload.seed1_digest}",
            )
        )
    if workload.baseline_cell is not None and BASELINE_PATH.exists():
        with open(BASELINE_PATH) as fh:
            cell = json.load(fh)["macro"][workload.baseline_cell]
        checks.append(
            _check(
                "digest_matches_bench_baseline",
                digest == cell["prefix_sha256"],
                f"{digest} vs {workload.baseline_cell} {cell['prefix_sha256']}",
            )
        )
    return checks


def _check(name: str, ok: bool, detail: str = "") -> Dict[str, Any]:
    return {"name": name, "ok": bool(ok), "detail": "" if ok else detail}


def _sim_metrics(runs: List[Dict[str, Any]]) -> Dict[str, float]:
    """Sim-clock metrics of one or more repetitions: percentiles of the
    pooled submit->reply sample, mean windowed throughput."""
    from repro.metrics.stats import percentile

    pooled = [lat for run in runs for lat in run["latencies_us"]]
    return {
        "sim_commit_latency_p50_ms": percentile(pooled, 50) / 1000.0,
        "sim_commit_latency_p90_ms": percentile(pooled, 90) / 1000.0,
        "sim_throughput_tps": statistics.fmean(run["throughput_tps"] for run in runs),
    }


def _host_metrics(run: Dict[str, Any]) -> Dict[str, float]:
    return {
        "wall_s_per_sim_s": run["wall_s"] / run["sim_s"],
        "wall_us_per_committed_tx": run["wall_s"] * 1e6 / max(1, run["committed"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def _deterministic_part(run: Dict[str, Any]) -> Dict[str, Any]:
    """Everything in a cell result that must not differ between repetitions
    of one seed."""
    return {
        key: run[key]
        for key in (
            "digest",
            "latencies_us",
            "throughput_tps",
            "counters",
            "ops_attempted",
            "ops_failed",
            "committed",
        )
    }


def _run_checks(run: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Correctness of one repetition's outputs."""
    checks = [
        _check("safety", run["safety_violation"] is None, str(run["safety_violation"])),
        _check(
            "invariants",
            not run["invariant_violations"],
            "; ".join(run["invariant_violations"][:3]),
        ),
        _check("committed_some", run["committed"] > 0, "no transaction committed"),
    ]
    if run["sandwich_successes"] is not None:
        checks.append(
            _check(
                "no_sandwich_succeeds",
                run["sandwich_successes"] == 0,
                f"{run['sandwich_successes']} sandwich attack(s) succeeded",
            )
        )
    return checks


def measure(
    name: str,
    seed: int,
    spec: Dict[str, Any],
    *,
    reps: int,
    sub_seeds: bool = False,
    smoke: bool = False,
    trace: bool = True,
    probe_values: Optional[Dict[str, float]] = None,
    say=lambda _msg: None,
) -> Dict[str, Any]:
    """Run one workload and return its record (see README.md, "Report").

    ``reps`` untraced repetitions, each a fresh subprocess.  By default all
    run ``seed``, so their sim-clock results must be identical (checked)
    and the spread of the host metrics is host noise alone.  With
    ``sub_seeds`` repetition ``i`` runs ``seed + i * SEED_STRIDE``: the
    latency samples are pooled and throughput averaged, which steadies the
    sim-clock metrics of one ``--seed`` against seed-to-seed variation (the
    driver compares runs made with different seeds).  The traced pass and
    the pinned-digest checks always use ``seed`` itself.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    runs: List[Dict[str, Any]] = []
    for i in range(reps):
        say(f"{name}: untraced rep {i + 1}/{reps} ...")
        runs.append(
            spawn_cell(name, seed + i * SEED_STRIDE if sub_seeds else seed, "run", smoke)
        )
    setups = [run["setup_s"] for run in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn_cell(name, seed, "setup", smoke)["setup_s"])

    first = runs[0]
    # Repetitions of one seed are one execution; sub-seeded ones are several.
    executions = runs if sub_seeds else runs[:1]
    checks = [
        dict(check, name=f"{check['name']}[rep{i + 1}]") if sub_seeds else check
        for i, run in enumerate(executions)
        for check in _run_checks(run)
    ]
    # A safety or invariant violation voids every answer of the run.
    void = any(
        run["safety_violation"] is not None or run["invariant_violations"]
        for run in executions
    )
    if not sub_seeds:
        checks.append(
            _check(
                "deterministic_across_reps",
                all(_deterministic_part(r) == _deterministic_part(first) for r in runs),
                "digest, sim-clock results, counters or ops_failed differ between reps",
            )
        )
    if seed == 1 and not smoke:
        checks += _pinned_digest_checks(workload, first["digest"])

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_rep = [{**_host_metrics(run), **_sim_metrics([run])} for run in runs]
    pooled = _sim_metrics(executions)
    end_to_end: Dict[str, Dict[str, Any]] = {}
    for metric, unit in units.items():
        row = summarise(setups if metric == "setup_s" else [r[metric] for r in per_rep])
        if metric in pooled:
            row["value"] = pooled[metric]
        end_to_end[metric] = {
            **row,
            "unit": unit,
            "clock": "sim" if metric in pooled else "host",
        }

    samples = sum(len(run["latencies_us"]) for run in executions)
    attempted = sum(run["ops_attempted"] for run in executions)
    record: Dict[str, Any] = {
        "protocol": workload.protocol,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "digest": first["digest"],
        "wall_s": summarise([run["wall_s"] for run in runs]),
        "committed": sum(run["committed"] for run in executions),
        "latency_samples": samples,
        "latency_samples_beyond_p90": samples - math.ceil(samples * 0.90),
        "ops_attempted": attempted,
        "ops_failed": attempted if void else sum(run["ops_failed"] for run in executions),
        "oldest_unanswered_ms": max(
            (run["oldest_unanswered_ms"] or 0.0 for run in executions), default=0.0
        ),
        "end_to_end": end_to_end,
        "flags": [
            f"rep {i + 1}: cpu {run['cpu_s']:.2f}s of wall {run['wall_s']:.2f}s — host contended"
            for i, run in enumerate(runs)
            if run["cpu_s"] < CONTENDED_CPU_SHARE * run["wall_s"]
        ],
    }

    if trace:
        say(f"{name}: traced pass ...")
        traced = spawn_cell(name, seed, "trace", smoke)
        checks.append(
            _check(
                "traced_run_equal",
                _deterministic_part(traced) == _deterministic_part(first),
                f"traced digest {traced['digest']} vs untraced {first['digest']}, "
                "or sim-clock results / counters differ",
            )
        )
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        base_runs = runs[:1] if sub_seeds else runs  # the repetitions of ``seed``
        values = _per_layer_values(base_runs, traced, probe_values or {})
        checks.append(
            _check(
                "per_layer_names_match_spec",
                set(values) == set(layer_units),
                f"missing {sorted(set(layer_units) - set(values))}, "
                f"extra {sorted(set(values) - set(layer_units))}",
            )
        )
        record["per_layer"] = {
            metric: {"value": value, "unit": layer_units.get(metric, "")}
            for metric, value in values.items()
        }
        record["traced_wall_s"] = traced["wall_s"]

    record["checks"] = checks
    record["correct"] = all(c["ok"] for c in checks)
    return record


def _per_layer_values(
    runs: List[Dict[str, Any]], traced: Dict[str, Any], probe_values: Dict[str, float]
) -> Dict[str, float]:
    """The flat per-layer metric table of one workload."""
    from repro.metrics.stats import percentile

    first = runs[0]
    wall = statistics.median(run["wall_s"] for run in runs)
    traced_wall = traced["wall_s"]
    self_s: Dict[str, float] = traced["trace"]["self_s"]
    values: Dict[str, float] = {}
    for layer, seconds in self_s.items():
        values[f"{layer}.self_s"] = seconds
        # Share of the traced wall, so the shares sum to 1 +- closure_error.
        values[f"{layer}.self_share"] = seconds / traced_wall
    values.update(first["counters"])
    events = first["counters"]["sim.events"]
    calls = traced["trace"]["commit_calls"]
    values["sim.self_us_per_event"] = self_s["sim"] * 1e6 / events if events else 0.0
    values["core.commit.calls"] = calls
    values["core.commit.self_us_per_call"] = (
        self_s["core.commit"] * 1e6 / calls if calls else 0.0
    )
    # p95 sits on a mode boundary of the re-proposal latency distribution
    # (see README.md), so it is reported here and not bounded end to end.
    values["workload.commit_latency_p95_ms"] = (
        percentile(first["latencies_us"], 95) / 1000.0
    )
    values["harness.consolidate_s"] = statistics.median(
        run["consolidate_s"] for run in runs
    )
    values["host.cpu_s"] = statistics.median(run["cpu_s"] for run in runs)
    values["trace.overhead_ratio"] = traced_wall / wall
    values["trace.closure_error"] = abs(sum(self_s.values()) - traced_wall) / traced_wall
    values.update(probe_values)
    return values


# ----------------------------------------------------------------------
# Report, history, tables
# ----------------------------------------------------------------------
def environment() -> Dict[str, Any]:
    from repro.bench.suite import environment_block

    env = environment_block()
    env["nproc"] = len(os.sched_getaffinity(0))
    env["fingerprint"] = hashlib.sha256(
        json.dumps(env, sort_keys=True).encode()
    ).hexdigest()[:16]
    return env


def git_state() -> Dict[str, Any]:
    def git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", "-C", str(REPO), *args], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(status) if status is not None else None}


def print_tables(report: Dict[str, Any]) -> None:
    from layers import LAYERS

    workloads = report["workloads"]  # ``lyra_n32_closed``, the headline, comes first
    for name, record in workloads.items():
        layer = record.get("per_layer")
        if not layer:
            continue
        wall = record["wall_s"]["value"]
        print(f"\n## where {name} wall time goes (traced self time, caller-attributed)")
        print(f"{'layer':<14}{'self_s':>10}{'share':>9}{'~untraced_s':>13}")
        for lname in sorted(LAYERS, key=lambda l: -layer[f"{l}.self_s"]["value"]):
            share = layer[f"{lname}.self_share"]["value"]
            print(
                f"{lname:<14}{layer[f'{lname}.self_s']['value']:>10.3f}"
                f"{share:>9.1%}{share * wall:>13.3f}"
            )
        print(
            f"traced wall {record['traced_wall_s']:.2f}s, untraced median {wall:.2f}s, "
            f"overhead x{layer['trace.overhead_ratio']['value']:.2f}, "
            f"closure error {layer['trace.closure_error']['value']:.4f}"
        )
    print("\n## end-to-end metrics (median [q1, q3] over n; host = wall clock, sim = virtual clock)")
    for name, record in workloads.items():
        print(
            f"\n{name}: {record['committed']} commits, ops failed "
            f"{record['ops_failed']}/{record['ops_attempted']}, "
            f"p90 over {record['latency_samples']} samples "
            f"({record['latency_samples_beyond_p90']} beyond), digest {record['digest'][:12]}"
        )
        for metric, row in record["end_to_end"].items():
            print(
                f"  {metric:<28}{row['value']:>14.4f} {row['unit']:<5} "
                f"[{row['q1']:.4f}, {row['q3']:.4f}] n={row['n']} ({row['clock']})"
            )
        for flag in record["flags"]:
            print(f"  FLAG {flag}")
        for check in record["checks"]:
            if not check["ok"]:
                print(f"  FAIL {check['name']}: {check['detail']}")
    print("\n## per-layer metrics")
    for name, record in workloads.items():
        if "per_layer" not in record:
            continue
        print(f"\n{name}:")
        for metric, row in record["per_layer"].items():
            print(f"  {metric:<40}{row['value']:>18.6g} {row['unit']}")


def history_rows(report: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One append-only trajectory row per workload."""
    return [
        {
            "generated": report["generated"],
            "git_sha": report["git"]["sha"],
            "dirty": report["git"]["dirty"],
            "environment": report["environment"],
            "seed": report["seed"],
            "reps": report["reps"],
            "workload": name,
            "digest": record["digest"],
            "correct": record["correct"],
            "ops_attempted": record["ops_attempted"],
            "ops_failed": record["ops_failed"],
            "end_to_end": record["end_to_end"],
            "per_layer": {
                metric: row["value"] for metric, row in record.get("per_layer", {}).items()
            },
        }
        for name, record in report["workloads"].items()
    ]


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=DEFAULT_REPS)
    ap.add_argument("--workload", default=None, help="one workload (default: all)")
    ap.add_argument("--out", default=None, help="report path (default: ledger_report.json in cwd)")
    ap.add_argument("--record", action="store_true", help="append rows to history.jsonl")
    ap.add_argument("--smoke", action="store_true", help="n=4 shapes for the test file")
    ap.add_argument("--seconds", type=float, default=None, help="driver: measuring budget (sets the repetition count)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None, help="driver: 0 end-to-end, 1 per-layer")
    args = ap.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir() or not SPEC_PATH.exists():
        print(f"run.py: no src/repro or BENCHMARK.json under {REPO}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE))
    from probes import run_probes
    from workloads import WORKLOADS

    spec = load_spec()
    if args.workload is not None and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")

    if args.trace is not None:
        # Driver contract: one workload, one JSON object on the last line.
        if args.workload is None:
            ap.error("--trace needs --workload")
        traced = bool(args.trace)
        # The repetition count comes from ``--seconds`` and a per-workload
        # constant, never from how fast this host is: the same arguments
        # always run the same simulation seeds.
        nominal = WORKLOADS[args.workload].nominal_rep_s
        record = measure(
            args.workload,
            args.seed,
            spec,
            reps=1 if traced else max(1, math.ceil((args.seconds or 0.0) / nominal)),
            sub_seeds=True,
            smoke=args.smoke,
            trace=traced,
            probe_values=run_probes() if traced else None,
        )
        block = record["per_layer" if traced else "end_to_end"]
        for check in record["checks"]:
            if not check["ok"]:
                print(f"FAIL {check['name']}: {check['detail']}", file=sys.stderr)
        print(
            json.dumps(
                {
                    "correct": record["correct"],
                    "attempted": record["ops_attempted"],
                    "failed": record["ops_failed"],
                    "metrics": {
                        metric: {"value": row["value"], "unit": row["unit"]}
                        for metric, row in block.items()
                    },
                }
            )
        )
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    say = lambda msg: print(msg, file=sys.stderr, flush=True)  # noqa: E731
    say("probes ...")
    probe_values = run_probes()
    report: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "benchmark": "ledger",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git": git_state(),
        "environment": environment(),
        "seed": args.seed,
        "reps": args.reps,
        "smoke": args.smoke,
        "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
        "probes": probe_values,
        "workloads": {
            name: measure(
                name,
                args.seed,
                spec,
                reps=args.reps,
                smoke=args.smoke,
                probe_values=probe_values,
                say=say,
            )
            for name in names
        },
    }
    report["correct"] = all(r["correct"] for r in report["workloads"].values())
    out = Path(args.out or "ledger_report.json")
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print_tables(report)
    print(f"\nreport written to {out}")
    if args.record:
        if args.smoke:
            say("--record ignored with --smoke: smoke numbers are never recorded")
        else:
            with open(HISTORY_PATH, "a") as fh:
                for row in history_rows(report):
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
            print(f"{len(names)} row(s) appended to {HISTORY_PATH}")
    print("RESULT: " + ("PASS" if report["correct"] else "FAIL"))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
