"""Command-line entry point: regenerate any paper artefact, run one
deployment, or fan out cached parallel sweeps.

Usage::

    python -m repro experiment              # every paper table (quick mode)
    python -m repro experiment fig2 lambda  # the named tables only

    python -m repro run --protocol lyra,pompe --n 7       # one deployment each
    python -m repro run --loss 0.15 --crash 2:2000:3000   # under a fault plan
    python -m repro run --arrival poisson --mev           # open loop, Fig. 1 cell
    python -m repro run --trace --delay-ms 10             # phase decomposition
    python -m repro sweep --protocol lyra,pompe \\
        --n 4 7 10 --seeds 1 2 3 --workers 4 \\
        --cache-dir results/sweep-cache                  # cached grid

``run`` and ``sweep`` map their flags onto one ``ExperimentConfig``
through :func:`config_from_args`; ``--protocol`` names adapters of the
:func:`repro.harness.build_cluster` factory.  ``run`` renders every result
with :func:`repro.metrics.report.render_run_report` and ends with one
``RESULT: PASS|FAIL`` line.  It exits 0 when clean, 1 on any safety or
invariant violation or a missing fairness block, and 2 on a usage error or
a config the protocol adapter rejects.  ``sweep`` checks every grid cell
the same way before any runs (exit 2), and exits 1 when a cell fails
while running.  The experiment names are the keys
of :data:`repro.harness.experiments.EXPERIMENTS`.  Set ``REPRO_FULL=1`` for
the paper's full node counts; ``REPRO_WORKERS`` / ``REPRO_CACHE``
parallelise and cache the figure entry points the same way ``sweep`` does
explicitly.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import experiments as exp

#: The open-loop workload's flags, which need ``--arrival``, and the
#: closed-loop rig's, which conflict with it; each with its default.  The
#: parser leaves them unset unless given (``argparse.SUPPRESS``).
_ARRIVAL_FLAGS = {
    "mev": False,
    "offered_tps": 200.0,
    "users": 1000,
    "body": "raw",
    "trace_file": None,
    "victim_tps": 2.0,
}
_CLOSED_LOOP_FLAGS = {"clients": 1, "window": 5}
#: Fault flag -> the ``LinkFault`` rate it sets.
_RATE_FLAGS = {
    "loss": "drop_rate",
    "dup": "duplicate_rate",
    "reorder": "reorder_rate",
    "corrupt": "corrupt_rate",
}


def _print(title: str, rows) -> None:
    print(f"\n## {title}")
    print(exp.markdown_table(rows))


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _parse_protocols(value: str):
    from repro.harness.factory import available_protocols

    names = tuple(p.strip().lower() for p in value.split(",") if p.strip())
    unknown = [p for p in names if p not in available_protocols()]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown protocol(s) {', '.join(unknown)}; "
            f"available: {', '.join(available_protocols())}"
        )
    if not names:
        raise argparse.ArgumentTypeError("needs at least one protocol name")
    return names


def _crash_event(spec: str):
    from repro.net.faults import CrashEvent
    from repro.sim.engine import MILLISECONDS

    try:
        pid, *times_ms = (int(part) for part in spec.split(":"))
    except ValueError:
        times_ms = []
    if len(times_ms) not in (1, 2):
        raise argparse.ArgumentTypeError(
            f"bad spec {spec!r}; expected pid:crash_ms[:recover_ms]"
        )
    times_us = [ms * MILLISECONDS for ms in times_ms] + [None]
    return CrashEvent(pid=pid, crash_at_us=times_us[0], recover_at_us=times_us[1])


def _workload_spec(opts, arrival: str, n: int, duration_us: int):
    """The open-loop ``WorkloadSpec`` of the ``--arrival`` flags in ``opts``."""
    from repro.sim.engine import SECONDS
    from repro.workload.spec import ClientGroup, WorkloadSpec, mev_groups

    per_client = max(opts["offered_tps"] / n, 1e-3)
    process = {"kind": arrival, "rate_tps": per_client}
    if arrival == "diurnal":
        # Compress the day/night cycle into the run so the modulation is
        # actually visible over a short horizon.
        process["period_us"] = max(1 * SECONDS, duration_us // 2)
    elif arrival == "trace":
        if opts["trace_file"]:
            with open(opts["trace_file"]) as fh:
                offsets = [int(line) for line in fh if line.strip()]
        else:
            # No trace given: replay a uniform schedule at the offered rate.
            gap = int(1_000_000 / per_client)
            count = max(1, int(per_client * duration_us / 1_000_000))
            offsets = [i * gap for i in range(count)]
        process = {"kind": "trace", "offsets_us": offsets}
    groups = [
        ClientGroup(
            name="traffic",
            client="arrival",
            count_per_node=1,
            arrival=process,
            body=opts["body"],
            users=opts["users"],
        )
    ]
    if opts["mev"]:
        # The Fig. 1 cell: AMM victims homed far from the replica
        # majority, one MEV bot colocated with a (Pompē-colluding)
        # replica close to it.
        groups.extend(
            mev_groups({"kind": "poisson", "rate_tps": opts["victim_tps"]})
        )
    return WorkloadSpec(groups=tuple(groups), fairness=True, users=opts["users"])


def config_from_args(args, n: int | None, seed: int):
    """Map ``run``/``sweep`` flags onto one ``ExperimentConfig`` (``n=None``
    picks 4, or 7 with ``--mev``).  Raises ``ValueError`` naming the flag
    of a conflicting pair."""
    from repro.harness.config import ExperimentConfig
    from repro.net.faults import FaultPlan, LinkFault
    from repro.sim.engine import MILLISECONDS

    given = vars(args)
    arrival = given.get("arrival")
    wanted, banned = (
        (_CLOSED_LOOP_FLAGS, _ARRIVAL_FLAGS)
        if arrival is None
        else (_ARRIVAL_FLAGS, _CLOSED_LOOP_FLAGS)
    )
    clash = [_flag(dest) for dest in banned if dest in given]
    if clash:
        raise ValueError(
            f"{clash[0]} requires --arrival"
            if arrival is None
            else f"--arrival conflicts with {clash[0]}"
        )
    exports = [_flag(d) for d in ("export_trace", "export_chrome") if given.get(d)]
    if exports and not given.get("trace"):
        raise ValueError(f"{exports[0]} requires --trace")
    opts = {dest: given.get(dest, default) for dest, default in wanted.items()}
    mev = opts.get("mev", False)
    n = n if n is not None else (7 if mev else 4)
    fields = dict(
        n_nodes=n,
        seed=seed,
        batch_size=given.get("batch", 1 if mev else 10),
        lambda_us=args.lambda_ms * MILLISECONDS,
        duration_us=args.duration_ms * MILLISECONDS,
        warmup_rounds=args.warmup_rounds,
        warmup_spacing_us=150 * MILLISECONDS,
        tracing=bool(given.get("trace")),
    )
    if arrival is None:
        fields.update(clients_per_node=opts["clients"], client_window=opts["window"])
    else:
        if mev:
            # The Fig. 1 geometry: the replica majority far from the
            # victim's home and the bot's colluding replica between them.
            if n < 3:
                raise ValueError("--mev needs --n >= 3")
            fields["regions"] = ["tokyo", "singapore"] + ["saopaulo"] * (n - 2)
        fields["workload"] = _workload_spec(opts, arrival, n, fields["duration_us"])
    rates = {rate: given.get(flag, 0.0) for flag, rate in _RATE_FLAGS.items()}
    crashes = tuple(given.get("crash") or ())
    if any(rates.values()) or crashes:
        fields["fault_plan"] = FaultPlan(links=(LinkFault(**rates),), crashes=crashes)
        fields["reliable_channels"] = any(rate > 0 for rate in rates.values())
    if given.get("delay_ms") is not None:
        # The §III rig: uniform jitter-free links with Δ = one delay, so
        # BOC's 3-message-delay decision bound is directly visible in the
        # proposed->decided row.
        fields["uniform_delay_us"] = fields["delta_us"] = args.delay_ms * MILLISECONDS
    return ExperimentConfig(**fields)


def _add_config_flags(parser) -> None:
    """The flags ``run`` and ``sweep`` share."""
    parser.add_argument(
        "--protocol",
        type=_parse_protocols,
        default="lyra",
        help="comma-separated protocol name(s) (default: lyra)",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=argparse.SUPPRESS,
        help="batch size (default 10, or 1 with --mev)",
    )
    parser.add_argument("--lambda-ms", type=int, default=5, help="λ in ms")
    parser.add_argument(
        "--clients",
        type=int,
        default=argparse.SUPPRESS,
        help="closed-loop clients per node (default 1)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=argparse.SUPPRESS,
        help="closed-loop client window (default 5)",
    )
    parser.add_argument(
        "--duration-ms", type=int, default=4000, help="virtual duration in ms"
    )
    parser.add_argument("--warmup-rounds", type=int, default=2)


def _add_run_flags(parser) -> None:
    """``run``'s own flags: cluster size and seed, faults, open-loop load
    and observability."""
    parser.add_argument(
        "--n", type=int, default=None, help="cluster size (default 4, or 7 with --mev)"
    )
    parser.add_argument("--seed", type=int, default=1)
    faults = parser.add_argument_group(
        "faults",
        "any of these builds a FaultPlan; a link rate > 0 also turns on "
        "reliable channels",
    )
    for flag, rate in _RATE_FLAGS.items():
        faults.add_argument(
            _flag(flag),
            type=float,
            default=0.0,
            help=f"per-link {rate.replace('_', ' ')} (default 0)",
        )
    faults.add_argument(
        "--crash",
        action="append",
        type=_crash_event,
        metavar="PID:CRASH_MS[:RECOVER_MS]",
        help="schedule a crash (repeatable); omit RECOVER_MS for crash-stop",
    )
    load = parser.add_argument_group(
        "open-loop workload",
        "--arrival replaces the closed-loop rig; the other flags here need it",
    )
    load.add_argument(
        "--arrival",
        choices=("poisson", "bursty", "diurnal", "trace"),
        help="arrival process of the main traffic group",
    )
    load.add_argument(
        "--offered-tps",
        type=float,
        default=argparse.SUPPRESS,
        help="aggregate offered rate of the main traffic group (default 200)",
    )
    load.add_argument(
        "--users",
        type=int,
        default=argparse.SUPPRESS,
        help="simulated user population the traffic stands in for (Poisson "
        "superposition; feeds the capacity extrapolation; default 1000)",
    )
    load.add_argument(
        "--body",
        choices=("raw", "kv_zipf", "amm"),
        default=argparse.SUPPRESS,
        help="body mix of the main traffic group (default raw)",
    )
    load.add_argument(
        "--trace-file",
        default=argparse.SUPPRESS,
        metavar="PATH",
        help="with --arrival trace: file of submission offsets (µs, one "
        "per line)",
    )
    load.add_argument(
        "--mev",
        action="store_true",
        default=argparse.SUPPRESS,
        help="add the adversarial cell: AMM victim traffic plus a "
        "colluding MEV bot chasing it (Fig. 1 geometry)",
    )
    load.add_argument(
        "--victim-tps",
        type=float,
        default=argparse.SUPPRESS,
        help="victim swap rate in the --mev cell (default 2)",
    )
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--trace",
        action="store_true",
        help="trace phases and collect metrics (Lyra only)",
    )
    obs.add_argument(
        "--delay-ms",
        type=int,
        help="uniform jitter-free one-way link delay in ms (makes the "
        "proposed->decided p50 checkable against 3 message delays)",
    )
    obs.add_argument(
        "--all-nodes",
        action="store_true",
        help="decompose phases at every node, not just each proposer",
    )
    obs.add_argument(
        "--export-trace", metavar="PATH", help="dump the run's TraceLog as JSONL"
    )
    obs.add_argument(
        "--export-chrome",
        metavar="PATH",
        help="export spans in chrome://tracing JSON format",
    )
    obs.add_argument(
        "--trace-jsonl",
        metavar="PATH",
        help="render a dumped TraceLog JSONL instead of running",
    )


def _experiment_name(value: str) -> str:
    if value not in exp.EXPERIMENTS:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {value!r}; choose from "
            f"{', '.join(exp.EXPERIMENTS)}"
        )
    return value


def cmd_experiment(args) -> None:
    """Print the named paper tables (every one without names) and the
    summary of their claims; ``--out`` also writes them as ``{name:
    [{"title", "rows"}], "summary": [...]}`` JSON."""
    import json

    tables = {}
    for name in args.names or exp.EXPERIMENTS:
        tables[name] = []
        for section in exp.EXPERIMENTS[name].sections:
            rows = section.rows()
            if isinstance(rows, dict):
                rows = [rows]
            _print(section.title, rows)
            if section.chart is not None:
                print()
                print(section.chart(rows))
            tables[name].append({"title": section.title, "rows": rows})
    tables["summary"] = exp.summarise(tables)
    _print("Summary", tables["summary"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(tables, fh, indent=2, ensure_ascii=False)
            fh.write("\n")
        print(f"\nwrote {args.out}")


def _export(trace, jsonl_path, chrome_path) -> None:
    from repro.metrics.spans import export_chrome_trace

    if jsonl_path:
        print(f"wrote {trace.dump_jsonl(jsonl_path)} trace events to {jsonl_path}")
    if chrome_path:
        count = export_chrome_trace(trace, chrome_path)
        print(f"wrote {count} chrome://tracing events to {chrome_path}")


def cmd_run(args) -> None:
    """Run one deployment per ``--protocol`` name, in turn, and render each
    result; ``--trace-jsonl`` renders a dumped trace without running."""
    from repro.harness.factory import build_cluster
    from repro.metrics.report import render_run_report, run_failures
    from repro.metrics.tracelog import TraceLog

    if args.trace_jsonl:
        trace = TraceLog.load_jsonl(args.trace_jsonl)
        print(
            render_run_report(
                trace=trace,
                title=f"Trace report — {args.trace_jsonl}",
                proposer_only=not args.all_nodes,
            )
        )
        _export(trace, None, args.export_chrome)
        return
    try:
        config = config_from_args(args, args.n, args.seed)
        clusters = [build_cluster(config, protocol=p) for p in args.protocol]
    except ValueError as err:
        args.error(str(err))
    failed = False
    for protocol, cluster in zip(args.protocol, clusters):
        result = cluster.run()
        print(
            render_run_report(
                result=result,
                cluster=cluster,
                protocol=protocol,
                title=f"RUN — {protocol} n={config.n_nodes} seed={config.seed}",
                proposer_only=not args.all_nodes,
            )
        )
        failed = failed or bool(run_failures(result, config))
        if cluster.trace is not None:
            _export(cluster.trace, args.export_trace, args.export_chrome)
    print("RESULT: " + ("FAIL" if failed else "PASS"))
    if failed:
        raise SystemExit(1)


def _parse_seed_specs(tokens):
    """Expand seed tokens: ``7`` is one seed, ``A:B`` is the half-open
    range [A, B) — so ``--seeds 0:25`` fuzzes seeds 0..24."""
    seeds = []
    for tok in tokens:
        if ":" in tok:
            lo, hi = tok.split(":", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i <= lo_i:
                raise SystemExit(f"bad seed range {tok!r}: need A < B")
            seeds.extend(range(lo_i, hi_i))
        else:
            seeds.append(int(tok))
    return seeds


def cmd_fuzz(args) -> None:
    """Seeded adversarial-schedule fuzzing with an invariant oracle.

    Three modes: generate-and-run a seed batch (default), replay a saved
    schedule/outcome JSON bit-identically (``--replay``), or run the named
    attack corpus against its expected verdicts (``--corpus``).  Any
    unexpected violation exits 1 and, in batch mode, writes a minimized
    still-failing schedule artifact via ddmin shrinking.
    """
    import json
    import os

    from repro.attacks.fuzz import (
        generate_schedule,
        run_corpus,
        run_schedule,
        shrink_schedule,
    )
    from repro.harness.config import ExperimentConfig
    from repro.net.faults import FaultPlan
    from repro.sim.engine import MILLISECONDS

    def describe(schedule) -> str:
        plan = schedule.fault_plan or FaultPlan()
        parts = [f"{len(schedule.attack_nodes or {})} atk"]
        if plan.links:
            parts.append(f"{len(plan.links)} links")
        if plan.crashes:
            parts.append(f"{len(plan.crashes)} crashes")
        return ", ".join(parts)

    def report(label: str, outcome) -> None:
        status = "ok" if outcome.ok else "VIOLATION"
        lens = "/".join(
            str(outcome.committed_lens[p]) for p in sorted(outcome.committed_lens)
        )
        print(
            f"  {label:<36} {status:<9} committed={lens} "
            f"probes={outcome.probe_successes}/{outcome.probe_attempts} "
            f"digest={outcome.digest[:12]}"
        )
        for viol in outcome.violations:
            print(f"    {viol}")
        if outcome.safety_violation is not None:
            print(f"    end-of-run safety: {outcome.safety_violation}")

    # ------------------------------------------------------------------
    # Corpus mode: every case must match its expected oracle verdict.
    # ------------------------------------------------------------------
    if args.corpus is not None:
        names = list(args.corpus) or None
        print(f"## FUZZ — attack corpus (seed={args.seed})")
        verdicts = run_corpus(names, seed=args.seed)
        mismatches = 0
        for v in verdicts:
            expect = "violation" if v.case.expect_violation else "clean"
            got = "clean" if v.outcome.ok else "violation"
            mark = "pass" if v.passed else "MISMATCH"
            print(f"  {v.case.name:<30} expect={expect:<9} got={got:<9} {mark}")
            if not v.passed:
                mismatches += 1
                for viol in v.outcome.violations[:3]:
                    print(f"    {viol}")
        print(f"{len(verdicts) - mismatches}/{len(verdicts)} cases matched")
        if mismatches:
            raise SystemExit(1)
        return

    # ------------------------------------------------------------------
    # Replay mode: re-run a saved schedule (an ExperimentConfig dict) or
    # saved outcome JSON; when the artifact carries a digest the replay
    # must be bit-identical.  A malformed artifact is a usage error.
    # ------------------------------------------------------------------
    if args.replay:
        try:
            with open(args.replay) as fh:
                data = json.load(fh)
            if "minimized" in data:  # a batch-mode violation artifact
                data = data["minimized"]
            saved_digest = data.get("digest")
            schedule = ExperimentConfig.from_dict(data.get("schedule", data))
        except (OSError, ValueError, TypeError, AttributeError) as err:
            args.error(f"bad replay artifact {args.replay}: {err}")
        print(f"## FUZZ — replay {args.replay}")
        outcome = run_schedule(schedule)
        report(f"seed {schedule.seed} [{describe(schedule)}]", outcome)
        if saved_digest is not None:
            match = saved_digest == outcome.digest
            print(f"  digest match: {match}")
            if not match:
                raise SystemExit(1)
        elif not outcome.ok:
            raise SystemExit(1)
        return

    # ------------------------------------------------------------------
    # Batch mode: generate honest-majority schedules from a seed range.
    # ------------------------------------------------------------------
    seeds = _parse_seed_specs(args.seeds)
    duration_us = args.duration_ms * MILLISECONDS
    print(f"## FUZZ — {len(seeds)} generated schedules, n={args.n}")
    failures = []
    for seed in seeds:
        schedule = generate_schedule(seed, n_nodes=args.n, duration_us=duration_us)
        outcome = run_schedule(schedule)
        report(f"seed {seed} [{describe(schedule)}]", outcome)
        if not outcome.ok:
            failures.append(outcome)
    print(f"{len(seeds) - len(failures)}/{len(seeds)} schedules clean")
    if failures:
        outdir = args.out or "."
        os.makedirs(outdir, exist_ok=True)
        for outcome in failures:
            shrunk = shrink_schedule(outcome.schedule)
            shrunk_outcome = run_schedule(shrunk)
            path = os.path.join(
                outdir, f"fuzz-violation-seed{outcome.schedule.seed}.json"
            )
            with open(path, "w") as fh:
                json.dump(
                    {
                        "original": outcome.to_dict(),
                        "minimized": shrunk_outcome.to_dict(),
                    },
                    fh,
                    indent=2,
                    sort_keys=True,
                )
            print(
                f"  minimized repro for seed {outcome.schedule.seed} "
                f"written to {path} "
                f"(replay with: python -m repro fuzz --replay {path})"
            )
        raise SystemExit(1)


def cmd_bench(args) -> None:
    """Run the bench table, emit BENCH_<date>.json, and with
    ``--check-against`` exit 1 unless every digest, event count and
    commit count matches its pin; a pass names the rows that commit
    nothing."""
    import json

    from repro.bench import (
        check_against_baseline,
        default_output_path,
        run_bench_suite,
        write_report,
    )

    report = run_bench_suite(quick=args.quick)
    path = write_report(report, args.out or default_output_path())
    print(f"wrote {path}")
    if not args.check_against:
        return
    with open(args.check_against) as fh:
        failures = check_against_baseline(report, json.load(fh))
    if failures:
        print(f"BENCH CHECK vs {args.check_against}: FAIL")
        for f in failures:
            print(f"  - {f}")
        raise SystemExit(1)
    print(f"BENCH CHECK vs {args.check_against}: PASS")
    for name, row in report["macro"].items():
        if row["committed"] == 0:
            print(f"  note: {name} commits 0 transactions (its digest pins empty logs)")


def cmd_sweep(args) -> None:
    """Fan a (protocol, n, seed) grid across workers with result caching."""
    from repro.harness.sweep import grid_cells, run_sweep

    try:
        base = config_from_args(args, args.n[0], args.seeds[0])
        cells = grid_cells(
            base, protocols=args.protocol, seeds=args.seeds, n_nodes=args.n
        )
    except ValueError as err:
        args.error(str(err))

    def _progress(record, done, total) -> None:
        state = (
            "cached"
            if record.cached
            else ("ok" if record.ok else f"FAILED: {record.error}")
        )
        print(
            f"[{done}/{total}] {record.protocol:>6} "
            f"n={record.config['n_nodes']:<3} seed={record.config['seed']:<3} "
            f"{record.key[:12]} {state}",
            flush=True,
        )

    report = run_sweep(
        cells,
        workers=args.workers,
        cache_dir=args.cache_dir,
        force=args.force,
        progress=_progress,
    )
    rows = [
        {
            "protocol": r.protocol,
            "n": r.config["n_nodes"],
            "seed": r.config["seed"],
            "cached": r.cached,
            "committed": r.result.committed_count if r.ok else None,
            "throughput_tps": round(r.result.throughput_tps, 1) if r.ok else None,
            "latency_ms": round(r.result.avg_latency_ms, 1) if r.ok else None,
            "safety": r.result.safety_violation if r.ok else r.error,
        }
        for r in report.records
    ]
    _print(
        f"SWEEP — {len(cells)} cells "
        f"({report.executed} run, {report.cache_hits} cached, "
        f"{report.failures} failed)",
        rows,
    )
    if report.failures:
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser: one subparser per subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Lyra paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pexp = sub.add_parser(
        "experiment", help="print the paper's tables and figures by name"
    )
    pexp.add_argument(
        "names",
        nargs="*",
        type=_experiment_name,
        metavar="NAME",
        help=f"any of: {', '.join(exp.EXPERIMENTS)} (default: all, in that order)",
    )
    pexp.add_argument(
        "--out", default=None, metavar="PATH", help="also write the rows as JSON"
    )
    pexp.set_defaults(fn=cmd_experiment)

    prun = sub.add_parser(
        "run",
        help="run one deployment per protocol: faults, open-loop load, "
        "tracing; one report each and one RESULT line",
    )
    _add_run_flags(prun)
    _add_config_flags(prun)
    prun.set_defaults(fn=cmd_run, error=prun.error)

    psweep = sub.add_parser(
        "sweep", help="parallel cached sweep over a (protocol, n, seed) grid"
    )
    psweep.add_argument(
        "--n", type=int, nargs="+", default=[4], help="node counts to sweep"
    )
    psweep.add_argument(
        "--seeds", type=int, nargs="+", default=[1], help="seeds to sweep"
    )
    psweep.add_argument("--workers", type=int, default=1)
    psweep.add_argument(
        "--cache-dir",
        default=None,
        help="persist per-cell JSONL results here; re-runs skip cached cells",
    )
    psweep.add_argument(
        "--force", action="store_true", help="ignore and overwrite cached cells"
    )
    _add_config_flags(psweep)
    psweep.set_defaults(fn=cmd_sweep, error=psweep.error)

    pbench = sub.add_parser(
        "bench",
        help="run the digest-oracle table and emit BENCH_<date>.json",
    )
    pbench.add_argument(
        "--quick",
        action="store_true",
        help="skip the full-only rows (goodcase_n32, goodcase_n100)",
    )
    pbench.add_argument(
        "--out", default=None, help="output path (default: ./BENCH_<date>.json)"
    )
    pbench.add_argument(
        "--check-against",
        default=None,
        metavar="BASELINE_JSON",
        help="check every row against its pin and every twin against its "
        "base; exit 1 on any failure",
    )
    pbench.set_defaults(fn=cmd_bench)

    pfuzz = sub.add_parser(
        "fuzz",
        help="seeded adversarial-schedule fuzzing: generate, replay a "
        "saved schedule, or run the attack corpus",
    )
    pfuzz.add_argument(
        "--seeds",
        nargs="+",
        default=["0:10"],
        metavar="SEED|A:B",
        help="seeds and/or half-open A:B ranges to fuzz (default 0:10)",
    )
    pfuzz.add_argument("--n", type=int, default=4, help="cluster size")
    pfuzz.add_argument(
        "--duration-ms", type=int, default=3000, help="virtual duration in ms"
    )
    pfuzz.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="re-run a saved schedule/outcome JSON; with a saved digest "
        "the replay must be bit-identical",
    )
    pfuzz.add_argument(
        "--corpus",
        nargs="*",
        default=None,
        metavar="CASE",
        help="run the named attack-corpus cases (no names = all) against "
        "their expected oracle verdicts",
    )
    pfuzz.add_argument(
        "--seed", type=int, default=1, help="base seed for --corpus runs"
    )
    pfuzz.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="directory for minimized violation artifacts (default: cwd)",
    )
    pfuzz.set_defaults(fn=cmd_fuzz, error=pfuzz.error)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
