"""Command-line entry point: regenerate any paper artefact, run single
clusters, or fan out cached parallel sweeps.

Usage::

    python -m repro experiment              # every paper table (quick mode)
    python -m repro experiment fig2 lambda  # the named tables only
    python -m repro experiment distance --out ABLATION_distance_error.json
    python -m repro report                  # phase-latency decomposition report

    python -m repro run --protocol pompe --n 7          # one cluster
    python -m repro chaos --loss 0.15 --crash 2:2000:3000  # fault schedule
    python -m repro sweep --protocol lyra,pompe \\
        --n 4 7 10 --seeds 1 2 3 --workers 4 \\
        --cache-dir results/sweep-cache                  # cached grid

Cluster-running commands accept a uniform ``--protocol`` flag mapping onto
the :func:`repro.harness.build_cluster` factory.  The experiment names are
the keys of :data:`repro.harness.experiments.EXPERIMENTS`.  Set
``REPRO_FULL=1`` for the paper's full node counts; ``REPRO_WORKERS`` /
``REPRO_CACHE`` parallelise and cache the figure entry points the same way
``sweep`` does explicitly.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import experiments as exp


def _print(title: str, rows) -> None:
    print(f"\n## {title}")
    if isinstance(rows, dict):
        rows = [rows]
    print(exp.format_rows(rows))


def _parse_protocols(value: str):
    from repro.harness.factory import available_protocols

    names = tuple(p.strip().lower() for p in value.split(",") if p.strip())
    unknown = [p for p in names if p not in available_protocols()]
    if unknown:
        raise SystemExit(
            f"unknown protocol(s) {', '.join(unknown)}; "
            f"available: {', '.join(available_protocols())}"
        )
    if not names:
        raise SystemExit("--protocol needs at least one protocol name")
    return names


def _add_protocol_flag(parser, default: str) -> None:
    parser.add_argument(
        "--protocol",
        default=default,
        help=f"comma-separated protocol name(s) (default: {default})",
    )


def _config_from_args(args, n: int, seed: int):
    from repro.harness.config import ExperimentConfig
    from repro.sim.engine import MILLISECONDS

    return ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=args.batch,
        lambda_us=args.lambda_ms * MILLISECONDS,
        clients_per_node=args.clients,
        client_window=args.window,
        duration_us=args.duration_ms * MILLISECONDS,
        warmup_rounds=args.warmup_rounds,
        warmup_spacing_us=150 * MILLISECONDS,
        dissemination=getattr(args, "dissemination", None) or "all2all",
        fanout=getattr(args, "fanout", 8),
        distance_mode=getattr(args, "distance_mode", None) or "probe",
        gossip_fanout=getattr(args, "gossip_fanout", 3),
        gossip_rounds=getattr(args, "gossip_rounds", 6),
    )


def _add_config_flags(parser) -> None:
    parser.add_argument("--batch", type=int, default=10, help="batch size")
    parser.add_argument("--lambda-ms", type=int, default=5, help="λ in ms")
    parser.add_argument("--clients", type=int, default=1, help="clients per node")
    parser.add_argument("--window", type=int, default=5, help="client window")
    parser.add_argument(
        "--duration-ms", type=int, default=4000, help="virtual duration in ms"
    )
    parser.add_argument("--warmup-rounds", type=int, default=2)
    parser.add_argument(
        "--dissemination",
        choices=["all2all", "tree", "gossip"],
        default="all2all",
        help="broadcast dissemination strategy (default all2all)",
    )
    parser.add_argument(
        "--fanout",
        type=int,
        default=8,
        help="relay fan-out for tree/gossip dissemination (default 8)",
    )
    parser.add_argument(
        "--distance-mode",
        choices=["probe", "gossip"],
        default="probe",
        help="warm-up distance estimation: all-to-all probes (default) or "
        "epidemic gossip averaging (O(n·fanout) messages per round)",
    )
    parser.add_argument(
        "--gossip-fanout",
        type=int,
        default=3,
        help="peers contacted per gossip distance round (default 3)",
    )
    parser.add_argument(
        "--gossip-rounds",
        type=int,
        default=6,
        help="gossip distance rounds during warm-up (default 6)",
    )


def _experiment_name(value: str) -> str:
    if value not in exp.EXPERIMENTS:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {value!r}; choose from "
            f"{', '.join(exp.EXPERIMENTS)}"
        )
    return value


def cmd_experiment(args) -> None:
    """Print the named paper tables (every one without names); ``--out``
    also writes them as ``{name: [{"title", "rows"}]}`` JSON."""
    import json

    tables = {}
    for name in args.names or exp.EXPERIMENTS:
        tables[name] = []
        for section in exp.EXPERIMENTS[name]:
            rows = section.rows()
            if isinstance(rows, dict):
                rows = [rows]
            _print(section.title, rows)
            if section.chart is not None:
                print()
                print(section.chart(rows))
            tables[name].append({"title": section.title, "rows": rows})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(tables, fh, indent=2, ensure_ascii=False)
            fh.write("\n")
        print(f"\nwrote {args.out}")


def cmd_report(args) -> None:
    """Observability report: the paper's per-phase latency decomposition
    plus wire/fault/cache stats — from a fresh traced run, or from a
    dumped trace JSONL."""
    from repro.metrics.report import render_run_report
    from repro.metrics.spans import export_chrome_trace
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
        if args.export_chrome:
            count = export_chrome_trace(trace, args.export_chrome)
            print(f"wrote {count} chrome://tracing events to {args.export_chrome}")
        return

    from repro.harness.factory import build_cluster
    from repro.sim.engine import MILLISECONDS

    config = _config_from_args(args, args.n, args.seed)
    config.tracing = True
    config.metrics = True
    if args.delay_ms is not None:
        # The §III rig: uniform jitter-free links with Δ = one delay, so
        # BOC's 3-message-delay decision bound is directly visible in the
        # proposed->decided row.
        config.uniform_delay_us = args.delay_ms * MILLISECONDS
        config.delta_us = args.delay_ms * MILLISECONDS
    cluster = build_cluster(config, protocol="lyra")
    result = cluster.run()
    print(
        render_run_report(
            trace=cluster.trace,
            result=result,
            title=f"Observability report — lyra n={args.n} seed={args.seed}",
            proposer_only=not args.all_nodes,
        )
    )
    if args.export_trace:
        count = cluster.trace.dump_jsonl(args.export_trace)
        print(f"wrote {count} trace events to {args.export_trace}")
    if args.export_chrome:
        count = export_chrome_trace(cluster.trace, args.export_chrome)
        print(f"wrote {count} chrome://tracing events to {args.export_chrome}")


def cmd_run(args) -> None:
    """Run one cluster through the unified factory and print its result."""
    from repro.harness.factory import build_cluster

    protocol = _parse_protocols(args.protocol)[0]
    config = _config_from_args(args, args.n, args.seed)
    result = build_cluster(config, protocol=protocol).run()
    _print(
        f"RUN — {protocol} n={args.n} seed={args.seed}",
        {
            "protocol": protocol,
            "n": args.n,
            "seed": args.seed,
            "committed": result.committed_count,
            "throughput_tps": round(result.throughput_tps, 1),
            "latency_ms": round(result.avg_latency_ms, 1),
            "p99_ms": round(result.p99_latency_us / 1000.0, 1),
            "safety": result.safety_violation,
        },
    )


def cmd_chaos(args) -> None:
    """Run a seeded fault schedule and print a pass/fail invariant report."""
    from repro.harness.factory import build_cluster
    from repro.net.faults import CrashEvent, FaultPlan, LinkFault
    from repro.sim.engine import MILLISECONDS

    crashes = []
    for spec in args.crash or []:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise SystemExit(
                f"bad --crash spec {spec!r}; expected pid:crash_ms[:recover_ms]"
            )
        pid, crash_ms = int(parts[0]), int(parts[1])
        recover_ms = int(parts[2]) if len(parts) == 3 else None
        crashes.append(
            CrashEvent(
                pid=pid,
                crash_at_us=crash_ms * MILLISECONDS,
                recover_at_us=(
                    recover_ms * MILLISECONDS if recover_ms is not None else None
                ),
            )
        )
    plan = FaultPlan(
        links=(
            LinkFault(
                drop_rate=args.loss,
                duplicate_rate=args.dup,
                reorder_rate=args.reorder,
                corrupt_rate=args.corrupt,
            ),
        ),
        crashes=tuple(crashes),
    )
    config = _config_from_args(args, args.n, args.seed)
    config.fault_plan = plan
    config.reliable_channels = True
    cluster = build_cluster(config, protocol="lyra")
    result = cluster.run()

    print(f"## CHAOS — n={args.n} seed={args.seed}")
    print(
        f"fault plan: loss={args.loss} dup={args.dup} reorder={args.reorder} "
        f"corrupt={args.corrupt} crashes={len(crashes)}"
    )
    print()
    print("fault stats:")
    for key in sorted(result.fault_stats):
        print(f"  {key:<20} {result.fault_stats[key]}")
    print()
    print("committed log lengths:")
    for node in cluster.nodes:
        marker = f" (recovered x{node.recoveries})" if node.recoveries else ""
        print(f"  pid {node.pid}: {len(node.output_sequence())}{marker}")
    print()
    print(cluster.watchdog.report.render())
    if result.safety_violation is not None:
        print(f"end-of-run safety violation: {result.safety_violation}")
    if result.safety_violation is not None or result.invariant_violations:
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
        FuzzSchedule,
        generate_schedule,
        run_corpus,
        run_schedule,
        shrink_schedule,
    )
    from repro.sim.engine import MILLISECONDS

    def describe(schedule) -> str:
        parts = [f"{len(schedule.attacks)} atk"]
        if schedule.plan.links:
            parts.append(f"{len(schedule.plan.links)} links")
        if schedule.plan.crashes:
            parts.append(f"{len(schedule.plan.crashes)} crashes")
        if schedule.delta_piggyback:
            parts.append("pbd")
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
    # Replay mode: re-run a saved schedule (or saved outcome) JSON; when
    # the artifact carries a digest the replay must be bit-identical.
    # ------------------------------------------------------------------
    if args.replay:
        with open(args.replay) as fh:
            data = json.load(fh)
        if "minimized" in data:  # a batch-mode violation artifact
            data = data["minimized"]
        saved_digest = data.get("digest")
        schedule = FuzzSchedule.from_dict(data.get("schedule", data))
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


def _workload_spec_from_args(args, n: int, duration_us: int):
    """Translate the workload CLI flags into a WorkloadSpec."""
    from repro.sim.engine import SECONDS
    from repro.workload.spec import ClientGroup, WorkloadSpec

    per_client = max(args.offered_tps / n, 1e-3)
    if args.arrival == "poisson":
        arrival = {"kind": "poisson", "rate_tps": per_client}
    elif args.arrival == "bursty":
        arrival = {"kind": "bursty", "rate_tps": per_client}
    elif args.arrival == "diurnal":
        # Compress the day/night cycle into the run so the modulation is
        # actually visible over a short horizon.
        arrival = {
            "kind": "diurnal",
            "rate_tps": per_client,
            "period_us": max(1 * SECONDS, duration_us // 2),
        }
    elif args.arrival == "trace":
        if args.trace_file:
            with open(args.trace_file) as fh:
                offsets = [int(line) for line in fh if line.strip()]
        else:
            # No trace given: replay a uniform schedule at the offered rate.
            gap = int(1_000_000 / per_client)
            count = max(1, int(per_client * duration_us / 1_000_000))
            offsets = [i * gap for i in range(count)]
        arrival = {"kind": "trace", "offsets_us": offsets}
    else:  # pragma: no cover - argparse choices guard this
        raise SystemExit(f"unknown arrival process {args.arrival!r}")

    groups = [
        ClientGroup(
            name="traffic",
            client="arrival",
            count_per_node=1,
            arrival=arrival,
            body=args.body,
            users=args.users,
        )
    ]
    if args.mev:
        # The Fig. 1 cell: AMM victims homed far from the replica
        # majority, one MEV bot colocated with a (Pompē-colluding)
        # replica close to it.
        groups.append(
            ClientGroup(
                name="victims",
                client="arrival",
                count=1,
                home=0,
                arrival={"kind": "poisson", "rate_tps": args.victim_tps},
                body="amm",
                body_params={"amount_min": 1_000, "amount_max": 5_000},
            )
        )
        groups.append(
            ClientGroup(
                name="mev",
                client="mev",
                count=1,
                home=1,
                collude=True,
            )
        )
    return WorkloadSpec(groups=tuple(groups), fairness=True, users=args.users)


def cmd_workload(args) -> None:
    """Run the open-loop traffic engine and print the fairness report."""
    from repro.harness.config import ExperimentConfig
    from repro.harness.factory import build_cluster
    from repro.metrics.capacity import extrapolate_users
    from repro.sim.engine import MILLISECONDS

    protocols = _parse_protocols(args.protocol)
    # The MEV cell needs the Fig. 1 geometry: the replica majority far
    # from the victim's home and the bot's colluding replica between
    # them, plus per-transaction batches so ordering races are visible.
    n = args.n if args.n is not None else (7 if args.mev else 4)
    batch = args.batch if args.batch is not None else (1 if args.mev else 10)
    regions = None
    if args.mev:
        if n < 3:
            raise SystemExit("--mev needs n >= 3")
        regions = ["tokyo", "singapore"] + ["saopaulo"] * (n - 2)
    duration_us = args.duration_ms * MILLISECONDS
    spec = _workload_spec_from_args(args, n, duration_us)

    failed = False
    for protocol in protocols:
        config = ExperimentConfig(
            n_nodes=n,
            seed=args.seed,
            batch_size=batch,
            duration_us=duration_us,
            warmup_rounds=2,
            warmup_spacing_us=150 * MILLISECONDS,
            workload=spec,
        )
        if regions is not None:
            config.regions = regions
        result = build_cluster(config, protocol=protocol).run()

        print(f"\n## WORKLOAD — {protocol} n={n} seed={args.seed}")
        print(
            f"arrival={args.arrival} offered={args.offered_tps:g}tps "
            f"users={args.users} body={args.body} "
            f"mev={'on' if args.mev else 'off'}"
        )
        block = result.fairness
        if not block:
            print("FAIL: result has no fairness block")
            failed = True
            continue
        counts = block.get("counts", {})
        print(
            f"throughput_tps={result.throughput_tps:.1f} "
            f"submitted={counts.get('submitted')} "
            f"completed={counts.get('completed')} "
            f"incomplete={counts.get('incomplete')}"
        )
        reorder = block["reorder"]
        print(
            f"reorder distance: mean={reorder['mean']:.2f} "
            f"p99={reorder['p99']} max={reorder['max']} "
            f"kendall_tau={reorder['kendall_tau']:.4f} "
            f"(over {reorder['count']} txs)"
        )
        sandwich = block["sandwich"]
        print(
            f"sandwich: attempts={sandwich['attempts']} "
            f"launched={sandwich['launched']} landed={sandwich['landed']} "
            f"successes={sandwich['successes']} "
            f"success_rate={sandwich['success_rate']:.3f}"
        )
        for name, row in sorted(block.get("latency", {}).items()):
            print(
                f"latency[{name}]: p50={row['p50_us'] / 1000:.1f}ms "
                f"p99={row['p99_us'] / 1000:.1f}ms "
                f"(count={row['count']})"
            )
        cap = extrapolate_users(
            protocol=protocol,
            n=n,
            f=config.resolved_f(),
            users=spec.resolved_users(n),
            offered_tps=spec.offered_tps(n),
            measured_tps=result.throughput_tps,
        )
        print(
            f"capacity[{protocol}]: model_tps={cap['capacity_tps']:.0f} "
            f"binding={cap['binding_resource']} "
            f"per_user_tps={cap['per_user_tps']:.2e} "
            f"users_at_capacity={cap['users_at_capacity']:.3g} "
            f"sustainable={cap['sustainable']}"
        )
        if result.safety_violation is not None:
            print(f"FAIL: safety violation: {result.safety_violation}")
            failed = True
        if result.invariant_violations:
            print(
                f"FAIL: {len(result.invariant_violations)} invariant "
                f"violation(s); first: {result.invariant_violations[0]}"
            )
            failed = True
    print()
    if failed:
        print("RESULT: FAIL")
        raise SystemExit(1)
    print("RESULT: PASS")


def cmd_bench(args) -> None:
    """Run the bench table, emit BENCH_<date>.json, and with
    ``--check-against`` exit 1 unless every digest oracle holds."""
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


def cmd_sweep(args) -> None:
    """Fan a (protocol, n, seed) grid across workers with result caching."""
    from repro.harness.sweep import grid_cells, run_sweep

    protocols = _parse_protocols(args.protocol)
    base = _config_from_args(args, args.n[0], args.seeds[0])
    cells = grid_cells(
        base, protocols=protocols, seeds=args.seeds, n_nodes=args.n
    )

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


def main(argv=None) -> int:
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
    pr = sub.add_parser(
        "report",
        help="per-phase latency decomposition + wire/fault/cache stats",
    )
    pr.add_argument("--n", type=int, default=4, help="cluster size")
    pr.add_argument("--seed", type=int, default=1)
    pr.add_argument(
        "--delay-ms",
        type=int,
        default=None,
        help="uniform jitter-free one-way link delay in ms (makes the "
        "proposed->decided p50 checkable against 3 message delays)",
    )
    pr.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="render from a dumped TraceLog JSONL instead of running",
    )
    pr.add_argument(
        "--all-nodes",
        action="store_true",
        help="decompose phases at every node, not just each proposer",
    )
    pr.add_argument(
        "--export-trace",
        default=None,
        metavar="PATH",
        help="dump the run's TraceLog as JSONL",
    )
    pr.add_argument(
        "--export-chrome",
        default=None,
        metavar="PATH",
        help="export spans in chrome://tracing JSON format",
    )
    _add_config_flags(pr)
    pr.set_defaults(fn=cmd_report)

    prun = sub.add_parser("run", help="run one cluster via the factory")
    _add_protocol_flag(prun, "lyra")
    prun.add_argument("--n", type=int, default=4, help="cluster size")
    prun.add_argument("--seed", type=int, default=1)
    _add_config_flags(prun)
    prun.set_defaults(fn=cmd_run)

    psweep = sub.add_parser(
        "sweep", help="parallel cached sweep over a (protocol, n, seed) grid"
    )
    _add_protocol_flag(psweep, "lyra")
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
    psweep.set_defaults(fn=cmd_sweep)

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

    pwork = sub.add_parser(
        "workload",
        help="open-loop traffic engine: arrival-driven load, fairness "
        "report, capacity extrapolation",
    )
    _add_protocol_flag(pwork, "lyra")
    pwork.add_argument(
        "--n",
        type=int,
        default=None,
        help="cluster size (default: 4, or 7 with --mev)",
    )
    pwork.add_argument("--seed", type=int, default=1)
    pwork.add_argument(
        "--arrival",
        choices=("poisson", "bursty", "diurnal", "trace"),
        default="poisson",
        help="arrival process of the main traffic group",
    )
    pwork.add_argument(
        "--offered-tps",
        type=float,
        default=200.0,
        help="aggregate offered rate of the main traffic group (tx/s)",
    )
    pwork.add_argument(
        "--users",
        type=int,
        default=1000,
        help="simulated user population the traffic stands in for "
        "(Poisson superposition; feeds the capacity extrapolation)",
    )
    pwork.add_argument(
        "--body",
        choices=("raw", "kv_zipf", "amm"),
        default="raw",
        help="body mix of the main traffic group",
    )
    pwork.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help="with --arrival trace: file of submission offsets (µs, one "
        "per line)",
    )
    pwork.add_argument(
        "--mev",
        action="store_true",
        help="add the adversarial cell: AMM victim traffic plus a "
        "colluding MEV bot chasing it (Fig. 1 geometry)",
    )
    pwork.add_argument(
        "--victim-tps",
        type=float,
        default=2.0,
        help="victim swap rate in the --mev cell",
    )
    pwork.add_argument(
        "--batch",
        type=int,
        default=None,
        help="batch size (default: 10, or 1 with --mev)",
    )
    pwork.add_argument(
        "--duration-ms", type=int, default=4000, help="virtual duration in ms"
    )
    pwork.set_defaults(fn=cmd_workload)

    pchaos = sub.add_parser(
        "chaos", help="run a seeded fault schedule and print an invariant report"
    )
    pchaos.add_argument("--n", type=int, default=4, help="cluster size")
    pchaos.add_argument("--seed", type=int, default=1)
    pchaos.add_argument(
        "--loss", type=float, default=0.1, help="per-link drop probability"
    )
    pchaos.add_argument(
        "--dup", type=float, default=0.02, help="per-link duplication probability"
    )
    pchaos.add_argument(
        "--reorder", type=float, default=0.02, help="per-link reordering probability"
    )
    pchaos.add_argument(
        "--corrupt", type=float, default=0.01, help="per-link corruption probability"
    )
    pchaos.add_argument(
        "--crash",
        action="append",
        metavar="PID:CRASH_MS[:RECOVER_MS]",
        help="schedule a crash (repeatable); omit RECOVER_MS for crash-stop",
    )
    _add_config_flags(pchaos)
    pchaos.set_defaults(fn=cmd_chaos)

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
    pfuzz.set_defaults(fn=cmd_fuzz)

    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
