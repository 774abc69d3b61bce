"""The digest oracles behind ``python -m repro bench``.

One table, ``CELLS``, lists every row: a config builder, whether the row
runs only in the full suite, and the row whose digest it must reproduce
(its *base*), or ``None``.  Each row runs a whole cluster through the
factory and records a sha256 digest of every node's decided prefix.
That digest is the bit-determinism oracle: two builds of this repo run
the same row to the same decided sequence or the check fails, however
fast the host is.  A *twin* differs from its base only in a way that
must not move the digest, so a twin run proves that claim.

``check_against_baseline`` is the one check.  It fails on a safety or
invariant violation, on a digest, event count or commit count that
differs from its pin in the checked-in baseline or from its base row's,
and on a row the baseline does not pin.  The counts make a pin that
holds no transactions visible: a row that commits nothing pins the
digest of empty logs, which no change that keeps it empty can move.
Nothing is timed: wall-clock cost is the ledger's job
(``benchmarks/ledger``).
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from datetime import date
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_SCHEMA_VERSION = 2

def default_output_path(directory: str | Path = ".") -> Path:
    """``BENCH_<ISO date>.json`` in ``directory``."""
    return Path(directory) / f"BENCH_{date.today().isoformat()}.json"


# ----------------------------------------------------------------------
# Environment provenance
# ----------------------------------------------------------------------
def _cpu_model() -> Optional[str]:
    """The host CPU model string (Linux), or a platform fallback."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment_block() -> Dict[str, Any]:
    """Provenance header for timing reports: two hosts (or two numpy/BLAS
    builds) are not throughput-comparable, so every report records what it
    ran on."""
    env: Dict[str, Any] = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "numpy": None,
        "blas": None,
    }
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a hard dep in CI
        return env
    env["numpy"] = numpy.__version__
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = (cfg.get("Build Dependencies") or {}).get("blas") or {}
        env["blas"] = blas.get("name") or None
    except (TypeError, AttributeError, ValueError):
        # Older numpy: show_config prints instead of returning dicts.
        pass
    return env


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def digest_outputs(outputs: Dict[int, Sequence[Tuple[int, bytes]]]) -> str:
    """sha256 over every node's decided prefix (``pid -> [(seq,
    cipher_id)]``), in pid order."""
    h = hashlib.sha256()
    for pid in sorted(outputs):
        for seq, cipher_id in outputs[pid]:
            h.update(seq.to_bytes(8, "big", signed=True))
            h.update(cipher_id)
        h.update(b"|")
    return h.hexdigest()


def prefix_digest(cluster) -> str:
    """sha256 over every node's decided prefix, in pid order.

    This is the suite's bit-determinism oracle: any reordering, loss, or
    extra decision anywhere in the cluster changes the digest.
    """
    return digest_outputs(
        {node.pid: node.output_sequence() for node in cluster.nodes}
    )


def _cache_snapshot(cluster) -> Dict[str, Dict[str, Any]]:
    """Hit/miss counters from every cache layer the run exercised.

    The one cache inventory: the cluster's ``cache`` metrics source
    flattens this same dict.
    """
    from repro.crypto import feldman

    caches: Dict[str, Dict[str, Any]] = {
        "feldman_verify": feldman.verify_cache_stats(),
    }
    for name, owner, accessor in (
        ("threshold_verify", cluster.threshold, "verify_cache_stats"),
        # ``obf`` is None under Pompē, and the hash scheme has no cache.
        ("vss_decrypt", cluster.obf, "decrypt_cache_stats"),
    ):
        stats = getattr(owner, accessor, None)
        if stats is not None:
            caches[name] = stats()
    return caches


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
def _goodcase_config(n: int, duration_ms: int, **overrides):
    from repro.harness.config import closed_loop_config
    from repro.sim.engine import MILLISECONDS

    return closed_loop_config(n, 1, duration_ms * MILLISECONDS, **overrides)


def _chaos_config(**overrides):
    """The chaos smoke cell: lossy links plus a crash/recover, over
    reliable channels — the configuration CI's chaos job exercises."""
    from repro.harness.config import ExperimentConfig
    from repro.net.faults import CrashEvent, FaultPlan, LinkFault
    from repro.sim.engine import MILLISECONDS

    plan = FaultPlan(
        links=(LinkFault(drop_rate=0.15, duplicate_rate=0.05, corrupt_rate=0.02),),
        crashes=(
            CrashEvent(
                pid=2,
                crash_at_us=2000 * MILLISECONDS,
                recover_at_us=3000 * MILLISECONDS,
            ),
        ),
    )
    return ExperimentConfig(
        n_nodes=4,
        seed=1,
        batch_size=8,
        clients_per_node=1,
        client_window=4,
        duration_us=5000 * MILLISECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        fault_plan=plan,
        reliable_channels=True,
        **overrides,
    )


#: name -> (config builder, full suite only?, base row whose digest this
#: row must reproduce, or None).  Rows run in this order, in one process:
#: the twins come after the ``*_delta`` rows, so a twin that reproduces its
#: base also shows the delta runs left no process-wide state behind.
CELLS: Dict[str, Tuple[Callable[[], Any], bool, Optional[str]]] = {
    "goodcase_n4": (lambda: _goodcase_config(4, 1500), False, None),
    "chaos_smoke": (_chaos_config, False, None),
    # Delta-encoded Algorithm-4 reports (``"pbd"`` markers, ``lyra.pb_pull``
    # recovery): a different schedule, so these rows carry their own pins.
    "goodcase_n4_delta": (
        lambda: _goodcase_config(4, 1500, delta_piggyback=True), False, None,
    ),
    "chaos_smoke_delta": (
        lambda: _chaos_config(delta_piggyback=True), False, None,
    ),
    # Observability is read-only: spans and counters draw no randomness
    # and schedule no events.
    "goodcase_n4_observed": (
        lambda: _goodcase_config(4, 1500, tracing=True),
        False,
        "goodcase_n4",
    ),
    # fanout >= n-1 makes every tree relay a direct send: the exact
    # all2all path.
    "goodcase_n4_tree": (
        lambda: _goodcase_config(4, 1500, dissemination="tree", fanout=8),
        False,
        "goodcase_n4",
    ),
    # fanout 2 < n-1: pid 0's tree relays through pid 1, so this row pins
    # the relay path itself, not the hand-off to all2all.
    "goodcase_n4_tree_relay": (
        lambda: _goodcase_config(4, 1500, dissemination="tree", fanout=2),
        False,
        None,
    ),
    # The n=32 headline shape (the ledger's lyra_n32_closed) and the n=100
    # scaling shape: too slow for CI's quick run, so full runs only.
    "goodcase_n32": (lambda: _goodcase_config(32, 3000), True, None),
    "goodcase_n100": (lambda: _goodcase_config(100, 1000), True, None),
}


def _run_row(config) -> Dict[str, Any]:
    from repro.harness.factory import build_cluster

    cluster = build_cluster(config)
    result = cluster.run()
    return {
        "n": config.n_nodes,
        "seed": config.seed,
        "duration_ms": config.duration_us // 1000,
        "events": result.events_processed,
        "committed": result.committed_count,
        "executed_total": result.executed_total,
        "throughput_tps": round(result.throughput_tps, 1),
        "avg_latency_ms": round(result.avg_latency_ms, 2),
        "p99_latency_ms": round(result.p99_latency_us / 1000.0, 2),
        "messages_delivered": result.messages_delivered,
        "safety_violation": result.safety_violation,
        "invariant_violations": list(result.invariant_violations),
        "prefix_sha256": prefix_digest(cluster),
        "caches": _cache_snapshot(cluster),
    }


def run_bench_suite(*, quick: bool = False) -> Dict[str, Any]:
    """Run every ``CELLS`` row (``quick`` skips the full-only ones),
    printing one line per finished row, and return the report dict."""
    macro: Dict[str, Dict[str, Any]] = {}
    for name, (build, full_only, base) in CELLS.items():
        if quick and full_only:
            continue
        row = macro[name] = _run_row(build())
        twin = f"  (twin of {base})" if base else ""
        print(
            f"{name:<22} n={row['n']:<3} events={row['events']:>9} "
            f"committed={row['committed']:>5} "
            f"prefix={row['prefix_sha256'][:16]}…{twin}",
            flush=True,
        )
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "generated": date.today().isoformat(),
        "quick": quick,
        "macro": macro,
    }


def write_report(report: Dict[str, Any], out_path: str | Path) -> Path:
    path = Path(out_path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


#: The row fields a run must reproduce: its pin's, and a twin its base's.
PINNED_FIELDS = ("prefix_sha256", "events", "committed")


def check_against_baseline(
    report: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Return a list of failure strings (empty means the report passes).

    Every row must be safe, free of invariant violations, pinned in
    ``baseline`` and equal to its pin on every ``PINNED_FIELDS`` entry;
    every twin must equal its base row on them too.  Baseline rows the
    report did not run (the full-only rows of a quick run) are ignored.
    """
    failures: List[str] = []
    pins = baseline.get("macro", {})
    rows = report.get("macro", {})
    for name, row in rows.items():
        if row.get("safety_violation"):
            failures.append(f"{name}: safety violation: {row['safety_violation']}")
        if row.get("invariant_violations"):
            failures.append(
                f"{name}: {len(row['invariant_violations'])} invariant "
                f"violation(s): {row['invariant_violations'][0]}"
            )
        pin = pins.get(name)
        if pin is None:
            failures.append(f"{name}: no pinned digest in the baseline")
        base = CELLS[name][2] if name in CELLS else None
        for key in PINNED_FIELDS:
            value = row.get(key)
            if pin is not None and value != pin.get(key):
                failures.append(
                    f"{name}: {key} {value} != baseline pin {pin.get(key)} "
                    "(determinism regression)"
                )
            if base in rows and value != rows[base].get(key):
                failures.append(
                    f"{name}: {key} {value} != its base row {base}'s "
                    f"{rows[base].get(key)} (twin diverged)"
                )
    return failures


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "CELLS",
    "PINNED_FIELDS",
    "check_against_baseline",
    "default_output_path",
    "digest_outputs",
    "environment_block",
    "prefix_digest",
    "run_bench_suite",
    "write_report",
]
