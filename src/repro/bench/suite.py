"""The pinned runs behind ``python -m repro bench``.

One table, ``CELLS``, lists every run whose outcome this repo pins: a
config builder, the protocol it runs, whether the row runs only in the
full suite, the row it must reproduce (its *base*) or ``None``, and
whether the oracle must flag it.  The attack corpus and the fuzzer's
first fifteen seeds are rows too.  Each row runs a whole cluster
through the factory and records a sha256
digest of every node's decided prefix, with the counts and fingerprints
in ``PINNED_FIELDS``.  The digest is the bit-determinism oracle (the
executable form of Theorem 4's one total order): two builds of this repo
run the same row to the same decided sequence or the check fails,
however fast the host is.  A *twin* differs from its base only in a way
that must not move any pinned field, so a twin run proves that claim.

``check_against_baseline`` is the one check (``check_row`` per row; a
fuzz replay uses it too), and ``benchmarks/bench_baseline.json`` the one
pin file.  The check fails on a verdict other than the row's expected
one (clean, unless ``expect_violation``), on violations that differ from
the pinned ones, on a ``PINNED_FIELDS`` entry that differs from its pin
or from its base row's, and on a row the baseline does not pin.  The
counts make a pin that holds no transactions visible: a row that
commits nothing (``goodcase_n100``) pins the digest of empty logs, which
no change that keeps it empty can move.  The tier-1 tests
run every quick row through the same check (``tests/test_bench.py``);
``repro bench [--quick] --check-against benchmarks/bench_baseline.json``
runs it from the command line.

Re-pin only after an intentional behaviour change, with one command
that runs every row::

    PYTHONPATH=src python -m repro bench --out benchmarks/bench_baseline.json

and list each moved field as old -> new in the change's notes.  Nothing
is timed: wall-clock cost is the ledger's job (``benchmarks/ledger``).
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from datetime import date
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.attacks.corpus import CORPUS
from repro.attacks.fuzz import generate_schedule

BENCH_SCHEMA_VERSION = 3

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


def _chaos_config(duration_ms: int, crash_ms: int, recover_ms: int, *links, **rig):
    """n=4 over reliable channels, with lossy links (plus ``links``) and
    replica 2 crashed from ``crash_ms`` to ``recover_ms``; ``rig`` names
    the clients."""
    from repro.harness.config import ExperimentConfig
    from repro.net.faults import CrashEvent, FaultPlan, LinkFault
    from repro.sim.engine import MILLISECONDS

    plan = FaultPlan(
        links=(LinkFault(drop_rate=0.15, duplicate_rate=0.05, corrupt_rate=0.02),)
        + links,
        crashes=(
            CrashEvent(
                pid=2,
                crash_at_us=crash_ms * MILLISECONDS,
                recover_at_us=recover_ms * MILLISECONDS,
            ),
        ),
    )
    return ExperimentConfig(
        n_nodes=4,
        seed=1,
        batch_size=8,
        duration_us=duration_ms * MILLISECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        fault_plan=plan,
        reliable_channels=True,
        **rig,
    )


def _chaos_smoke(reorder: bool = False):
    """The ledger's ``lyra_n7_chaos`` at n=4: closed-loop clients on every
    replica but the crashed one, which would lose its window for good.
    ``reorder`` adds a reorder rule on senders 0 and 1 only, so scalar and
    block-buffered fault lanes run side by side."""
    from repro.net.faults import LinkFault
    from repro.workload.spec import ClientGroup, WorkloadSpec

    clients = WorkloadSpec(
        groups=tuple(
            ClientGroup(name=f"main{pid}", client="closed", count=1, home=pid, window=4)
            for pid in (0, 1, 3)
        ),
        fairness=False,
    )
    links = (LinkFault(reorder_rate=0.03, src=(0, 1)),) if reorder else ()
    return _chaos_config(2000, 800, 1200, *links, workload=clients)


def _mev_open_smoke():
    """The ledger's ``lyra_n7_mev_open`` at n=4: open-loop Poisson
    traffic at 150 tx/s, AMM victims on replica 0 and a colluding MEV bot
    on replica 1, batch 1."""
    from repro.harness.config import ExperimentConfig
    from repro.sim.engine import MILLISECONDS
    from repro.workload.spec import ClientGroup, WorkloadSpec

    spec = WorkloadSpec(
        groups=(
            ClientGroup(
                name="traffic",
                client="arrival",
                count_per_node=1,
                arrival={"kind": "poisson", "rate_tps": 150.0 / 4},
                body="raw",
                users=1000,
            ),
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
    )
    return ExperimentConfig(
        n_nodes=4,
        seed=1,
        regions=["tokyo", "singapore", "saopaulo", "saopaulo"],
        batch_size=1,
        duration_us=2000 * MILLISECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        workload=spec,
    )


class Row(NamedTuple):
    """One pinned run: ``build() -> ExperimentConfig`` run under
    ``protocol``; ``full_only`` rows are skipped by ``--quick``; ``base``
    names the row whose pinned fields this one must reproduce; an
    ``expect_violation`` row must be flagged by the watchdog or the
    safety check, and every other row must run clean."""

    build: Callable[[], Any]
    protocol: str = "lyra"
    full_only: bool = False
    base: Optional[str] = None
    expect_violation: bool = False


#: Every pinned run.  Rows run in this order, in one process: the twin
#: comes after ``chaos_smoke``, so a twin that reproduces its base also
#: shows the lossy chaos run left no process-wide state behind.  A row
#: named ``<workload>_smoke`` is the ledger workload's smoke shape
#: at seed 1 (``WORKLOADS[w].build(1, True)``), config for config; a row
#: named ``corpus_<case>`` is ``CORPUS[case].schedule(1)``, and
#: ``fuzz_<seed>`` is ``generate_schedule(seed)``.
CELLS: Dict[str, Row] = {
    "goodcase_n4": Row(lambda: _goodcase_config(4, 1500)),
    "chaos_smoke": Row(
        lambda: _chaos_config(5000, 2000, 3000, clients_per_node=1, client_window=4)
    ),
    # Observability is read-only: spans and counters draw no randomness
    # and schedule no events.
    "goodcase_n4_observed": Row(
        lambda: _goodcase_config(4, 1500, tracing=True), base="goodcase_n4"
    ),
    "lyra_n32_closed_smoke": Row(lambda: _goodcase_config(4, 2000)),
    "lyra_n7_chaos_smoke": Row(_chaos_smoke),
    "lyra_n7_chaos_reorder_smoke": Row(lambda: _chaos_smoke(reorder=True)),
    "lyra_n7_mev_open_smoke": Row(_mev_open_smoke),
    "pompe_n100_closed_smoke": Row(
        lambda: _goodcase_config(4, 2000, jitter=0.0), "pompe"
    ),
    # Fino over 10 ms uniform links: 6 s commit about 800 transactions.
    "fino_n4": Row(lambda: _goodcase_config(4, 6000, uniform_delay_us=10_000), "fino"),
    # The n=32 headline shape (the ledger's lyra_n32_closed) and the n=100
    # scaling shape: too slow for tier-1 and ``--quick``, so full runs only.
    "goodcase_n32": Row(lambda: _goodcase_config(32, 3000), full_only=True),
    "goodcase_n100": Row(lambda: _goodcase_config(100, 1000), full_only=True),
    # The attack corpus at seed 1, each case with its expected verdict, and
    # the fuzzer's first fifteen generated schedules.  Twelve of those run
    # reliable channels over lossy links, so any drift in the lossy wire's
    # arrival times or stream draws moves at least one of them.
    **{
        f"corpus_{name}": Row(
            partial(case.schedule, 1), expect_violation=case.expect_violation
        )
        for name, case in CORPUS.items()
    },
    **{f"fuzz_{seed}": Row(partial(generate_schedule, seed)) for seed in range(15)},
}


def latency_fingerprint(clients) -> Tuple[int, str]:
    """``(count, sha256)`` of every client's sorted submit-to-reply
    latencies: one short value that pins the whole sample."""
    sample = sorted(lat for c in clients for lat in c.stats.latencies_us)
    return len(sample), hashlib.sha256(json.dumps(sample).encode()).hexdigest()


def _malformed(cluster) -> int:
    """Messages the replicas dropped for their shape: none in a run with
    no attacker."""
    total = 0
    for node in cluster.nodes:
        total += node.stats.malformed_messages
        total += getattr(node.stats, "malformed_dshares", 0)
        if getattr(node, "commit", None) is not None:
            total += node.commit.malformed_reports
    return total


def run_row(config, protocol: str = "lyra") -> Dict[str, Any]:
    """Run ``config`` on a fresh cluster and return its row record."""
    from repro.harness.factory import build_cluster

    cluster = build_cluster(config, protocol=protocol)
    result = cluster.run()
    return {
        "protocol": protocol,
        "n": config.n_nodes,
        "seed": config.seed,
        "duration_ms": config.duration_us // 1000,
        "events": result.events_processed,
        "pending": cluster.sim.pending,
        "committed": result.committed_count,
        "executed_total": result.executed_total,
        "throughput_tps": round(result.throughput_tps, 1),
        "avg_latency_ms": round(result.avg_latency_ms, 2),
        "p99_latency_ms": round(result.p99_latency_us / 1000.0, 2),
        "latency_fingerprint": list(latency_fingerprint(cluster.clients)),
        "messages_delivered": result.messages_delivered,
        "bytes_delivered": result.bytes_delivered,
        "accepted_instances": result.accepted_instances,
        "rejected_instances": result.rejected_instances,
        "malformed": _malformed(cluster),
        "faults": result.fault_stats,
        "sandwich": result.fairness.get("sandwich"),
        "invariant_checks": result.invariant_checks,
        "safety_violation": result.safety_violation,
        "invariant_violations": list(result.invariant_violations),
        "prefix_sha256": prefix_digest(cluster),
        "caches": _cache_snapshot(cluster),
    }


def run_bench_suite(*, quick: bool = False) -> Dict[str, Any]:
    """Run every ``CELLS`` row (``quick`` skips the full-only ones),
    printing one line per finished row, and return the report dict."""
    macro: Dict[str, Dict[str, Any]] = {}
    for name, cell in CELLS.items():
        if quick and cell.full_only:
            continue
        row = macro[name] = run_row(cell.build(), cell.protocol)
        note = f"  (twin of {cell.base})" if cell.base else ""
        if cell.expect_violation:
            note = "  (must be flagged)"
        print(
            f"{name:<28} n={row['n']:<3} events={row['events']:>9} "
            f"committed={row['committed']:>5} "
            f"prefix={row['prefix_sha256'][:16]}…{note}",
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
PINNED_FIELDS = (
    "prefix_sha256",
    "events",
    "pending",
    "committed",
    "latency_fingerprint",
    "messages_delivered",
    "bytes_delivered",
    "accepted_instances",
    "rejected_instances",
    "malformed",
    "faults",
    "sandwich",
    "invariant_checks",
)


def check_row(
    name: str,
    row: Dict[str, Any],
    pin: Optional[Dict[str, Any]],
    *,
    expect_violation: bool = False,
) -> List[str]:
    """The one per-row comparison; returns failure strings.

    A row's verdict is clean when it has neither a safety violation nor
    an invariant violation, and it must be clean unless
    ``expect_violation``.  Where the verdict is right, the row's
    violations must equal ``pin``'s, and so must every ``PINNED_FIELDS``
    entry."""
    failures: List[str] = []
    safety = row.get("safety_violation")
    violations = row.get("invariant_violations") or []
    if not expect_violation:
        if safety:
            failures.append(f"{name}: safety violation: {safety}")
        if violations:
            failures.append(
                f"{name}: {len(violations)} invariant violation(s): {violations[0]}"
            )
    elif not (safety or violations):
        failures.append(f"{name}: expected a violation, but the run is clean")
    if pin is None:
        failures.append(f"{name}: no pinned digest in the baseline")
        return failures
    pinned = (pin.get("safety_violation"), pin.get("invariant_violations") or [])
    if not failures and (safety, violations) != pinned:
        failures.append(
            f"{name}: violations {[safety, *violations]} != baseline pin "
            f"{[pinned[0], *pinned[1]]}"
        )
    for key in PINNED_FIELDS:
        if row.get(key) != pin.get(key):
            failures.append(
                f"{name}: {key} {row.get(key)} != baseline pin {pin.get(key)} "
                "(determinism regression)"
            )
    return failures


def check_against_baseline(
    report: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Return a list of failure strings (empty means the report passes).

    Every row goes through :func:`check_row` against its pin in
    ``baseline``, with its ``CELLS`` entry's ``expect_violation``; every
    twin must equal its base row on ``PINNED_FIELDS`` too.  Baseline rows
    the report did not run (the full-only rows of a quick run) are
    ignored.
    """
    failures: List[str] = []
    pins = baseline.get("macro", {})
    rows = report.get("macro", {})
    for name, row in rows.items():
        cell = CELLS.get(name, Row(None))
        failures += check_row(
            name, row, pins.get(name), expect_violation=cell.expect_violation
        )
        if cell.base in rows:
            base = rows[cell.base]
            failures += [
                f"{name}: {key} {row.get(key)} != its base row {cell.base}'s "
                f"{base.get(key)} (twin diverged)"
                for key in PINNED_FIELDS
                if row.get(key) != base.get(key)
            ]
    return failures


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "CELLS",
    "PINNED_FIELDS",
    "Row",
    "check_against_baseline",
    "check_row",
    "default_output_path",
    "digest_outputs",
    "environment_block",
    "latency_fingerprint",
    "prefix_digest",
    "run_bench_suite",
    "run_row",
    "write_report",
]
