"""One entry point per paper artefact (see DESIGN.md §4).

Each function returns the row dicts the paper's figure or table plots.
:data:`EXPERIMENTS` names every artefact and lists its printed sections;
``python -m repro experiment [NAME ...]`` runs them.  Set ``REPRO_FULL=1``
to sweep the paper's full node counts (n up to 100, minutes of
wall-clock); the default quick sweeps keep CI fast while preserving every
qualitative claim.

Every cluster-running entry point routes through
:func:`repro.harness.sweep.run_sweep`, so ``REPRO_WORKERS=<k>`` fans the
grid across CPU cores and ``REPRO_CACHE=<dir>`` makes repeat invocations
(and interrupted runs) reuse already-computed cells.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.harness.config import ExperimentConfig, closed_loop_config
from repro.harness.cluster import ExperimentResult
from repro.harness.factory import build_cluster
from repro.harness.sweep import (
    SweepCell,
    run_sweep,
    sweep_cache_dir,
    sweep_workers,
)
from repro.core.types import Transaction
from repro.metrics.ascii_chart import chart_fig2, chart_fig3
from repro.metrics.capacity import CapacityInputs, lyra_capacity, pompe_capacity
from repro.metrics.spans import decompose_phases
from repro.net.faults import FaultPlan, LinkFault
from repro.sim.engine import MILLISECONDS, SECONDS
from repro.workload.spec import ClientGroup, WorkloadSpec, mev_groups

#: §VI-C node counts.
PAPER_NODE_COUNTS = [5, 10, 16, 31, 61, 100]
QUICK_NODE_COUNTS = [4, 7, 10]


def full_mode() -> bool:
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false")


def node_counts() -> List[int]:
    return PAPER_NODE_COUNTS if full_mode() else QUICK_NODE_COUNTS


def _sweep(cells: List[SweepCell]) -> List[ExperimentResult]:
    """Run cells through the sweep runner (workers/cache from the
    environment) and return their results in cell order, failing loudly on
    any failed cell — figure generators must not silently drop points."""
    report = run_sweep(
        cells, workers=sweep_workers(), cache_dir=sweep_cache_dir()
    )
    failed = report.failed_records()
    if failed:
        first = failed[0]
        raise RuntimeError(
            f"{len(failed)} sweep cell(s) failed; first: "
            f"{first.protocol} {first.config.get('n_nodes')} nodes — {first.error}"
        )
    return report.results()


def _latency_config(n: int, seed: int = 3) -> ExperimentConfig:
    """Light-load config for latency measurement: a few probing clients,
    small batches, heartbeat cadence scaled to keep event counts sane."""
    return ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=8,
        batch_timeout_us=30 * MILLISECONDS,
        clients_per_node=0,
        workload=WorkloadSpec(
            groups=(
                ClientGroup(
                    name="probes",
                    client="closed",
                    count=3,
                    one_per_node=True,
                    window=1,
                ),
            ),
            fairness=False,
        ),
        duration_us=7 * SECONDS,
        warmup_rounds=3,
        warmup_spacing_us=200 * MILLISECONDS,
        status_interval_us=(100 if n > 30 else 50) * MILLISECONDS,
        jitter=0.01,
    )


def fig2_commit_latency(
    ns: Optional[Sequence[int]] = None,
    *,
    seed: int = 3,
    protocols: Sequence[str] = ("lyra", "pompe"),
) -> List[Dict]:
    """Fig. 2: average commit latency vs cluster size, Lyra vs Pompē.

    Expected shape: Lyra stays flat and sub-second; Pompē roughly 2x Lyra
    once n exceeds ~60 (more message rounds + leader relay).  The
    (protocol, n) grid runs through the sweep runner.
    """
    from repro.metrics.capacity import (
        lyra_loaded_latency_us,
        pompe_loaded_latency_us,
    )

    ns = list(ns or node_counts())
    cells = [
        SweepCell(protocol, _latency_config(n, seed))
        for n in ns
        for protocol in protocols
    ]
    results = _sweep(cells)
    by_cell = {
        (cell.protocol, cell.config.n_nodes): res
        for cell, res in zip(cells, results)
    }

    loaded_model = {
        "lyra": lyra_loaded_latency_us,
        "pompe": pompe_loaded_latency_us,
    }
    rows: List[Dict] = []
    for n in ns:
        f = (n - 1) // 3
        row: Dict = {"n": n}
        loaded: Dict[str, float] = {}
        for protocol in protocols:
            res = by_cell[(protocol, n)]
            row[f"{protocol}_latency_ms"] = round(res.avg_latency_ms, 1)
            if protocol in loaded_model:  # Fino has no queueing model
                loaded[protocol] = loaded_model[protocol](n, f, res.avg_latency_us)
        if "lyra" in loaded and "pompe" in loaded:
            row["ratio"] = round(
                by_cell[("pompe", n)].avg_latency_us
                / max(1.0, by_cell[("lyra", n)].avg_latency_us),
                2,
            )
        # At the benchmark operating point (queueing model on top of the
        # measured protocol latency — see EXPERIMENTS.md FIG2).
        for protocol, loaded_us in loaded.items():
            row[f"{protocol}_loaded_ms"] = round(loaded_us / 1000.0, 1)
        if "lyra" in loaded and "pompe" in loaded:
            row["loaded_ratio"] = round(
                loaded["pompe"] / max(1.0, loaded["lyra"]), 2
            )
        for protocol in protocols:
            row[f"{protocol}_safety"] = by_cell[(protocol, n)].safety_violation
        rows.append(row)
    return rows


def fig3_throughput(
    ns: Optional[Sequence[int]] = None, *, inputs: Optional[CapacityInputs] = None
) -> List[Dict]:
    """Fig. 3: saturation throughput vs cluster size (capacity model).

    Expected shape: Pompē peaks below ~31 nodes then decays ~1/n
    (leader egress); Lyra rises with n to ~240k tx/s at n = 100 where its
    replica CPU saturates.  Crossover between 31 and 61 nodes.
    """
    inputs = inputs or CapacityInputs()
    rows: List[Dict] = []
    for n in ns or PAPER_NODE_COUNTS:
        f = (n - 1) // 3
        lyra_tps, lyra_bound = lyra_capacity(n, f, inputs)
        pompe_tps, pompe_bound = pompe_capacity(n, f, inputs)
        rows.append(
            {
                "n": n,
                "lyra_ktps": round(lyra_tps / 1000.0, 1),
                "lyra_bound": lyra_bound,
                "pompe_ktps": round(pompe_tps / 1000.0, 1),
                "pompe_bound": pompe_bound,
                "ratio": round(lyra_tps / pompe_tps, 2),
            }
        )
    return rows


def fig3_sim_validation(n: int = 4, *, seed: int = 5) -> Dict:
    """Message-level throughput at small n, to sanity-check the capacity
    model's direction (Lyra sustains offered load; absolute numbers are
    simulator-scale, see EXPERIMENTS.md)."""
    cfg = ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=50,
        clients_per_node=2,
        client_window=60,
        duration_us=8 * SECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
    )
    lyra, pompe = _sweep([SweepCell("lyra", cfg), SweepCell("pompe", cfg)])
    return {
        "n": n,
        "lyra_tps": round(lyra.throughput_tps, 1),
        "pompe_tps": round(pompe.throughput_tps, 1),
        "lyra_latency_ms": round(lyra.avg_latency_ms, 1),
        "pompe_latency_ms": round(pompe.avg_latency_ms, 1),
    }


def fig1_config(
    *,
    seed: int = 7,
    far_region: str = "saopaulo",
    attack_nodes: Optional[Dict[int, str]] = None,
) -> ExperimentConfig:
    """The Fig. 1 cell: Alice's home replica in Tokyo (pid 0), Mallory's in
    Singapore (pid 1) and the five other validators in ``far_region``, on
    jitter-free links and skew-free clocks.  Alice sends one AMM swap
    0.4 s after warm-up; Mallory's MEV bot chases it from pid 1."""
    return ExperimentConfig(
        n_nodes=7,
        regions=["tokyo", "singapore"] + [far_region] * 5,
        seed=seed,
        jitter=0.0,
        clock_skew_max_us=0,
        delta_us=200 * MILLISECONDS,
        batch_size=1,
        batch_timeout_us=20 * MILLISECONDS,
        warmup_rounds=3,
        warmup_spacing_us=200 * MILLISECONDS,
        workload=WorkloadSpec(
            groups=mev_groups({"kind": "trace", "offsets_us": [400_000]})
        ),
        duration_us=4 * SECONDS,
        attack_nodes=attack_nodes,
    )


#: Fig. 1's rows: (protocol, region of the five far validators, attack
#: replicas).  Moving them to Tokyo removes the triangle violation.
FIG1_CASES = (
    ("pompe", "saopaulo", None),
    ("pompe", "tokyo", None),
    ("lyra", "saopaulo", {1: "backdate"}),
)


def fig1_frontrunning(*, seed: int = 7) -> List[Dict]:
    """Fig. 1: Mallory's sandwich around Alice's swap lands on Pompē's
    clear-text ordering through the triangle violation, and fails without
    it.  Under Lyra the bot reads the swap only at execution, and the
    backdated instance Mallory's replica proposes then is rejected by
    every replica."""
    cells = [
        SweepCell(protocol, fig1_config(seed=seed, far_region=far, attack_nodes=atk))
        for protocol, far, atk in FIG1_CASES
    ]
    rows: List[Dict] = []
    for (protocol, far, _), res in zip(FIG1_CASES, _sweep(cells)):
        sandwich = res.fairness["sandwich"]
        rows.append(
            {
                "system": protocol,
                "far_validators": far,
                "attempts": sandwich["attempts"],
                "sandwiches": sandwich["successes"],
                "rejected": res.rejected_instances,
                "violations": len(res.invariant_violations),
                "safety": res.safety_violation,
            }
        )
    return rows


def _delays_to_first_call(
    protocol: str,
    n: int,
    delay_us: int,
    seed: int,
    *,
    pid: int,
    hook: str,
    request,
    warmup_delays: int,
    horizon_delays: int,
    **knobs,
) -> float:
    """Message delays from ``request(node)`` at replica ``pid`` to the first
    call of that node's ``hook`` method (``inf`` if none within
    ``horizon_delays``).  The cluster makes every hop cost exactly one
    delay D with Δ = D: uniform jitter-free links, no skew, no bandwidth
    queueing, free crypto, one-transaction batches and no clients.  The
    request goes in after ``warmup_delays``."""
    cluster = build_cluster(
        ExperimentConfig(
            n_nodes=n,
            seed=seed,
            uniform_delay_us=delay_us,
            delta_us=delay_us,
            bandwidth_enabled=False,
            cpu_cost_scale=0.0,
            clock_skew_max_us=0,
            batch_size=1,
            workload=WorkloadSpec(fairness=False),
            **knobs,
        ),
        protocol=protocol,
    )
    sim, node = cluster.sim, cluster.nodes[pid]
    cluster.start()
    sim.run(until=warmup_delays * delay_us)

    called_at: List[int] = []
    inner = getattr(node, hook)

    def traced(*args):
        called_at.append(sim.now)
        inner(*args)

    setattr(node, hook, traced)
    start = sim.now
    request(node)
    sim.run(until=start + horizon_delays * delay_us)
    return (called_at[0] - start) / delay_us if called_at else float("inf")


def measure_lyra_rounds(n: int = 4, delay_ms: int = 40, seed: int = 1) -> float:
    """Delays from ordered-propose to the proposer's BOC decision, once the
    distance warm-up has converged."""
    delay_us = delay_ms * MILLISECONDS
    return _delays_to_first_call(
        "lyra",
        n,
        delay_us,
        seed,
        pid=0,
        hook="_on_decide",
        request=lambda node: node._propose_batch([Transaction(999, 0)]),
        warmup_delays=12,
        horizon_delays=20,
        warmup_rounds=2,
        warmup_spacing_us=4 * delay_us,
        status_interval_us=2 * delay_us,
    )


def measure_pompe_rounds(n: int = 4, delay_ms: int = 40, seed: int = 1) -> float:
    """Delays from the ordering broadcast to execution at the proposer, a
    non-leader so the certificate relay hop is included (the leader of
    view 0 is pid 0)."""
    return _delays_to_first_call(
        "pompe",
        n,
        delay_ms * MILLISECONDS,
        seed,
        pid=1,
        hook="on_executed",
        request=lambda node: node.submit(Transaction(999, 0)),
        warmup_delays=4,
        horizon_delays=40,
    )


def goodcase_latency_rounds(n: int = 4, *, delay_ms: int = 40) -> Dict:
    """§IV claim: Lyra's BOC decides in 3 message delays in the good case
    (vs Pompē's 11 rounds).  Runs a single instance on a uniform-latency
    network with Δ equal to one delay and counts elapsed delays."""
    lyra_rounds = measure_lyra_rounds(n=n, delay_ms=delay_ms)
    pompe_rounds = measure_pompe_rounds(n=n, delay_ms=delay_ms)
    return {
        "delay_ms": delay_ms,
        "lyra_decide_rounds": lyra_rounds,
        "pompe_commit_rounds": pompe_rounds,
        "paper_lyra": 3,
        "paper_pompe": 11,
    }


def lambda_ablation(
    lambdas_ms: Sequence[int] = (1, 2, 5, 10, 50),
    *,
    n: int = 4,
    seed: int = 11,
) -> List[Dict]:
    """§VI-B claim: λ can be reduced to 5 ms without hurting performance.

    Sweeps λ and reports instance acceptance rate and latency: too-tight λ
    rejects honest proposals (predictions miss by jitter), large λ changes
    nothing for honest traffic."""
    cells = [
        SweepCell(
            "lyra",
            closed_loop_config(
                n,
                seed,
                6 * SECONDS,
                warmup_rounds=3,
                lambda_us=lam * MILLISECONDS,
                jitter=0.015,
            ),
        )
        for lam in lambdas_ms
    ]
    rows: List[Dict] = []
    for lam, res in zip(lambdas_ms, _sweep(cells)):
        total = res.accepted_instances + res.rejected_instances
        rows.append(
            {
                "lambda_ms": lam,
                "accepted": res.accepted_instances,
                "rejected": res.rejected_instances,
                "acceptance_rate": round(
                    res.accepted_instances / total, 3
                )
                if total
                else None,
                "latency_ms": round(res.avg_latency_ms, 1),
                "committed": res.committed_count,
            }
        )
    return rows


def batch_ablation(
    batch_sizes: Sequence[int] = (1, 50, 100, 200, 400, 800, 1600, 3200),
    *,
    n: int = 100,
    inputs: Optional[CapacityInputs] = None,
) -> List[Dict]:
    """§VI-B claim: batch size 800 maximises throughput without hurting
    client QoS.  Capacity-model sweep: larger batches amortise per-instance
    crypto but stop helping once fixed costs vanish, while batch fill time
    (at fixed per-node load) grows linearly — the latency proxy."""
    inputs = inputs or CapacityInputs()
    f = (n - 1) // 3
    rows: List[Dict] = []
    for b in batch_sizes:
        from dataclasses import replace

        tuned = replace(inputs, batch_size=b)
        tps, bound = lyra_capacity(n, f, tuned)
        fill_ms = b / max(1.0, inputs.offered_per_node_tps) * 1000.0
        rows.append(
            {
                "batch": b,
                "lyra_ktps": round(tps / 1000.0, 1),
                "bound": bound,
                "batch_fill_ms": round(fill_ms, 1),
            }
        )
    return rows


def latency_breakdown(*, n: int = 4, seed: int = 29) -> List[Dict]:
    """Decompose Lyra's commit latency into the paper's phases, measured
    at the proposer from protocol traces:

    - ``proposed->decided`` — the BOC instance (3 message delays, §IV);
    - ``decided->committed`` — Commit-protocol lag (waiting for the
      stable/committed prefixes to cover the new sequence number, driven
      by piggybacks and STATUS heartbeats, §V-C);
    - ``committed->executed`` — the commit-reveal round (decryption-share
      quorum, Lemma 7).
    """
    # Reads the live cluster's trace, so this one runs in-process rather
    # than through the sweep runner.
    cluster = build_cluster(
        closed_loop_config(n, seed, 6 * SECONDS, tracing=True), protocol="lyra"
    )
    cluster.run()
    return [
        {
            "phase": phase,
            "mean_ms": round(summary.mean / 1000.0, 1),
            "max_ms": round(summary.maximum / 1000.0, 1),
            "samples": summary.count,
        }
        for phase, summary in decompose_phases(
            cluster.trace, proposer_only=True
        ).items()
    ]


def delta_ablation(
    deltas_ms: Sequence[int] = (75, 150, 300),
    *,
    n: int = 4,
    seed: int = 37,
) -> List[Dict]:
    """Sensitivity to the synchrony bound Δ.

    Lyra's end-to-end latency is dominated by the acceptance window
    ``L = 3Δ``: a prefix only locks (and thus commits) once 2f+1 clocks
    pass ``seq + L``, so commit latency tracks ~3Δ + reveal + RTT.  A
    conservative Δ costs latency linearly; an aggressive Δ risks liveness
    during asynchrony (the partial-synchrony tests cover that side).
    """
    cells = [
        SweepCell(
            "lyra",
            closed_loop_config(
                n, seed, 8 * SECONDS, delta_us=delta_ms * MILLISECONDS
            ),
        )
        for delta_ms in deltas_ms
    ]
    rows: List[Dict] = []
    for delta_ms, res in zip(deltas_ms, _sweep(cells)):
        rows.append(
            {
                "delta_ms": delta_ms,
                "L_ms": 3 * delta_ms,
                "latency_ms": round(res.avg_latency_ms, 1),
                "committed": res.committed_count,
                "safety": res.safety_violation,
            }
        )
    return rows


def obfuscation_ablation(*, n: int = 4, seed: int = 19) -> List[Dict]:
    """DESIGN ablation: §II-B's full VSS scheme vs the prototype's
    hash-based commitments (§VI-A).

    Trade-off: VSS lets any 2f+1 replicas reveal (no proposer trust, bigger
    ciphers and more reveal traffic); hash commitments are compact but the
    reveal key is held by the proposer (a crashed proposer delays reveals).
    """
    schemes = ("vss", "hash")
    cells = [
        SweepCell("lyra", closed_loop_config(n, seed, 6 * SECONDS, obfuscation=scheme))
        for scheme in schemes
    ]
    rows: List[Dict] = []
    for scheme, res in zip(schemes, _sweep(cells)):
        rows.append(
            {
                "scheme": scheme,
                "latency_ms": round(res.avg_latency_ms, 1),
                "committed": res.committed_count,
                "mbytes_on_wire": round(res.bytes_delivered / 1e6, 2),
                "reveal_quorum": "2f+1 replicas" if scheme == "vss" else "proposer only",
                "safety": res.safety_violation,
            }
        )
    return rows


def jitter_sensitivity(
    jitters: Sequence[float] = (0.0, 0.01, 0.03, 0.06, 0.12),
    *,
    n: int = 4,
    seed: int = 23,
) -> List[Dict]:
    """How much WAN jitter the λ = 5 ms prediction budget tolerates:
    acceptance stays near 1.0 while per-link jitter stays in the
    single-millisecond range [26], then degrades."""
    cells = [
        SweepCell(
            "lyra",
            closed_loop_config(n, seed, 6 * SECONDS, warmup_rounds=3, jitter=jitter),
        )
        for jitter in jitters
    ]
    rows: List[Dict] = []
    for jitter, res in zip(jitters, _sweep(cells)):
        total = res.accepted_instances + res.rejected_instances
        rows.append(
            {
                "jitter": jitter,
                "acceptance_rate": round(res.accepted_instances / total, 3)
                if total
                else None,
                "committed": res.committed_count,
                "latency_ms": round(res.avg_latency_ms, 1),
            }
        )
    return rows


_FLOOD = {"name": "flood", "kwargs": {"flood_interval_us": 200 * MILLISECONDS}}

#: §VI-D's cases: case -> the Byzantine replica's ``attack_nodes`` spec
#: (``None``: all honest).
BYZ_CASES: Dict[str, Optional[dict]] = {
    "baseline": None,
    "equivocator": {"name": "equivocate"},
    # INIT reaches only f+1 replicas.
    "silent-proposer": {"name": "silent-proposer", "kwargs": {"reach": 2}},
    "flooder": _FLOOD,
    "flooder-limited": _FLOOD,  # with the fair-allocation rate cap on
    "future-sequence": {
        "name": "future-sequence",
        "kwargs": {"offset_us": 3_600_000_000},
    },
    "prefix-staller": {"name": "prefix-staller"},
}

#: Byzantine proposer cases: the attacker needs transactions to misbehave
#: with, so a client is homed at it too.
_FUELLED = ("equivocator", "silent-proposer", "future-sequence")


def _completed(result: ExperimentResult, group: str) -> int:
    """Transactions one client group completed (the fairness block lists
    only groups with at least one completion)."""
    return result.fairness["latency"].get(group, {}).get("count", 0)


def _attack_rig(
    groups, *, seed: int, batch_size: int, duration_us: int, **overrides: Any
) -> ExperimentConfig:
    """The rig the BYZ tables share: four replicas, the given client
    groups, two warm-up rounds 150 ms apart."""
    return ExperimentConfig(
        n_nodes=4,
        seed=seed,
        batch_size=batch_size,
        workload=WorkloadSpec(groups=tuple(groups)),
        duration_us=duration_us,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        **overrides,
    )


def byzantine_config(case: str, *, seed: int = 13) -> ExperimentConfig:
    """One BYZ cell: the Byzantine replica is pid 3, and the ``correct``
    clients sit round-robin on the others."""
    attack = BYZ_CASES[case]
    groups = [ClientGroup(name="correct", count=3, window=5)]
    if case in _FUELLED:
        groups.append(ClientGroup(name="byzantine", count=1, home=3, window=3))
    return _attack_rig(
        groups,
        seed=seed,
        batch_size=10,
        duration_us=8 * SECONDS,
        # The fair-allocation cap (§VI-D) throttles flooders while leaving
        # honest proposal rates (well under 3/s here) untouched.
        max_proposer_rate_per_s=3.0 if case == "flooder-limited" else None,
        attack_nodes={3: attack} if attack else None,
    )


def byzantine_behaviours(*, seed: int = 13) -> List[Dict]:
    """§VI-D: one Byzantine Lyra replica per run; the correct replicas stay
    safe and live, and the row shows what the deviation cost."""
    cells = [SweepCell("lyra", byzantine_config(case, seed=seed)) for case in BYZ_CASES]
    rows = []
    for case, res in zip(BYZ_CASES, _sweep(cells)):
        completed = _completed(res, "correct")
        rows.append(
            {
                "case": case,
                "correct_clients_completed": completed,
                "accepted": res.accepted_instances,
                "rejected": res.rejected_instances,
                "latency_ms": round(res.avg_latency_ms, 1),
                "safety_violation": res.safety_violation,
                "live": completed > 0,
            }
        )
    return rows


#: §V-E's rows: (system, protocol, the attack pid 0 runs, or None).
CENSOR_CASES = (
    ("pompe+censoring-leader", "pompe", "censor-leader"),
    ("fino+blind-censoring-leader", "fino", "blind-censor-leader"),
    ("lyra", "lyra", None),
)


def censorship_config(*, seed: int = 17, leader: Optional[str] = None) -> ExperimentConfig:
    """One CENSOR cell, one closed-loop client per replica; the victim's
    (at pid 2) is its own group.  ``leader`` names the attack that pid 0,
    HotStuff's first leader, runs against pid 2."""
    groups = (
        ClientGroup(name="main", count=2, one_per_node=True, window=3),
        ClientGroup(name="victim", count=1, home=2, window=3),
        ClientGroup(name="rest", count=1, home=3, window=3),
    )
    attack = {0: {"name": leader, "kwargs": {"censored": [2]}}} if leader else None
    return _attack_rig(
        groups, seed=seed, batch_size=5, duration_us=10 * SECONDS, attack_nodes=attack
    )


def censorship_comparison(*, seed: int = 17) -> List[Dict]:
    """§V-E: a leader that drops pid 2's batches.  Pompē's HotStuff leader
    reads the proposer off each certificate; Fino's is blind to content,
    yet still starves the victim by proposer identity (the paper's §I
    critique of leader-based blind order-fairness); leaderless Lyra has no
    such role.  The censoring leader keeps making progress on everything
    else, so no view change fires."""
    cells = [
        SweepCell(protocol, censorship_config(seed=seed, leader=leader))
        for _, protocol, leader in CENSOR_CASES
    ]
    rows = []
    for (system, _, _), res in zip(CENSOR_CASES, _sweep(cells)):
        victim = _completed(res, "victim")
        rows.append(
            {
                "system": system,
                "victim_completed": victim,
                "others_completed": res.committed_count - victim,
            }
        )
    return rows


def warmup_bias_config(*, seed: int = 59) -> ExperimentConfig:
    """§VI-D's network adversary: all traffic to and from the victim
    (pid 2, the one client's home) is delayed 400 ms before GST (2 s),
    biasing its warm-up distance measurements."""
    gst = 2 * SECONDS
    victim_links = (
        LinkFault(src=(2,), delay_us=400 * MILLISECONDS, end_us=gst),
        LinkFault(dst=(2,), delay_us=400 * MILLISECONDS, end_us=gst),
    )
    return _attack_rig(
        [ClientGroup(name="victim", count=1, home=2, window=3)],
        seed=seed,
        batch_size=5,
        duration_us=12 * SECONDS,
        fault_plan=FaultPlan(links=victim_links, gst_us=gst),
    )


def warmup_bias(*, seed: int = 59) -> Dict:
    """The poisoned distance estimates reject the victim's early
    proposals, but continuous re-probing and vote piggybacks re-converge
    them after GST and its transactions commit (the "unexpected change
    ... triggers the rejection" then recovery story)."""
    (res,) = _sweep([SweepCell("lyra", warmup_bias_config(seed=seed))])
    return {
        "case": "network-warmup-bias",
        "victim_completed": res.committed_count,
        "rejected_then_retried": res.rejected_instances,
        "safety_violation": res.safety_violation,
        "live_after_gst": res.committed_count > 0,
    }


def format_rows(rows: List[Dict]) -> str:
    """Render rows as an aligned text table (what ``repro experiment``
    prints)."""
    if not rows:
        return "(no rows)"
    keys: List[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    widths = {
        k: max(len(str(k)), max(len(str(r.get(k, ""))) for r in rows)) for k in keys
    }
    header = "  ".join(str(k).ljust(widths[k]) for k in keys)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(k, "")).ljust(widths[k]) for k in keys)
        )
    return "\n".join(lines)


class Section(NamedTuple):
    """One printed table of an experiment: its title, the function that
    computes its rows (a single row may come back as a bare dict), and
    optionally an ASCII chart drawn from those rows."""

    title: str
    rows: Callable[[], Union[Dict, List[Dict]]]
    chart: Optional[Callable[[List[Dict]], str]] = None


#: Every paper artefact by name, each an ordered tuple of sections.
#: ``python -m repro experiment`` with no name runs them in this order.
EXPERIMENTS: Dict[str, Tuple[Section, ...]] = {
    "rounds": (Section("LAT3 — good-case message delays", goodcase_latency_rounds),),
    "fig1": (Section("FIG 1 — front-running", fig1_frontrunning),),
    "fig2": (
        Section("FIG 2 — commit latency vs n (ms)", fig2_commit_latency, chart_fig2),
    ),
    "fig3": (
        Section("FIG 3 — throughput vs n (k tx/s)", fig3_throughput, chart_fig3),
        Section("FIG 3 — message-level validation (n=4)", fig3_sim_validation),
    ),
    "lambda": (
        Section("LAM — lambda sweep", lambda_ablation),
        Section("LAM — jitter sensitivity", jitter_sensitivity),
    ),
    "batch": (Section("BATCH — batch-size sweep", batch_ablation),),
    "byzantine": (
        Section("BYZ — Byzantine behaviours", byzantine_behaviours),
        Section("BYZ — censorship comparison", censorship_comparison),
        Section("BYZ — warm-up bias (recovery after GST)", warmup_bias),
    ),
    "obfuscation": (
        Section("OBF — VSS vs hash commit-reveal", obfuscation_ablation),
    ),
    "decomp": (
        Section("DECOMP — latency phases", latency_breakdown),
        Section("DECOMP — delta sensitivity", delta_ablation),
    ),
}


__all__ = [
    "PAPER_NODE_COUNTS",
    "QUICK_NODE_COUNTS",
    "node_counts",
    "full_mode",
    "fig1_config",
    "fig1_frontrunning",
    "fig2_commit_latency",
    "fig3_throughput",
    "fig3_sim_validation",
    "goodcase_latency_rounds",
    "measure_lyra_rounds",
    "measure_pompe_rounds",
    "lambda_ablation",
    "obfuscation_ablation",
    "latency_breakdown",
    "delta_ablation",
    "jitter_sensitivity",
    "batch_ablation",
    "BYZ_CASES",
    "byzantine_config",
    "byzantine_behaviours",
    "CENSOR_CASES",
    "censorship_config",
    "censorship_comparison",
    "warmup_bias_config",
    "warmup_bias",
    "format_rows",
    "Section",
    "EXPERIMENTS",
]
