"""Byzantine-behaviour experiments (§VI-D and §V-E).

Each case runs a 4-node Lyra cluster with one Byzantine replica (pid 3 —
clients only attach to correct replicas) and verifies the cluster stays
safe and live, reporting what the deviation cost.  The censorship case
contrasts a Byzantine HotStuff leader in Pompē and in Fino with leaderless
Lyra.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.attacks.pompe_attacks import CensoringLeaderNode
from repro.baselines.fino import BlindCensoringLeaderFino
from repro.harness.cluster import check_safety
from repro.harness.config import ExperimentConfig
from repro.harness.factory import build_cluster
from repro.net.faults import FaultPlan, LinkFault
from repro.sim.engine import MILLISECONDS, SECONDS
from repro.workload.spec import ClientGroup, WorkloadSpec

_FLOOD = {"name": "flood", "kwargs": {"flood_interval_us": 200 * MILLISECONDS}}

#: case -> the Byzantine replica's ``attack_nodes`` spec (None: all honest).
_CASE_ATTACKS: Dict[str, Optional[dict]] = {
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


def byzantine_cases() -> List[str]:
    return list(_CASE_ATTACKS)


def run_byzantine_case(case: str, *, seed: int = 13, n: int = 4) -> Dict:
    """One Byzantine Lyra replica; report liveness/safety of the cluster."""
    if case not in _CASE_ATTACKS:
        raise ValueError(f"unknown Byzantine case {case!r}")
    byz_pid = n - 1
    attack = _CASE_ATTACKS[case]
    # Clients only on correct replicas (round-robin homes 0..n-2).  The
    # Byzantine proposer cases also fuel the attacker's mempool: it needs
    # transactions to misbehave with.
    groups = [ClientGroup(name="correct", count=n - 1, window=5)]
    if case in ("equivocator", "silent-proposer", "future-sequence"):
        groups.append(ClientGroup(name="byzantine", count=1, home=byz_pid, window=3))
    cfg = ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=10,
        workload=WorkloadSpec(groups=tuple(groups), fairness=False),
        duration_us=8 * SECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        # The fair-allocation cap (§VI-D) throttles flooders while leaving
        # honest proposal rates (well under 3/s here) untouched.
        max_proposer_rate_per_s=3.0 if case == "flooder-limited" else None,
        attack_nodes={byz_pid: attack} if attack else None,
    )
    cluster = build_cluster(cfg)
    result = cluster.run(skip_safety_check=True)
    # Safety over CORRECT replicas only (the Byzantine one may lie about
    # its own output).
    violation = check_safety(
        {
            node.pid: node.output_sequence()
            for node in cluster.nodes
            if node.pid != byz_pid
        }
    )

    correct_completed = sum(
        c.stats.completed for c in cluster.clients[: n - 1]
    )
    rate_limited = sum(
        node.commit.rate_limited_count
        for node in cluster.nodes
        if node.pid != byz_pid and node.commit
    )
    return {
        "case": case,
        "correct_clients_completed": correct_completed,
        "accepted": result.accepted_instances,
        "rejected": result.rejected_instances,
        "rate_limited": rate_limited,
        "latency_ms": round(result.avg_latency_ms, 1),
        "safety_violation": violation,
        "live": correct_completed > 0,
    }


def run_warmup_bias_case(*, seed: int = 59, n: int = 4) -> Dict:
    """§VI-D's network adversary: biases the propagation-delay measurements
    during warm-up (all traffic to/from one victim delayed pre-GST).  The
    poisoned distance estimates reject the victim's early proposals, but
    continuous re-probing and vote piggybacks re-converge the estimates
    after GST and its transactions commit (the "unexpected change ...
    triggers the rejection" then recovery story)."""
    gst = 2 * SECONDS
    victim_links = (
        LinkFault(src=(2,), delay_us=400 * MILLISECONDS, end_us=gst),
        LinkFault(dst=(2,), delay_us=400 * MILLISECONDS, end_us=gst),
    )
    cfg = ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=5,
        workload=WorkloadSpec(
            groups=(ClientGroup(name="victim", count=1, home=2, window=3),),
            fairness=False,
        ),
        duration_us=12 * SECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        fault_plan=FaultPlan(links=victim_links, gst_us=gst),
    )
    cluster = build_cluster(cfg)
    client = cluster.clients[0]
    result = cluster.run()
    return {
        "case": "network-warmup-bias",
        "victim_completed": client.stats.completed,
        "rejected_then_retried": result.rejected_instances,
        "safety_violation": result.safety_violation,
        "live_after_gst": client.stats.completed > 0,
    }


def run_censorship_case(*, seed: int = 17, n: int = 4) -> List[Dict]:
    """A leader that drops pid 2's batches: Pompē's HotStuff leader reads
    the proposer off each certificate; Fino's is blind to content, yet
    still starves the victim by proposer identity (the paper's §I critique
    of leader-based blind order-fairness); leaderless Lyra has no such
    role.  All three run the same config on the same cluster."""
    victim = 2
    cfg = ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=5,
        workload=WorkloadSpec(
            groups=(ClientGroup(name="main", count_per_node=1, window=3),),
            fairness=False,
        ),
        duration_us=10 * SECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
    )
    rows = []
    for system, protocol, leader_cls in (
        ("pompe+censoring-leader", "pompe", CensoringLeaderNode),
        ("fino+blind-censoring-leader", "fino", BlindCensoringLeaderFino),
        ("lyra", "lyra", None),
    ):
        censoring = leader_cls is not None
        cluster = build_cluster(
            cfg,
            protocol=protocol,
            node_classes={0: leader_cls} if censoring else None,
            node_kwargs={0: {"censored": {victim}}} if censoring else None,
        )
        # The censoring leader keeps power: it makes "progress" on
        # everything except the victim's batches, so its behaviour is
        # indistinguishable from honest slowness and no view change fires.
        cluster.run(skip_safety_check=True)
        completed = [c.stats.completed for c in cluster.clients]
        rows.append(
            {
                "system": system,
                "victim_completed": completed[victim],
                "others_completed": sum(completed) - completed[victim],
                "certs_censored": (
                    cluster.nodes[0].censored_count if censoring else 0
                ),
            }
        )
    return rows


__all__ = [
    "run_byzantine_case",
    "run_censorship_case",
    "run_warmup_bias_case",
    "byzantine_cases",
]
