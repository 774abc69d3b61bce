"""Byzantine-behaviour experiments (§VI-D and §V-E).

Each case runs a 4-node Lyra cluster with one Byzantine replica (pid 3 —
clients only attach to correct replicas) and verifies the cluster stays
safe and live, reporting what the deviation cost.  The censorship case
contrasts a Byzantine HotStuff leader in Pompē with leaderless Lyra.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.attacks.byzantine import (
    EquivocatingNode,
    FloodingNode,
    FutureSequenceNode,
    PrefixStallerNode,
    SilentProposerNode,
)
from repro.attacks.pompe_attacks import CensoringLeaderNode
from repro.harness.cluster import check_safety
from repro.harness.config import ExperimentConfig
from repro.harness.factory import build_cluster
from repro.sim.engine import MILLISECONDS, SECONDS

_CASES: Dict[str, Optional[type]] = {
    "baseline": None,
    "equivocator": EquivocatingNode,
    "silent-proposer": SilentProposerNode,
    "flooder": FloodingNode,
    "flooder-limited": FloodingNode,  # with the fair-allocation rate cap on
    "future-sequence": FutureSequenceNode,
    "prefix-staller": PrefixStallerNode,
}

_CASE_KWARGS: Dict[str, dict] = {
    "silent-proposer": {"reach": 2},  # INIT reaches only f+1 replicas
    "flooder": {"flood_interval_us": 200 * MILLISECONDS},
    "flooder-limited": {"flood_interval_us": 200 * MILLISECONDS},
    "future-sequence": {"offset_us": 3_600_000_000},
}


def byzantine_cases() -> List[str]:
    return list(_CASES)


def run_byzantine_case(case: str, *, seed: int = 13, n: int = 4) -> Dict:
    """One Byzantine Lyra replica; report liveness/safety of the cluster."""
    if case not in _CASES:
        raise ValueError(f"unknown Byzantine case {case!r}")
    cfg = ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=10,
        clients_per_node=0,
        duration_us=8 * SECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        # The fair-allocation cap (§VI-D) throttles flooders while leaving
        # honest proposal rates (well under 3/s here) untouched.
        max_proposer_rate_per_s=3.0 if case == "flooder-limited" else None,
    )
    byz_pid = n - 1
    node_classes = {}
    node_kwargs = {}
    if _CASES[case] is not None:
        node_classes[byz_pid] = _CASES[case]
        node_kwargs[byz_pid] = _CASE_KWARGS.get(case, {})
    cluster = build_cluster(
        cfg, node_classes=node_classes, node_kwargs=node_kwargs
    )
    # Clients only on correct replicas.
    from repro.workload.clients import ClosedLoopClient

    for home in range(n - 1):
        cpid = cluster.topology.place(cluster.topology.region_of(home))
        client = ClosedLoopClient(
            cpid, cluster.sim, home, window=5, start_at_us=cfg.client_start_us()
        )
        cluster.clients.append(client)
        cluster.network.register(client, replica=False)
    # Fuel the Byzantine proposer cases: the attacker needs transactions
    # in its mempool to misbehave with.
    if case in ("equivocator", "silent-proposer", "future-sequence"):
        byz_client = ClosedLoopClient(
            cluster.topology.place(cluster.topology.region_of(byz_pid)),
            cluster.sim,
            byz_pid,
            window=3,
            start_at_us=cfg.client_start_us(),
        )
        cluster.clients.append(byz_client)
        cluster.network.register(byz_client, replica=False)

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
    from repro.net.adversary import TargetedDelayAdversary
    from repro.workload.clients import ClosedLoopClient

    cfg = ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=5,
        clients_per_node=0,
        duration_us=12 * SECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
    )
    cluster = build_cluster(cfg)
    cluster.network.adversary = TargetedDelayAdversary(
        {2}, 400 * MILLISECONDS, gst_us=2 * SECONDS
    )
    client = ClosedLoopClient(
        cluster.topology.place(cluster.topology.region_of(2)),
        cluster.sim,
        2,
        window=3,
        start_at_us=cfg.client_start_us(),
    )
    cluster.clients.append(client)
    cluster.network.register(client, replica=False)
    result = cluster.run()
    return {
        "case": "network-warmup-bias",
        "victim_completed": client.stats.completed,
        "rejected_then_retried": result.rejected_instances,
        "safety_violation": result.safety_violation,
        "live_after_gst": client.stats.completed > 0,
    }


def run_censorship_case(*, seed: int = 17, n: int = 4) -> List[Dict]:
    """Pompē with a censoring leader (drops pid-2 certificates) vs Lyra."""
    victim = 2
    cfg = ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=5,
        clients_per_node=1,
        client_window=3,
        duration_us=10 * SECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
    )
    pompe = build_cluster(
        cfg,
        protocol="pompe",
        node_classes={0: CensoringLeaderNode},
        node_kwargs={0: {"censored": {victim}}},
    )
    # Keep the censoring leader in power: no view changes on its watch —
    # it makes "progress" on everything except the victim's certificates,
    # so its behaviour is indistinguishable from honest slowness.
    pompe_res = pompe.run(skip_safety_check=True)
    pompe_victim = pompe.clients[victim].stats.completed
    pompe_others = sum(
        c.stats.completed for i, c in enumerate(pompe.clients) if i != victim
    )

    lyra = build_cluster(cfg, protocol="lyra")
    lyra_res = lyra.run(skip_safety_check=True)
    lyra_victim = lyra.clients[victim].stats.completed
    lyra_others = sum(
        c.stats.completed for i, c in enumerate(lyra.clients) if i != victim
    )
    leader: CensoringLeaderNode = pompe.nodes[0]  # type: ignore[assignment]

    # Fino-style commit-reveal with a *blind* censoring leader: it cannot
    # read any payload, yet still starves the victim by proposer identity —
    # the paper's §I critique of leader-based blind order-fairness.
    fino_victim, fino_others, fino_censored = _run_fino_censorship(
        seed=seed, n=n, victim=victim
    )
    return [
        {
            "system": "pompe+censoring-leader",
            "victim_completed": pompe_victim,
            "others_completed": pompe_others,
            "certs_censored": leader.censored_count,
        },
        {
            "system": "fino+blind-censoring-leader",
            "victim_completed": fino_victim,
            "others_completed": fino_others,
            "certs_censored": fino_censored,
        },
        {
            "system": "lyra",
            "victim_completed": lyra_victim,
            "others_completed": lyra_others,
            "certs_censored": 0,
        },
    ]


def _run_fino_censorship(*, seed: int, n: int, victim: int):
    from repro.baselines.fino import (
        BlindCensoringLeaderFino,
        FinoConfig,
        FinoNode,
    )
    from repro.core.obfuscation import HashCommitObfuscation
    from repro.crypto.signatures import KeyRegistry
    from repro.crypto.threshold import ThresholdScheme
    from repro.net.latency import UniformLatencyModel
    from repro.net.network import Network, NetworkConfig
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngRegistry
    from repro.workload.clients import ClosedLoopClient

    f = (n - 1) // 3
    sim = Simulator()
    registry = KeyRegistry(seed)
    threshold = ThresholdScheme(2 * f + 1, n, seed=seed)
    obf = HashCommitObfuscation(2 * f + 1, n, seed=seed)
    net = Network(
        sim,
        UniformLatencyModel(10 * MILLISECONDS),
        config=NetworkConfig(delta_us=50 * MILLISECONDS, bandwidth_enabled=False),
    )
    nodes = []
    for pid in range(n):
        cls = BlindCensoringLeaderFino if pid == 0 else FinoNode
        kwargs = {"censored": {victim}} if pid == 0 else {}
        node = cls(
            pid,
            sim,
            n=n,
            f=f,
            registry=registry,
            threshold=threshold,
            obfuscation=obf,
            config=FinoConfig(batch_size=5, batch_timeout_us=20 * MILLISECONDS),
            rng=RngRegistry(seed),
            **kwargs,
        )
        nodes.append(node)
        net.register(node)
    clients = []
    for i, home in enumerate(range(n)):
        client = ClosedLoopClient(
            100 + i, sim, home, window=3, start_at_us=200_000
        )
        clients.append(client)
        net.register(client, replica=False)
    for node in nodes:
        node.start()
    sim.run(until=8 * SECONDS)
    victim_completed = clients[victim].stats.completed
    others = sum(
        c.stats.completed for i, c in enumerate(clients) if i != victim
    )
    return victim_completed, others, nodes[0].censored_count


__all__ = [
    "run_byzantine_case",
    "run_censorship_case",
    "run_warmup_bias_case",
    "byzantine_cases",
]
