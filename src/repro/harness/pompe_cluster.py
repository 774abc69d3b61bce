"""Pompē cluster builder — the §VI baseline deployment.

Mirrors :mod:`repro.harness.cluster` so Fig. 2/3 sweeps run both systems
under identical topology, cost model, client placement and seeds.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

from repro.baselines.pompe import PompeConfig, PompeNode
from repro.core.smr import check_prefix_consistency
from repro.crypto.cost import DEFAULT_COSTS
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.harness.cluster import ExperimentResult
from repro.harness.config import ExperimentConfig
from repro.metrics.fairness import fairness_block
from repro.net.adversary import NullAdversary, PartialSynchronyAdversary
from repro.net.latency import GeoLatencyModel
from repro.net.network import Network, NetworkConfig
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.workload.clients import TxKey, _BaseClient
from repro.workload.spec import build_workload


class PompeCluster:
    """A fully wired Pompē deployment inside one simulator.

    ``node_classes`` / ``node_kwargs`` inject Byzantine node subclasses
    per pid (censoring leaders, cherry-picking orderers, ...).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        *,
        node_classes=None,
        node_kwargs=None,
    ) -> None:
        self.config = config
        self.sim = Simulator()
        self.rng = RngRegistry(config.seed)
        f = config.resolved_f()
        n = config.n_nodes

        self.topology = Topology(n, config.regions)
        self.registry = KeyRegistry(config.seed)
        self.threshold = ThresholdScheme(2 * f + 1, n, seed=config.seed)
        costs = DEFAULT_COSTS.scaled(config.cpu_cost_scale)

        self.nodes: List[PompeNode] = []
        skew_rng = self.rng.get("clock-skew")
        for pid in range(n):
            node_cfg = PompeConfig(
                batch_size=config.batch_size,
                batch_timeout_us=config.batch_timeout_us,
                costs=costs,
                clock_skew_us=int(
                    skew_rng.integers(
                        -config.clock_skew_max_us, config.clock_skew_max_us + 1
                    )
                ),
            )
            cls = (node_classes or {}).get(pid, PompeNode)
            extra = (node_kwargs or {}).get(pid, {})
            self.nodes.append(
                cls(
                    pid,
                    self.sim,
                    n=n,
                    f=f,
                    registry=self.registry,
                    threshold=self.threshold,
                    config=node_cfg,
                    rng=self.rng,
                    **extra,
                )
            )

        # Clients: declared by the workload spec (legacy knobs shim into
        # an equivalent spec), mirroring the Lyra cluster's placement.
        self.workload_spec = config.resolved_workload()
        self.workload = build_workload(
            self.workload_spec,
            sim=self.sim,
            topology=self.topology,
            rng=self.rng,
            n=n,
            start_at_us=config.client_start_us(),
            stop_at_us=config.duration_us,
        )
        self.clients: List[_BaseClient] = self.workload.clients

        # MEV observation tap: Pompē batches travel in clear text during
        # the ordering phase, so a bot colocated with its home replica
        # sees every victim payload *before* a timestamp is assigned —
        # the attack surface Lyra closes.  Chained after any existing
        # hook (a colluding CherryPickingOrdererNode installs its own).
        for node in self.nodes:
            bots = self.workload.mev_bots_by_home().get(node.pid)
            if not bots:
                continue
            prev = node.observe_batch

            def tap(batch, sender, prev=prev, bots=tuple(bots)):
                if prev is not None:
                    prev(batch, sender)
                for bot in bots:
                    bot.on_observed_batch(batch)

            node.observe_batch = tap

        # Pompē always runs the geo matrix; it has no uniform-delay mode.
        latency = GeoLatencyModel(
            self.topology.placement, jitter=config.jitter, rng=self.rng
        )
        adversary = (
            PartialSynchronyAdversary(
                config.gst_us,
                max_delay_us=config.adversary_max_delay_us,
                rng=self.rng,
            )
            if config.gst_us > 0
            else NullAdversary()
        )
        self.network = Network(
            self.sim,
            latency,
            adversary,
            NetworkConfig(
                delta_us=config.delta_us,
                bandwidth_enabled=config.bandwidth_enabled,
                rate_bps=config.rate_bps,
            ),
        )
        for node in self.nodes:
            self.network.register(node, replica=True)
        for client in self.clients:
            self.network.register(client, replica=False)

        self.committed_order: List[TxKey] = []
        self.exec_events: Dict[int, List[Tuple[int, int]]] = {}
        for node in self.nodes:
            events: List[Tuple[int, int]] = []
            self.exec_events[node.pid] = events

            def _hook(cert, events=events, node=node):
                events.append((node.sim.now, len(cert.batch)))

            hook = _hook
            if self.workload_spec.fairness and node.pid == 0:

                def hook(cert, prev=hook, order=self.committed_order):
                    prev(cert)
                    order.extend(tx.key() for tx in cert.batch.txs)

            node.on_executed = hook

    # ------------------------------------------------------------------
    def run(self, *, skip_safety_check: bool = False) -> ExperimentResult:
        cfg = self.config
        for node in self.nodes:
            node.start()
        loop_start = time.perf_counter()
        self.sim.run(until=cfg.duration_us)
        sim_wall_s = time.perf_counter() - loop_start
        self.workload.finalize(self.sim.now)

        latencies: List[int] = []
        for client in self.clients:
            latencies.extend(client.stats.latencies_us)
        result = ExperimentResult(
            n_nodes=cfg.n_nodes,
            duration_us=cfg.duration_us,
            executed_total=max(
                (node.stats.txs_executed for node in self.nodes), default=0
            ),
            committed_count=sum(c.stats.completed for c in self.clients),
            latencies_us=latencies,
            events_processed=self.sim.events_processed,
            messages_delivered=self.network.messages_delivered,
            bytes_delivered=self.network.bytes_delivered,
            sim_wall_s=sim_wall_s,
        )
        if latencies:
            result.avg_latency_us = float(statistics.fmean(latencies))
            ordered = sorted(latencies)
            result.p50_latency_us = float(ordered[len(ordered) // 2])
            result.p99_latency_us = float(
                ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
            )
        measure_from = cfg.measurement_start_us()
        window_us = max(1, cfg.duration_us - measure_from)
        per_node = sorted(
            sum(c for t, c in events if t >= measure_from)
            for events in self.exec_events.values()
        )
        if per_node:
            result.throughput_tps = (
                per_node[len(per_node) // 2] * 1_000_000.0 / window_us
            )
        if self.workload_spec.fairness:
            block = fairness_block(
                submitted_order=self.workload.submit_order(),
                committed_order=self.committed_order,
                attempts=self.workload.sandwich_attempts(),
                latencies_by_group=self.workload.latencies_by_group(),
            )
            block["counts"] = self.workload.counts()
            result.fairness = block
        if not skip_safety_check:
            outputs = {node.pid: node.output_sequence() for node in self.nodes}
            result.safety_violation = check_prefix_consistency(outputs)
        return result


__all__ = ["PompeCluster"]
