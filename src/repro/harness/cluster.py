"""One cluster for every protocol, and the experiment result schema.

:class:`Cluster` assembles a full simulated deployment — topology, WAN,
PKI, replicas, workload clients, fault injector, network options,
invariant watchdog, metrics registry — from an
:class:`~repro.harness.config.ExperimentConfig`; ``run()`` drives it for
the configured virtual duration and returns consolidated measurements plus
safety-check results.  Everything that differs between protocols sits in a
small adapter, one per protocol (:data:`PROTOCOLS`: Lyra, Pompē, Fino): it
builds the replicas and names the config features the protocol cannot
honour.  Every replica runs in the one shell
(:class:`~repro.core.replica.Replica`), so the cluster sets each one's
``on_executed`` and ``on_readable`` hooks itself.  Attack replicas come
from the config alone (``attack_nodes``, resolved through
:mod:`repro.attacks.registry`), so the cluster knows which replicas are
correct, and its oracles cover those.  Construct a cluster through
:func:`repro.harness.factory.build_cluster`; it is the only way a
deployment is built.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.baselines.fino import FinoConfig, FinoNode
from repro.baselines.pompe import PompeConfig, PompeNode
from repro.core.clocks import true_distance_us
from repro.core.commit import CommitConfig
from repro.core.node import LyraConfig, LyraNode
from repro.core.obfuscation import HashCommitObfuscation, make_obfuscation
from repro.core.smr import check_output_sorted, check_prefix_consistency
from repro.crypto.cost import DEFAULT_COSTS
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.harness.config import ExperimentConfig
from repro.metrics.fairness import fairness_block
from repro.metrics.invariants import InvariantWatchdog
from repro.metrics.registry import MetricsRegistry
from repro.metrics.spans import decompose_phases
from repro.metrics.tracelog import TraceLog, install_lyra_tracing
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.latency import make_latency_model
from repro.net.network import Network, NetworkConfig
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.workload.clients import TxKey, _BaseClient
from repro.workload.spec import build_workload


@dataclass
class ExperimentResult:
    """Consolidated measurements of one run."""

    n_nodes: int
    duration_us: int
    committed_count: int = 0  # txs completed by clients in measurement window
    executed_total: int = 0  # txs executed at replicas (all windows)
    throughput_tps: float = 0.0
    avg_latency_us: float = 0.0
    p50_latency_us: float = 0.0
    p99_latency_us: float = 0.0
    latencies_us: List[int] = field(default_factory=list)
    safety_violation: Optional[str] = None
    rejected_instances: int = 0
    accepted_instances: int = 0
    events_processed: int = 0
    messages_delivered: int = 0
    bytes_delivered: int = 0
    # Chaos instrumentation: the always-on watchdog's findings and the
    # fault/transport counters of the run.
    invariant_checks: int = 0
    invariant_violations: List[str] = field(default_factory=list)
    fault_stats: Dict[str, int] = field(default_factory=dict)
    # Observability: the metrics-registry snapshot of the run, plus the
    # proposer-side phase decomposition of the trace under ``"phases"``
    # (empty dict unless ``ExperimentConfig.tracing`` was on).  Plain
    # JSON, so it crosses sweep worker boundaries and the on-disk result
    # cache.
    metrics: Dict[str, Any] = field(default_factory=dict)
    # Fairness report (reorder distance, sandwich outcomes, per-group
    # latency percentiles, end-of-run accounting) — populated when the
    # run's WorkloadSpec has ``fairness`` on, empty otherwise.
    fairness: Dict[str, Any] = field(default_factory=dict)
    # Wall-clock seconds spent inside the event loop proper (excludes
    # post-run consolidation: snapshotting, safety checks).  The ledger
    # subtracts it from the run's wall time to report consolidation
    # cost separately.  Host timing, not a simulation result: it is
    # excluded from to_dict() and from equality so serialized results —
    # and result comparisons — stay deterministic.
    sim_wall_s: float = field(default=0.0, compare=False)

    @property
    def avg_latency_ms(self) -> float:
        return self.avg_latency_us / 1000.0

    # ------------------------------------------------------------------
    # Serialization — sweep cells persist results as JSON and ship them
    # across worker process boundaries.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serialisable representation (round-trips via from_dict).

        Omits ``sim_wall_s``: host wall-clock varies run to run, and the
        serialized form must be bit-identical for the same seed and
        config (the sweep cache and the serial-vs-parallel determinism
        oracle both diff these dicts directly).
        """
        data = asdict(self)
        del data["sim_wall_s"]
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentResult":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ExperimentResult fields: {sorted(unknown)}")
        return cls(**data)


# ----------------------------------------------------------------------
# Result consolidation
# ----------------------------------------------------------------------
def summarise_latencies(result: ExperimentResult, latencies: List[int]) -> None:
    """Store the submit->reply sample on ``result`` with its avg/p50/p99."""
    result.latencies_us = latencies
    if latencies:
        result.avg_latency_us = float(statistics.fmean(latencies))
        ordered = sorted(latencies)
        result.p50_latency_us = float(ordered[len(ordered) // 2])
        result.p99_latency_us = float(
            ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
        )


def windowed_throughput(
    exec_events: Iterable[List[Tuple[int, int]]], measure_from: int, duration_us: int
) -> float:
    """Committed-transaction throughput over the measurement window, from
    replica-side ``(time, tx count)`` execution logs (the paper reports
    replica-observed commit throughput).  All correct replicas execute the
    same log; the median replica is robust to stragglers still draining at
    the cutoff."""
    window_us = max(1, duration_us - measure_from)
    per_node = sorted(
        sum(count for t, count in events if t >= measure_from)
        for events in exec_events
    )
    if not per_node:
        return 0.0
    return per_node[len(per_node) // 2] * 1_000_000.0 / window_us


def check_safety(outputs: Dict[int, List[Tuple[int, bytes]]]) -> Optional[str]:
    """End-of-run SMR safety: prefix agreement, then each log sorted."""
    violation = check_prefix_consistency(outputs)
    if violation is None:
        for pid in sorted(outputs):
            err = check_output_sorted(outputs[pid])
            if err is not None:
                return f"pid {pid}: {err}"
    return violation


def instance_counts(nodes: Iterable) -> Tuple[int, int]:
    """``(accepted, rejected)`` BOC instances: accepted is the furthest
    replica's count, rejected the sum over replicas.  Replicas without a
    Lyra commit state (Pompē) contribute nothing."""
    commits = [c for c in (getattr(node, "commit", None) for node in nodes) if c]
    return (
        max((c.accepted_count for c in commits), default=0),
        sum(c.rejected_count for c in commits),
    )


# ----------------------------------------------------------------------
# Protocol adapters
# ----------------------------------------------------------------------
class LyraAdapter:
    """Lyra: commit-reveal replicas whose payloads are first readable at
    execution."""

    node_class = LyraNode

    def unsupported(self, config: ExperimentConfig) -> List[str]:
        return []

    def attack_specs(self, config: ExperimentConfig) -> Dict[int, Dict[str, Any]]:
        """The attack replicas the config declares, by pid."""
        return dict(config.attack_nodes or {})

    def build_nodes(self, cluster: "Cluster", classes, kwargs) -> List[LyraNode]:
        config = cluster.config
        cluster.obf = make_obfuscation(
            config.obfuscation, 2 * cluster.f + 1, cluster.n, seed=config.seed
        )
        nodes = []
        for pid, skew_us in enumerate(cluster.clock_skews()):
            node_cfg = LyraConfig(
                batch_size=config.batch_size,
                batch_timeout_us=config.batch_timeout_us,
                commit=CommitConfig(
                    lambda_us=config.lambda_us,
                    # The hash scheme has no dealing to check.
                    check_dealing=config.obfuscation == "vss",
                    max_proposer_rate_per_s=config.max_proposer_rate_per_s,
                    report_quorum=config.report_quorum,
                ),
                status_interval_us=config.status_interval_us,
                warmup_rounds=config.warmup_rounds,
                warmup_spacing_us=config.warmup_spacing_us,
                costs=cluster.costs,
                clock_skew_us=skew_us,
            )
            cls = classes.get(pid, LyraNode)
            extra = {"obfuscation": cluster.obf, **kwargs.get(pid, {})}
            nodes.append(cluster.replica(cls, pid, node_cfg, **extra))
        return nodes

    def instrument(self, cluster: "Cluster", registry: MetricsRegistry) -> None:
        for node in cluster.nodes:
            node.enable_metrics(registry)
        # Estimator error vs the latency model's ground truth (per-node
        # estimator health is registered by ``enable_metrics`` itself).
        registry.add_source("distance", cluster.distance_error_stats)

    def watch(self, cluster: "Cluster") -> None:
        """Lemma 7 as the watchdog check ``reveal-before-commit``: a
        correct replica releases its decryption share of an instance only
        once the instance is in its own committed prefix.  It is observed
        where a share arrives, so no sender code path can skip it.  With
        no early correct share, what exists before a correct replica
        commits comes from at most f attackers, below the 2f+1 reveal
        threshold."""
        nodes = cluster.nodes
        correct = frozenset(range(cluster.n)) - cluster.attackers
        early: List[Tuple[int, Any]] = []

        def on_share(sender: int, iid) -> None:
            if sender in correct and iid not in nodes[sender].commit.committed_ids:
                early.append((sender, iid))

        def check() -> Optional[str]:
            if not early:
                return None
            sender, iid = early[0]
            detail = (
                f"{len(early)} share(s) released before commit, the first "
                f"by pid {sender} for instance {tuple(iid)}"
            )
            early.clear()
            return detail

        for node in nodes:
            node.on_share = on_share
        cluster.watchdog.add_check("reveal-before-commit", check)


class PompeAdapter:
    """Pompē: clear-text ordering phase, then HotStuff, then execution in
    assigned-timestamp order."""

    node_class = PompeNode

    def unsupported(self, config: ExperimentConfig) -> List[str]:
        """What a HotStuff-sequenced replica cannot honour (Fino's too)."""
        name = self.node_class.__name__
        plan = config.fault_plan
        checks = (
            (config.tracing, "tracing=True (install_lyra_tracing is Lyra's)"),
            (
                config.report_quorum is not None,
                f"report_quorum={config.report_quorum} (it sets Lyra's "
                "Algorithm-4 report quorum)",
            ),
            (
                plan is not None
                and any(ev.recover_at_us is not None for ev in plan.crashes),
                f"crash recover_at_us ({name} has no recover(): nothing "
                "re-arms its batch-flush, HotStuff view or other timers)",
            ),
        )
        return [why for failed, why in checks if failed]

    def attack_specs(self, config: ExperimentConfig) -> Dict[int, Dict[str, Any]]:
        """``attack_nodes``, plus ``cherry-pick`` at each colluding MEV
        bot's home replica: it biases the assigned timestamps of the
        batches it orders (the bot's front-runs) downward — protocol-legal
        for a Byzantine node.  An explicit ``attack_nodes`` entry wins."""
        specs = dict(config.attack_nodes or {})
        for group in config.resolved_workload().groups:
            if group.client == "mev" and group.collude:
                for home in group.homes(config.n_nodes):
                    specs.setdefault(home, {"name": "cherry-pick", "kwargs": {}})
        return specs

    def build_nodes(self, cluster: "Cluster", classes, kwargs) -> List[PompeNode]:
        config = cluster.config
        return [
            cluster.replica(
                classes.get(pid, PompeNode),
                pid,
                PompeConfig(
                    batch_size=config.batch_size,
                    batch_timeout_us=config.batch_timeout_us,
                    costs=cluster.costs,
                    clock_skew_us=skew_us,
                ),
                **kwargs.get(pid, {}),
            )
            for pid, skew_us in enumerate(cluster.clock_skews())
        ]

    def instrument(self, cluster: "Cluster", registry: MetricsRegistry) -> None:
        pass

    def watch(self, cluster: "Cluster") -> None:
        """No protocol check: Pompē orders clear text, and Fino's
        one-share reveal is not Lemma 7's (2f+1, n) scheme."""


class FinoAdapter(PompeAdapter):
    """Fino: hash-committed batches sequenced blind by a HotStuff leader,
    executed in block order as their proposers reveal them.  It refuses
    what Pompē refuses (the same HotStuff substrate)."""

    node_class = FinoNode
    # Blind ordering: there is no clear-text timestamp to cherry-pick.
    attack_specs = LyraAdapter.attack_specs

    def build_nodes(self, cluster: "Cluster", classes, kwargs) -> List[FinoNode]:
        config = cluster.config
        cluster.obf = HashCommitObfuscation(
            2 * cluster.f + 1, cluster.n, seed=config.seed
        )
        node_cfg = FinoConfig(
            batch_size=config.batch_size,
            batch_timeout_us=config.batch_timeout_us,
            costs=cluster.costs,
        )
        return [
            cluster.replica(
                classes.get(pid, FinoNode),
                pid,
                node_cfg,
                obfuscation=cluster.obf,
                **kwargs.get(pid, {}),
            )
            for pid in range(cluster.n)
        ]


#: Protocol name -> adapter; ``build_cluster`` and the CLI read this table.
PROTOCOLS: Dict[str, Any] = {
    "lyra": LyraAdapter(),
    "pompe": PompeAdapter(),
    "fino": FinoAdapter(),
}


def check_cell(
    config: ExperimentConfig, protocol: str
) -> Tuple[Any, Dict[int, type], Dict[int, dict]]:
    """Refuse, with a ``ValueError``, a cell no cluster can run: an
    unknown protocol, a config feature its adapter cannot honour, an
    attack replica of another protocol, an ``f`` the cluster size does not
    tolerate, or a fault plan that together with the attack replicas
    exceeds ``f``.  Returns the adapter and the attack replicas' classes
    and constructor kwargs by pid."""
    adapter = PROTOCOLS.get(protocol.lower())
    if adapter is None:
        known = ", ".join(sorted(PROTOCOLS))
        raise ValueError(f"unknown protocol {protocol!r}; available: {known}")
    problems = adapter.unsupported(config)
    if problems:
        raise ValueError(f"{protocol} cannot honour: " + "; ".join(problems))
    f = config.resolved_f()
    specs = adapter.attack_specs(config)
    classes: Dict[int, type] = {}
    kwargs: Dict[int, dict] = {}
    if specs:
        # Imported only when needed: the attacks package is ~10 ms.
        from repro.attacks.registry import resolve_attack_nodes

        classes, kwargs = resolve_attack_nodes(specs)
        base = adapter.node_class
        foreign = [
            f"attack_nodes[{pid}]={specs[pid]['name']!r} "
            f"({cls.__name__} is not a {base.__name__})"
            for pid, cls in sorted(classes.items())
            if not issubclass(cls, base)
        ]
        if foreign:
            raise ValueError(f"{protocol} cannot honour: " + "; ".join(foreign))
    plan = config.fault_plan
    if plan is not None and not plan.empty:
        # Crashes and attack replicas share the resilience budget: the
        # plan is rejected if they jointly exceed f.
        plan.validate_for(config.n_nodes, f, byzantine=tuple(sorted(classes)))
    return adapter, classes, kwargs


class Cluster:
    """A fully wired deployment of one protocol inside one simulator.

    The config alone decides which replicas run an attack class
    (``attack_nodes``, and under Pompē each colluding MEV bot's home
    replica); :attr:`attackers` holds their pids.  The watchdog, the
    end-of-run safety check and the result's instance and execution
    counts cover the other, correct replicas; the watchdog counts the
    attackers against ``f``.
    """

    def __init__(self, config: ExperimentConfig, *, protocol: str = "lyra") -> None:
        adapter, classes, kwargs = check_cell(config, protocol)
        self.protocol = adapter
        self.config = config
        self.sim = Simulator()
        self.rng = RngRegistry(config.seed)
        self.f = f = config.resolved_f()
        self.n = n = config.n_nodes
        self.attackers = frozenset(classes)

        self.topology = Topology(n, config.regions)
        self.registry = KeyRegistry(config.seed)
        self.threshold = ThresholdScheme(2 * f + 1, n, seed=config.seed)
        self.costs = DEFAULT_COSTS.scaled(config.cpu_cost_scale)
        #: The commit-reveal scheme (set by the Lyra adapter; Pompē orders
        #: clear text).
        self.obf = None
        self.nodes: List = adapter.build_nodes(self, classes, kwargs)

        # Clients: declared by the workload spec (legacy knobs shim into
        # an equivalent spec), resolved through the client registry, each
        # placed in its home node's region.
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

        # Network.  The latency model is kept on the cluster: ``base_us``
        # is the jitter-free ground truth the distance-estimator error
        # metrics are measured against.
        self.latency = latency = make_latency_model(
            self.topology.placement,
            uniform_delay_us=config.uniform_delay_us,
            jitter=config.jitter,
            rng=self.rng,
        )
        # Chaos engine: link faults (the partial-synchrony adversary's
        # delays and holds among them) execute inside the network, crash
        # events are scheduled on the replicas, the plan's GST starts the
        # watchdog's liveness check, and the reliable layer re-implements
        # the §II-A channel abstraction over the lossy wire.
        self.fault_injector: Optional[FaultInjector] = None
        plan = config.fault_plan or FaultPlan()
        if not plan.empty:
            self.fault_injector = FaultInjector(plan, self.rng)
        self.network = Network(
            self.sim,
            latency,
            NetworkConfig(
                delta_us=config.delta_us,
                bandwidth_enabled=config.bandwidth_enabled,
            ),
            faults=self.fault_injector,
        )
        if config.reliable_channels:
            self.network.enable_reliable()
        for node in self.nodes:
            self.network.register(node, replica=True)
        for client in self.clients:
            self.network.register(client, replica=False)
        for ev in plan.crashes:
            node = self.nodes[ev.pid]
            self.sim.schedule_at(ev.crash_at_us, node.crash)
            if ev.recover_at_us is not None:
                self.sim.schedule_at(ev.recover_at_us, node.recover)

        # Observability, one switch: span tracing over the node tracer
        # hook, per-link wire stats, and the registry of counters every
        # layer is scraped for.  Off by default; none of it draws
        # randomness or schedules events, so turning it on leaves the
        # decided prefix bit-identical.
        self.trace: Optional[TraceLog] = None
        self.metrics: Optional[MetricsRegistry] = None
        if config.tracing:
            self.trace = install_lyra_tracing(self)
            self.metrics = MetricsRegistry()
            self.network.enable_link_stats()
            self.metrics.add_source("wire", self._wire_source)
            if self.fault_injector is not None:
                self.metrics.add_source(
                    "faults", self.fault_injector.stats.to_dict
                )
            if self.network.reliable is not None:
                self.metrics.add_source(
                    "channel", self.network.reliable.stats.to_dict
                )
            self.metrics.add_source("cache", self._cache_source)
            self.metrics.add_source("workload", self.workload.metrics_source)
            adapter.instrument(self, self.metrics)

        # Always-on invariant watchdog over the correct replicas: prefix
        # agreement, commit regression, ordered output, post-GST
        # liveness, and the protocol's own checks (Lyra's Lemma 7).
        liveness_from = max(plan.gst_us, config.measurement_start_us())
        self.watchdog = InvariantWatchdog(
            self.sim,
            self.correct_nodes(),
            f=f,
            attackers=len(self.attackers),
            gst_us=liveness_from,
        )
        adapter.watch(self)

        # Replica hooks: a per-replica execution event log (time, tx
        # count) for throughput, replica 0's execution order for the
        # fairness layer (all correct replicas execute the same log), and
        # the MEV bots' view of payloads where their home replica can
        # first read them.
        self.committed_order: List[TxKey] = []
        self.exec_events: Dict[int, List[Tuple[int, int]]] = {}
        mev_by_home = self.workload.mev_bots_by_home()
        for node in self.nodes:
            node.on_executed = self._execution_tap(node.pid)
            bots = mev_by_home.get(node.pid)
            if bots:
                node.on_readable = self._readable_tap(tuple(bots))

    # ------------------------------------------------------------------
    # Construction helpers for the adapters
    # ------------------------------------------------------------------
    def correct_nodes(self) -> List:
        """The replicas that run no attack class, in pid order."""
        return [node for node in self.nodes if node.pid not in self.attackers]

    def clock_skews(self) -> List[int]:
        """One constant clock skew per replica, in pid order."""
        rng = self.rng.get("clock-skew")
        bound = self.config.clock_skew_max_us
        return [int(rng.integers(-bound, bound + 1)) for _ in range(self.n)]

    def replica(self, cls: type, pid: int, node_config, **extra):
        """Construct one replica with the cluster-wide PKI and RNG."""
        return cls(
            pid,
            self.sim,
            n=self.n,
            f=self.f,
            registry=self.registry,
            threshold=self.threshold,
            config=node_config,
            rng=self.rng,
            **extra,
        )

    def _execution_tap(self, pid: int) -> Callable:
        events = self.exec_events[pid] = []
        sim = self.sim
        fair = self.workload_spec.fairness and pid == 0
        order = self.committed_order

        def tap(batch):
            events.append((sim.now, len(batch)))
            if fair:
                order.extend(tx.key() for tx in batch.txs)

        return tap

    @staticmethod
    def _readable_tap(bots: Tuple) -> Callable:
        def tap(batch):
            for bot in bots:
                bot.on_observed_batch(batch)

        return tap

    # ------------------------------------------------------------------
    # Metrics scrape sources (polled at snapshot time, never on hot paths)
    # ------------------------------------------------------------------
    def _wire_source(self) -> Dict[str, float]:
        net = self.network
        return {
            "messages_delivered": net.messages_delivered,
            "bytes_delivered": net.bytes_delivered,
            "unroutable_dropped": net.unroutable_dropped,
            "corrupt_dropped": net.corrupt_dropped,
        }

    def _cache_source(self) -> Dict[str, float]:
        """The bench suite's cache inventory, flattened to ``layer.key``."""
        from repro.bench.suite import _cache_snapshot

        return {
            f"{layer}.{key}": value
            for layer, stats in _cache_snapshot(self).items()
            for key, value in stats.items()
            if isinstance(value, (int, float))
        }

    def fault_stats(self) -> Dict[str, int]:
        """Transport drop counters plus fault-injector and reliable-channel
        stats, when those layers are on."""
        stats: Dict[str, int] = {
            "unroutable_dropped": self.network.unroutable_dropped,
            "corrupt_dropped": self.network.corrupt_dropped,
        }
        if self.fault_injector is not None:
            stats.update(self.fault_injector.stats.to_dict())
        if self.network.reliable is not None:
            stats.update(self.network.reliable.stats.to_dict())
        return stats

    # ------------------------------------------------------------------
    # Distance-estimation accounting (Lyra replicas only)
    # ------------------------------------------------------------------
    def _distance_error_values(self) -> Tuple[int, List[float]]:
        """``(pairs_total, per-pair abs errors)`` of every node's
        estimator vs the latency-model ground truth; pairs with no
        estimate yet are counted in the total but contribute no error."""
        errors: List[float] = []
        pairs_total = 0
        for node in self.nodes:
            for peer in self.nodes:
                if peer.pid == node.pid:
                    continue
                pairs_total += 1
                est = node.estimator.distance(peer.pid)
                if est is None:
                    continue
                truth = true_distance_us(
                    node.clock,
                    peer.clock,
                    self.latency.base_us(node.pid, peer.pid),
                )
                errors.append(abs(float(est) - truth))
        return pairs_total, errors

    def distance_error_stats(self) -> Dict[str, float]:
        """Per-pair absolute estimator error vs ground truth.

        Ground truth for pair (i, j) is the jitter-free one-way base
        latency plus the constant skew difference
        (:func:`repro.core.clocks.true_distance_us`).  Post-run, read-only
        — never perturbs RNG streams or event schedules.
        """
        pairs_total, errors = self._distance_error_values()
        out: Dict[str, float] = {
            "pairs_total": float(pairs_total),
            "pairs_estimated": float(len(errors)),
        }
        if errors:
            ordered = sorted(errors)
            out["abs_error_us_mean"] = float(statistics.fmean(errors))
            out["abs_error_us_p50"] = float(ordered[len(ordered) // 2])
            out["abs_error_us_p99"] = float(
                ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
            )
            out["abs_error_us_max"] = float(ordered[-1])
        return out

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every replica and the watchdog; ``run()`` calls this, and
        callers that drive ``sim.run`` themselves call it instead."""
        for node in self.nodes:
            node.start()
        self.watchdog.start()

    def run(self) -> ExperimentResult:
        """Run the configured duration and consolidate measurements."""
        cfg = self.config
        self.start()
        loop_start = time.perf_counter()
        self.sim.run(until=cfg.duration_us)
        sim_wall_s = time.perf_counter() - loop_start
        self.watchdog.check_now()  # final end-of-run sample
        # End-of-run accounting: whatever is still in flight is counted
        # as incomplete, never silently dropped.
        self.workload.finalize(self.sim.now)

        correct = self.correct_nodes()
        accepted, rejected = instance_counts(correct)
        result = ExperimentResult(
            n_nodes=cfg.n_nodes,
            duration_us=cfg.duration_us,
            # Replica-side executions (clients only see their own).
            executed_total=max(
                (node.stats.txs_executed for node in correct), default=0
            ),
            committed_count=sum(c.stats.completed for c in self.clients),
            events_processed=self.sim.events_processed,
            messages_delivered=self.network.messages_delivered,
            bytes_delivered=self.network.bytes_delivered,
            accepted_instances=accepted,
            rejected_instances=rejected,
            invariant_checks=self.watchdog.report.checks_run,
            invariant_violations=[
                v.render() for v in self.watchdog.report.violations
            ],
            fault_stats=self.fault_stats(),
            sim_wall_s=sim_wall_s,
        )
        summarise_latencies(
            result, [lat for c in self.clients for lat in c.stats.latencies_us]
        )
        result.throughput_tps = windowed_throughput(
            (self.exec_events[node.pid] for node in correct),
            cfg.measurement_start_us(),
            cfg.duration_us,
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
        if self.metrics is not None:
            snap = self.metrics.snapshot()
            link = self.network.link_stats()
            if link:
                snap["links"] = link
            # Metrics and trace are on together (``tracing``).
            snap["phases"] = {
                phase: {
                    "count": summary.count,
                    "mean_us": summary.mean,
                    "max_us": summary.maximum,
                }
                for phase, summary in decompose_phases(self.trace).items()
            }
            result.metrics = snap
        result.safety_violation = check_safety(
            {node.pid: node.output_sequence() for node in correct}
        )
        return result


__all__ = [
    "Cluster",
    "check_cell",
    "ExperimentResult",
    "PROTOCOLS",
    "check_safety",
    "instance_counts",
    "summarise_latencies",
    "windowed_throughput",
]
