"""Partitioned simulation core: shard workers in deterministic lockstep.

One simulated cluster is split across worker *processes* by node group;
each worker advances its local partition through conservative-lookahead
epochs and the workers exchange cross-shard message frames at epoch
barriers.  Decided prefixes stay **bit-identical** to the single-process
run — the ``goodcase_n100`` digest oracle pins this — because three
properties hold by construction:

Epoch bound
    The epoch length is ``B = min cross-shard floor_us − 1``, where
    ``floor_us(src, dst)`` is the latency model's hard lower bound for the
    link (for the geo model that is the ±3σ truncation / 20%-of-base
    clamp, for uniform links the delay itself).  Epoch ``k`` executes the
    half-open window ``((k−1)·B, k·B]``; a message sent at any ``t ≥
    (k−1)·B`` toward another shard arrives at ``t + floor > (k−1)·B + B =
    k·B``, i.e. strictly after the barrier at which its frame is
    exchanged.  No worker can ever receive a frame "late", so no rollback
    is ever needed — this is classic conservative PDES lookahead.

Sender-side completeness
    A delivery's arrival time is a function of sender-side state only:
    the sender's egress bandwidth queue, the per-*source* jitter stream,
    and the per-*link* fault stream.  A worker therefore computes the
    exact arrival time of a remote-bound message locally and ships the
    ``(src, dst, arrival_us, message)`` frame; the receiving worker's
    injection consumes no randomness.

Canonical same-instant order
    All network deliveries are scheduled at ``priority = src + 1``
    (timers and CPU completions stay at 0), and the engine orders an
    instant by ``(priority, insertion)``.  Same-instant deliveries from
    different senders therefore execute in sender-pid order *regardless*
    of which side of a barrier scheduled them, and same-sender deliveries
    keep the sender's send order because frame order is preserved
    end-to-end (capture order → coordinator routing → injection order).

Every worker builds the **full** cluster — identical construction-time
RNG draws, keys, topology and client placement on every process — then
starts only its local replicas; remote replicas stay inert and remote
clients are neutered (their sends drop silently and their timer chains
are cancelled, so they contribute zero processed events).  Per-entity
RNG streams (per-node, per-client, per-source jitter, per-link faults)
make the partition exact: a worker draws only the streams its local
senders own.

Not shardable (rejected loudly): ``gst_us > 0`` (the partial-synchrony
adversary draws one global delay stream), ``tracing``/``metrics``
(process-local registries would silently report a partition), fairness
workloads and MEV bots (both need one globally interleaved
submission/observation order).
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ShardPlan",
    "ShardedRun",
    "digest_outputs",
    "plan_shards",
    "run_sharded",
]


# ----------------------------------------------------------------------
# Digest oracle
# ----------------------------------------------------------------------
def digest_outputs(outputs: Dict[int, Sequence[Tuple[int, bytes]]]) -> str:
    """sha256 over every node's decided prefix, in pid order.

    Identical format to :func:`repro.bench.suite.prefix_digest` (which
    delegates here), so sharded runs and single-process runs are directly
    comparable.
    """
    h = hashlib.sha256()
    for pid in sorted(outputs):
        for seq, cipher_id in outputs[pid]:
            h.update(seq.to_bytes(8, "big", signed=True))
            h.update(cipher_id)
        h.update(b"|")
    return h.hexdigest()


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
@dataclass
class ShardPlan:
    """How one cluster is partitioned, and the epoch that makes it safe."""

    n_shards: int
    #: Epoch length in µs: ``min cross-shard floor_us − 1``.
    epoch_us: int
    #: Node pids per shard (clients follow their home replica at build).
    node_pids: List[List[int]] = field(default_factory=list)

    def shard_of(self, pid: int) -> int:
        for idx, pids in enumerate(self.node_pids):
            if pid in pids:
                return idx
        raise KeyError(pid)


def _assign_nodes(n: int, n_regions: int, n_shards: int) -> List[int]:
    """Shard index per node pid.

    With ``n_shards <= n_regions`` the region list is split into
    contiguous groups balanced by node count, so shards align with
    regions and the epoch bound is an inter-region floor (tens of ms).
    With more shards than regions, nodes go round-robin — correct but
    with an intra-region epoch bound (sub-ms), which is what the
    shard-count-invariance tests exercise.
    """
    if n_shards > n_regions:
        return [pid % n_shards for pid in range(n)]
    counts = [len(range(i, n, n_regions)) for i in range(n_regions)]
    groups: List[List[int]] = []
    start, remaining = 0, n
    for s in range(n_shards):
        left = n_shards - s
        take: List[int] = []
        acc = 0
        while start < n_regions:
            must_leave = left - 1
            if n_regions - start <= must_leave and take:
                break
            take.append(start)
            acc += counts[start]
            start += 1
            if acc * left >= remaining and n_regions - start >= must_leave:
                break
        groups.append(take)
        remaining -= acc
    shard_of_region = {r: s for s, grp in enumerate(groups) for r in grp}
    return [shard_of_region[pid % n_regions] for pid in range(n)]


def plan_shards(config, n_shards: int) -> ShardPlan:
    """Partition ``config``'s cluster into ``n_shards`` and derive the
    epoch bound from the latency model's cross-shard floors."""
    # Late imports: repro.sim is the bottom layer; the planner reaches up
    # into net only when actually invoked.
    from repro.net.latency import make_latency_model
    from repro.net.topology import Topology
    from repro.sim.rng import RngRegistry

    n = config.n_nodes
    if not 1 <= n_shards <= n:
        raise ValueError(f"n_shards must be in [1, {n}], got {n_shards}")
    regions = list(config.regions)
    shard_of = _assign_nodes(n, len(regions), n_shards)
    node_pids = [
        [pid for pid in range(n) if shard_of[pid] == s] for s in range(n_shards)
    ]
    node_pids = [pids for pids in node_pids if pids]
    if len(node_pids) == 1:
        return ShardPlan(1, 0, node_pids)

    topology = Topology(n, regions)
    latency = make_latency_model(
        topology.placement,
        uniform_delay_us=config.uniform_delay_us,
        jitter=config.jitter,
        rng=RngRegistry(config.seed),
    )
    floor = None
    for src in range(n):
        for dst in range(n):
            if shard_of[src] == shard_of[dst]:
                continue
            f = latency.floor_us(src, dst)
            if floor is None or f < floor:
                floor = f
    # Clients sit in their home replica's region, so the minimum over
    # node pairs also bounds every cross-shard link that involves a
    # client.
    epoch_us = (floor or 0) - 1
    if epoch_us < 1:
        raise ValueError(
            f"cannot shard: minimum cross-shard latency floor is {floor}us; "
            "epoch bound would be < 1us (links faster than 2us cannot give "
            "the workers any lookahead)"
        )
    return ShardPlan(len(node_pids), epoch_us, node_pids)


def _check_shardable(config) -> None:
    if config.gst_us > 0:
        raise ValueError(
            "cannot shard gst_us > 0: the partial-synchrony adversary draws "
            "one global delay stream that cannot be partitioned by sender"
        )
    if config.tracing or config.metrics:
        raise ValueError(
            "cannot shard with tracing/metrics: both registries are "
            "process-local and would silently report one partition"
        )
    spec = config.resolved_workload()
    if spec.fairness:
        raise ValueError(
            "cannot shard a fairness workload: the submitted-order log needs "
            "one globally interleaved timeline"
        )
    if any(group.client == "mev" for group in spec.groups):
        raise ValueError(
            "cannot shard MEV workloads: bots observe execution at their "
            "home replica and need the global committed order"
        )


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _shard_worker(conn, config_dict: Dict[str, Any], node_pids: List[int]) -> None:
    """Pipe-driven worker: build the full cluster, simulate the local
    partition, trade frames at every barrier.  Must stay at module top
    level so multiprocessing can target it under any start method."""
    try:
        from repro.harness.cluster import Cluster
        from repro.harness.config import ExperimentConfig

        config = ExperimentConfig.from_dict(config_dict)
        cluster = Cluster(config, local_pids=node_pids)
        local_nodes = set(node_pids)
        local = set(node_pids) | {
            c.pid for c in cluster.clients if c.home in local_nodes
        }
        captured: List[Tuple[int, int, int, Any]] = []
        cluster.network.enable_sharding(
            local, lambda src, dst, arr, msg: captured.append((src, dst, arr, msg))
        )
        for node in cluster.local_nodes():
            node.start()
        cluster.watchdog.start()
        conn.send(("ready", sorted(local)))
        # Per-worker event-loop CPU seconds (process CPU time, so a
        # worker descheduled on an oversubscribed host does not bill the
        # other workers' slices).  max() across the fleet is the run's
        # critical path: the wall time a one-core-per-shard host needs.
        loop_cpu = 0.0
        while True:
            cmd = conn.recv()
            kind = cmd[0]
            if kind == "run":
                _, target, frames = cmd
                cpu0 = time.process_time()
                inject = cluster.network.inject_remote
                for src, dst, arr, msg in frames:
                    inject(src, dst, arr, msg)
                cluster.sim.run(until=target)
                loop_cpu += time.process_time() - cpu0
                out = captured[:]
                captured.clear()
                conn.send((out, cluster.network.pending_coalesced()))
            elif kind == "flush":
                _, frames = cmd
                cpu0 = time.process_time()
                inject = cluster.network.inject_remote
                for src, dst, arr, msg in frames:
                    inject(src, dst, arr, msg)
                cluster.network.drain_pending()
                loop_cpu += time.process_time() - cpu0
                out = captured[:]
                captured.clear()
                conn.send((out, cluster.network.pending_coalesced()))
            elif kind == "finish":
                break
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown shard command {kind!r}")
        cluster.watchdog.check_now()
        cluster.workload.finalize(cluster.sim.now)
        blob = _consolidate(cluster, local_nodes)
        blob["loop_cpu_s"] = loop_cpu
        conn.send(("done", blob))
    except Exception:  # pragma: no cover - surfaced by the coordinator
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


def _consolidate(cluster, local_nodes: set) -> Dict[str, Any]:
    """Everything the coordinator needs from one worker, as plain data."""
    from repro.harness.cluster import instance_counts

    nodes = cluster.local_nodes()
    clients = [c for c in cluster.clients if c.home in local_nodes]
    accepted, rejected = instance_counts(nodes)
    return {
        "outputs": {node.pid: node.output_sequence() for node in nodes},
        "exec_events": {
            pid: events
            for pid, events in cluster.exec_events.items()
            if pid in local_nodes
        },
        "events_processed": cluster.sim.events_processed,
        "messages_delivered": cluster.network.messages_delivered,
        "bytes_delivered": cluster.network.bytes_delivered,
        "executed_total": max((n.stats.txs_executed for n in nodes), default=0),
        "committed_count": sum(c.stats.completed for c in clients),
        "latencies": sorted(
            (c.pid, list(c.stats.latencies_us)) for c in clients
        ),
        "rejected": rejected,
        "accepted": accepted,
        "invariant_checks": cluster.watchdog.report.checks_run,
        "watchdog_ticks": cluster.watchdog.ticks,
        "invariant_violations": [
            v.render() for v in cluster.watchdog.report.violations
        ],
        "fault_stats": cluster.fault_stats(),
        "wire_stats": (
            cluster.network.wire_stats.to_dict()
            if cluster.network.wire_stats.frames_sent
            else {}
        ),
        "dissemination": (
            cluster.dissemination.stats_dict()
            if cluster.dissemination is not None
            else None
        ),
    }


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
@dataclass
class ShardedRun:
    """A sharded run's merged result plus its barrier bookkeeping."""

    result: Any  # ExperimentResult (typed loosely: sim must not import harness)
    outputs: Dict[int, List[Tuple[int, bytes]]]
    plan: ShardPlan
    barriers: int = 0
    frames_exchanged: int = 0
    #: Per-worker event-loop CPU seconds; ``max()`` is the critical path
    #: (the wall time a one-core-per-shard host would need).  Empty for
    #: single-process runs.
    worker_loop_cpu_s: List[float] = field(default_factory=list)

    def digest(self) -> str:
        return digest_outputs(self.outputs)


class _Workers:
    """The worker fleet: lockstep commands, frame routing, teardown."""

    def __init__(self, ctx, config, plan: ShardPlan) -> None:
        config_dict = config.to_dict()
        self.procs = []
        self.conns = []
        for pids in plan.node_pids:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker, args=(child, config_dict, pids)
            )
            proc.daemon = True
            proc.start()
            child.close()
            self.procs.append(proc)
            self.conns.append(parent)
        self.owner: Dict[int, int] = {}
        for idx, conn in enumerate(self.conns):
            kind, payload = self._recv(conn)
            for pid in payload:
                self.owner[pid] = idx
        self.inboxes: List[list] = [[] for _ in self.conns]
        self.frames_exchanged = 0

    def _recv(self, conn):
        reply = conn.recv()
        if isinstance(reply, tuple) and reply and reply[0] == "error":
            raise RuntimeError(f"shard worker failed:\n{reply[1]}")
        return reply

    def _route(self, frames: Sequence[tuple]) -> None:
        owner = self.owner
        inboxes = self.inboxes
        for frame in frames:
            inboxes[owner[frame[1]]].append(frame)
        self.frames_exchanged += len(frames)

    def _exchange(self, command: tuple) -> bool:
        """Send one command (plus each worker's inbox) to every worker,
        collect and route the captured frames.  Returns True if any
        worker still has coalesced messages parked."""
        inboxes = self.inboxes
        self.inboxes = [[] for _ in self.conns]
        for conn, inbox in zip(self.conns, inboxes):
            conn.send(command + (inbox,))
        pending = False
        for conn in self.conns:
            frames, worker_pending = self._recv(conn)
            self._route(frames)
            pending = pending or bool(worker_pending)
        return pending

    def run_to(self, target_us: int) -> bool:
        return self._exchange(("run", target_us))

    def flush(self) -> bool:
        return self._exchange(("flush",))

    def finish(self) -> List[Dict[str, Any]]:
        for conn in self.conns:
            conn.send(("finish",))
        blobs = []
        for conn in self.conns:
            kind, blob = self._recv(conn)
            blobs.append(blob)
        return blobs

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self.procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)


def run_sharded(config, n_shards: int) -> ShardedRun:
    """Run one Lyra cluster partitioned over ``n_shards`` workers.

    Bit-identical to ``build_cluster(config).run()`` in every decided
    prefix (the digest oracle); measurement aggregates (events/sec,
    latency percentiles, throughput) are merged across workers.
    ``n_shards=1`` degenerates to the single-process path.
    """
    from repro.harness.sweep import _pool_context

    _check_shardable(config)
    plan = plan_shards(config, n_shards)
    if plan.n_shards == 1:
        return _run_single(config, plan)

    started = time.perf_counter()
    workers = _Workers(_pool_context(), config, plan)
    barriers = 0
    pending = False
    try:
        duration = config.duration_us
        epoch = plan.epoch_us
        now = 0
        while now < duration:
            now = min(now + epoch, duration)
            pending = workers.run_to(now)
            barriers += 1
        if pending and config.coalesce and config.coalesce_window_us > 0:
            # Mirror Cluster._drain_coalesced across the fleet: flush
            # every open window, give the protocol Δ-sized grace steps —
            # each cut into epoch-bounded sub-barriers so lookahead still
            # holds — and stop when no worker has parked messages (or at
            # the same 10Δ deadline).  Frames still in flight at the stop
            # are dropped, exactly as a single process drops events
            # scheduled past its final horizon.
            delta = config.delta_us
            deadline = duration + 10 * delta
            while True:
                workers.flush()
                if now >= deadline:
                    break
                step_target = min(now + delta, deadline)
                while now < step_target:
                    now = min(now + epoch, step_target)
                    pending = workers.run_to(now)
                    barriers += 1
                if not pending:
                    break
        blobs = workers.finish()
    finally:
        workers.close()
    wall_s = time.perf_counter() - started
    result, outputs = _merge(config, blobs, wall_s)
    return ShardedRun(
        result=result,
        outputs=outputs,
        plan=plan,
        barriers=barriers,
        frames_exchanged=workers.frames_exchanged,
        worker_loop_cpu_s=[
            round(blob.get("loop_cpu_s", 0.0), 3) for blob in blobs
        ],
    )


def _run_single(config, plan: ShardPlan) -> ShardedRun:
    from repro.harness.cluster import Cluster

    cluster = Cluster(config)
    result = cluster.run()
    outputs = {node.pid: node.output_sequence() for node in cluster.nodes}
    return ShardedRun(result=result, outputs=outputs, plan=plan)


def _merge(config, blobs: List[Dict[str, Any]], wall_s: float):
    """Fold worker blobs into one ExperimentResult + the merged outputs."""
    from repro.harness.cluster import (
        ExperimentResult,
        check_safety,
        summarise_latencies,
        windowed_throughput,
    )

    outputs: Dict[int, list] = {}
    exec_events: Dict[int, list] = {}
    latencies_by_pid: List[Tuple[int, List[int]]] = []
    fault_stats: Dict[str, int] = {}
    wire_stats: Dict[str, float] = {}
    dissemination: Optional[Dict[str, float]] = None
    result = ExperimentResult(
        n_nodes=config.n_nodes, duration_us=config.duration_us, sim_wall_s=wall_s
    )
    for blob in blobs:
        outputs.update({int(pid): out for pid, out in blob["outputs"].items()})
        exec_events.update(blob["exec_events"])
        latencies_by_pid.extend(blob["latencies"])
        result.events_processed += blob["events_processed"]
        result.messages_delivered += blob["messages_delivered"]
        result.bytes_delivered += blob["bytes_delivered"]
        result.committed_count += blob["committed_count"]
        result.executed_total = max(result.executed_total, blob["executed_total"])
        result.rejected_instances += blob["rejected"]
        result.accepted_instances = max(result.accepted_instances, blob["accepted"])
        result.invariant_checks += blob["invariant_checks"]
        result.invariant_violations.extend(blob["invariant_violations"])
        for key, value in blob["fault_stats"].items():
            fault_stats[key] = fault_stats.get(key, 0) + value
        for key, value in blob["wire_stats"].items():
            if key == "coalescing_ratio":
                continue
            wire_stats[key] = wire_stats.get(key, 0) + value
        if blob["dissemination"] is not None:
            if dissemination is None:
                dissemination = dict(blob["dissemination"])
            else:
                for key, value in blob["dissemination"].items():
                    if key in ("strategy", "fanout"):
                        continue
                    dissemination[key] = dissemination.get(key, 0) + value
    # Every worker runs its own watchdog tick chain over the same horizon
    # — the one per-cluster timer that cannot be partitioned by owner.
    # The chains are identical by construction (same interval, same
    # lockstep barrier schedule), so the summed event count carries
    # ``n_workers − 1`` duplicate chains; drop them so the merged
    # ``events_processed`` equals the single-process run's exactly.
    # (Remote clients contribute zero events: ``neuter()`` cancels their
    # timer chains at build time.)
    ticks = [blob.get("watchdog_ticks", 0) for blob in blobs]
    if ticks:
        result.events_processed -= sum(ticks) - max(ticks)
    result.fault_stats = fault_stats
    if wire_stats:
        frames = wire_stats.get("frames_sent", 0)
        wire_stats["coalescing_ratio"] = round(
            wire_stats.get("messages_sent", 0) / frames if frames else 1.0, 4
        )
        result.wire_stats = wire_stats
    if dissemination is not None:
        result.wire_stats["dissemination"] = dissemination

    summarise_latencies(
        result,
        [lat for _pid, values in sorted(latencies_by_pid) for lat in values],
    )
    # Per-node window sums, median across the merged fleet.
    result.throughput_tps = windowed_throughput(
        exec_events.values(), config.measurement_start_us(), config.duration_us
    )
    # The cross-shard safety check is the whole point: prefix agreement
    # is verified over the union of every worker's replicas.
    result.safety_violation = check_safety(outputs)
    return result, outputs
