#!/usr/bin/env python3
"""Partial synchrony in action: asynchrony, partitions, and GST (§II-A).

Three runs of the same 4-node Lyra cluster:

1. a synchronous baseline;
2. an adversary delaying every message by a random amount (up to 400 ms)
   until GST = 2 s — safety holds throughout, commits flow once the
   network stabilises;
3. a 2–2 network partition healing at t = 3 s — neither side holds a
   2f+1 quorum, so *nothing* commits during the split (and nothing
   unsafe happens), then both sides converge on one log.

Both adversaries are :class:`~repro.net.faults.FaultPlan` rules whose
``gst_us`` also tells the invariant watchdog when liveness is due.

Run:  python examples/partial_synchrony.py
"""

from repro.harness import ExperimentConfig, build_cluster
from repro.net.faults import FaultPlan, LinkFault, partition_faults
from repro.sim.engine import MILLISECONDS, SECONDS


def base_config(seed=71, fault_plan=None):
    return ExperimentConfig(
        n_nodes=4,
        seed=seed,
        batch_size=5,
        clients_per_node=1,
        client_window=3,
        duration_us=10 * SECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        fault_plan=fault_plan,
    )


def report(name, cluster, result):
    logs = [len(n.output_sequence()) for n in cluster.nodes]
    print(
        f"{name:<22} committed={result.committed_count:<4} "
        f"latency={result.avg_latency_ms:7.1f}ms  logs={logs}  "
        f"safety={'OK' if result.safety_violation is None else 'VIOLATED'}"
    )


def main() -> None:
    print("Three partial-synchrony regimes, same protocol, same seed:\n")

    cluster = build_cluster(base_config())
    report("synchronous", cluster, cluster.run())

    gst = 2 * SECONDS
    random_delays = LinkFault(
        reorder_rate=1.0, reorder_delay_us=400 * MILLISECONDS, end_us=gst
    )
    cluster = build_cluster(base_config(fault_plan=FaultPlan(links=(random_delays,), gst_us=gst)))
    report("adversary until GST=2s", cluster, cluster.run())

    heal = 3 * SECONDS
    split = partition_faults([{0, 1}], 4, heal_at_us=heal)
    cluster = build_cluster(base_config(fault_plan=FaultPlan(links=split, gst_us=heal)))
    # Peek mid-partition: no quorum, no commits.
    cluster_nodes = cluster.nodes
    for node in cluster_nodes:
        node.start()
    cluster.sim.run(until=int(2.5 * SECONDS))
    during = [len(n.output_sequence()) for n in cluster_nodes]
    print(f"{'2-2 partition @2.5s':<22} committed logs during split: {during}")
    cluster.sim.run(until=base_config().duration_us)
    result = cluster.run()  # consolidates measurements (sim already drained)
    report("partition heals @3s", cluster, result)

    print(
        "\nTakeaway: Δ only gates the fast path.  Before GST the adversary"
        "\ncontrols the schedule and Lyra simply waits (safety is"
        "\nunconditional); after GST the 3-delay pipeline resumes."
    )


if __name__ == "__main__":
    main()
