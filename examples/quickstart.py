#!/usr/bin/env python3
"""Quickstart: run a 4-node Lyra cluster and commit transactions.

Builds the full stack — geo-distributed simulated WAN (Oregon / Ireland /
Sydney), VSS commit-reveal, leaderless BOC, the Commit protocol — drives
it with closed-loop clients for a few simulated seconds, and prints what
the paper's Theorem 4 promises: a totally ordered, prefix-consistent,
obfuscated-until-commit transaction log.

Run:  python examples/quickstart.py
"""

from repro.harness import ExperimentConfig, build_cluster
from repro.metrics.stats import summarize_latencies


def main() -> None:
    config = ExperimentConfig(
        n_nodes=4,
        batch_size=10,
        clients_per_node=1,
        client_window=5,
        duration_us=5_000_000,  # 5 simulated seconds
        warmup_rounds=2,
        warmup_spacing_us=150_000,
        seed=42,
    )
    print(f"Building a Lyra cluster: n={config.n_nodes}, f={config.resolved_f()}")
    cluster = build_cluster(config)
    print(
        "Topology:",
        {pid: cluster.topology.region_of(pid) for pid in range(config.n_nodes)},
    )

    result = cluster.run()

    print("\n--- results ------------------------------------------")
    print(f"simulated duration : {result.duration_us / 1e6:.1f} s")
    print(f"events processed   : {result.events_processed:,}")
    print(f"messages delivered : {result.messages_delivered:,}")
    print(f"txs committed      : {result.committed_count}")
    print(f"latency            : {summarize_latencies(result.latencies_us).row()}")
    print(f"SMR safety         : {'OK' if result.safety_violation is None else result.safety_violation}")

    # Every replica holds the same committed log (prefix consistency).
    logs = [node.output_sequence() for node in cluster.nodes]
    print(f"committed log len  : {[len(log) for log in logs]}")
    head = logs[0][:3]
    print("log head (seq, cipher-id):")
    for seq, cid in head:
        print(f"  seq={seq:>12}  cipher={cid.hex()[:16]}…")

    # And the executed KV state is identical everywhere.
    sizes = {pid: len(store) for pid, store in cluster.stores.items()}
    print(f"kv store sizes     : {sizes}")


if __name__ == "__main__":
    main()
