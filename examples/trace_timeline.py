#!/usr/bin/env python3
"""Observability: trace one transaction batch through the whole pipeline.

Instruments a Lyra cluster with the structured trace log, runs it, then
prints the life of the first committed instance — proposed, decided
(3-message-delay BOC), committed (prefix stability), executed (reveal) —
at every replica, plus the phase decomposition of the DECOMP sweep cell
(``repro experiment decomp``).  Dumps the full trace to
``lyra_trace.jsonl`` for offline analysis.

Run:  python examples/trace_timeline.py
"""

from repro.harness import ExperimentConfig, build_cluster
from repro.harness.experiments import latency_breakdown, markdown_table
from repro.metrics.tracelog import PHASES, install_lyra_tracing


def main() -> None:
    cfg = ExperimentConfig(
        n_nodes=4,
        batch_size=10,
        clients_per_node=1,
        client_window=5,
        duration_us=4_000_000,
        warmup_rounds=2,
        warmup_spacing_us=150_000,
        seed=8,
    )
    cluster = build_cluster(cfg)
    log = install_lyra_tracing(cluster)
    cluster.run()

    first = cluster.nodes[0].commit.output_log[0].instance
    print(f"Timeline of instance {first} (proposer pid {first.proposer}):\n")
    print(f"{'phase':<12}" + "".join(f"node {pid:<7}" for pid in range(4)))
    base = None
    for phase in PHASES:
        cells = []
        for pid in range(4):
            t = log.first_times(first, node=pid).get(phase)
            if t is None:
                cells.append(f"{'-':<12}")
                continue
            if base is None:
                base = t
            cells.append(f"+{(t - base) / 1000.0:<10.1f}")
        print(f"{phase:<12}" + "".join(cells))
    print("\n(times in ms relative to the proposal; '-' = event at another node)")

    print("\nPhase decomposition of the DECOMP cell (n=4, seed 29, proposer-side):")
    print(markdown_table(latency_breakdown(n=4)))

    count = log.dump_jsonl("lyra_trace.jsonl")
    print(f"\nFull trace: {count} events written to lyra_trace.jsonl")


if __name__ == "__main__":
    main()
