"""One measured run of one workload, in this process.

``run.py`` starts this file as a fresh subprocess per repetition so every
sample pays the same import, build and allocator state, and ``ru_maxrss``
is the run's own.  It prints one JSON object on its last stdout line.

Modes: ``run`` (untraced: the only source of end-to-end metrics),
``trace`` (``cProfile`` around ``cluster.run()``, bucketed into layers) and
``setup`` (import + build only, for extra ``setup_s`` samples).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]


def _ops(cluster, cutoff_us: int):
    """(attempted, failed, oldest_unanswered_us) of one run.

    A transaction still unanswered at the horizon has failed if it was
    submitted by ``cutoff_us`` (it is older than any latency the workload
    legitimately produces, so it is presumed lost); a younger one is cut
    off by the horizon and counts on neither side.  Attempted = answered +
    failed.  ``oldest_unanswered_us`` is the submit time of the oldest
    unanswered transaction (``None`` if all were answered) — the number a
    workload's ``drain_ms`` is sized against.
    """
    answered = failed = 0
    oldest = None
    for client in cluster.clients:
        answered += client.stats.completed
        # ``_inflight`` is the client's own record of unanswered keys;
        # reply order is not submission order, so counts cannot stand in.
        for submitted_at in client._inflight.values():
            oldest = submitted_at if oldest is None else min(oldest, submitted_at)
            failed += submitted_at <= cutoff_us
    return answered + failed, failed, oldest


def _generator_late_us(cluster, config) -> int:
    """Worst lateness of an open-loop submission against its due time.

    The due times are regenerated from a fresh copy of each arrival
    client's named rng stream.  Generators fire on the virtual clock, so
    this reads 0 unless a later change makes submission wait for something;
    closed-loop clients have no schedule and contribute nothing.
    """
    from repro.sim.rng import RngRegistry
    from repro.workload.arrivals import arrivals_from_dict

    worst = 0
    for group in cluster.workload_spec.groups:
        if group.client != "arrival" or group.arrival is None:
            continue
        for index, client in enumerate(cluster.workload.by_group[group.name]):
            stream = RngRegistry(config.seed).get(
                "workload", f"{group.name}/{index}", "arrivals"
            )
            due = arrivals_from_dict(group.arrival).times(
                stream, config.client_start_us(), config.duration_us
            )
            for (submitted_at, _key), due_at in zip(client.submit_log, due):
                worst = max(worst, submitted_at - due_at)
    return worst


def _cache_rates(cluster):
    from repro.bench.suite import _cache_snapshot

    out = {}
    misses = 0
    caches = _cache_snapshot(cluster)
    for name in (
        "digest",
        "feldman_verify",
        "threshold_verify",
        "signature_verify",
        "vss_decrypt",
    ):
        stats = caches.get(name) or {}
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        # Full precision: the accessor's own ``hit_rate`` is rounded.
        out[f"crypto.{name}_hit_rate"] = stats.get("hits", 0) / lookups if lookups else 0.0
        if name.endswith("_verify"):
            misses += stats.get("misses", 0)
    out["crypto.verify_misses"] = misses
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "trace", "setup"), default="run")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE))
    from repro.bench.suite import prefix_digest
    from repro.harness.factory import build_cluster

    import layers
    from workloads import SMOKE_DRAIN_MS, WORKLOADS

    workload = WORKLOADS[args.workload]
    config = workload.build(args.seed, args.smoke)
    cluster = build_cluster(config, protocol=workload.protocol)
    out = {"setup_s": time.time() - args.spawned_at}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    # Draws no RNG and schedules nothing: digests are unchanged.  Needed to
    # compare open-loop submissions with their due times.
    for client in cluster.clients:
        client.record_submissions = True

    profile = None
    if args.mode == "trace":
        import cProfile

        profile = cProfile.Profile()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if profile is not None:
        profile.enable()
    result = cluster.run()
    if profile is not None:
        profile.disable()
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    latencies = sorted(
        lat for client in cluster.clients for lat in client.stats.latencies_us
    )
    drain_ms = SMOKE_DRAIN_MS if args.smoke else workload.drain_ms
    attempted, failed, oldest = _ops(cluster, config.duration_us - drain_ms * 1000)
    committed = result.committed_count
    fault = result.fault_stats
    frames = fault.get("frames_sent", result.messages_delivered)
    accepted, rejected = result.accepted_instances, result.rejected_instances
    sandwich = (result.fairness or {}).get("sandwich") or {}
    out.update(
        {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digest": prefix_digest(cluster),
            "safety_violation": result.safety_violation,
            "invariant_violations": list(result.invariant_violations),
            "sandwich_successes": sandwich.get("successes"),
            "ops_attempted": attempted,
            "ops_failed": failed,
            "oldest_unanswered_ms": (
                None if oldest is None else (config.duration_us - oldest) / 1000.0
            ),
            "committed": committed,
            # The whole submit->reply sample: run.py pools repetitions.
            "latencies_us": latencies,
            "sim_s": config.duration_us / 1e6,
            "throughput_tps": result.throughput_tps,
            "counters": {
                "sim.events": result.events_processed,
                "sim.events_per_committed_tx": result.events_processed / max(1, committed),
                "net.messages_delivered": result.messages_delivered,
                "net.bytes_delivered": result.bytes_delivered,
                "net.msgs_per_committed_tx": result.messages_delivered / max(1, committed),
                "net.bytes_per_committed_tx": result.bytes_delivered / max(1, committed),
                "net.frames_sent": frames,
                "net.retransmits": fault.get("retransmits", 0),
                "net.dropped": fault.get("dropped", 0),
                "net.goodput_ratio": (
                    fault.get("delivered", frames) / frames if frames else 1.0
                ),
                **_cache_rates(cluster),
                "core.instances_accepted": accepted,
                "core.instances_rejected": rejected,
                "core.accept_ratio": (
                    accepted / (accepted + rejected) if accepted + rejected else 0.0
                ),
                "workload.submitted": sum(c.stats.submitted for c in cluster.clients),
                "workload.completed": sum(c.stats.completed for c in cluster.clients),
                "workload.generator_late_us": _generator_late_us(cluster, config),
                "metrics.invariant_checks": result.invariant_checks,
            },
            # PompeCluster.run() leaves sim_wall_s at 0 (known gap).
            "consolidate_s": wall_s - result.sim_wall_s if result.sim_wall_s else 0.0,
        }
    )
    if profile is not None:
        out["trace"] = layers.attribute(profile)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
