#!/usr/bin/env python3
"""The Fig. 1 attack, end to end: a sandwich lands on Pompē, fails on Lyra.

Scenario (paper Fig. 1): Alice sends one AMM swap from Tokyo.  Mallory
runs the Singapore validator with an MEV bot beside it, on a network path
that violates the triangle inequality towards the São Paulo validators:

    ping(Tokyo, Singapore) + ping(Singapore, São Paulo)
        = 35 ms + 105 ms = 140 ms  <  150 ms = ping(Tokyo, São Paulo)

Against Pompē, the bot reads Alice's swap in the clear during the ordering
phase and wraps it in a front-run and a back-run; Mallory's replica orders
the front-run and cherry-picks the lowest 2f+1 timestamp signatures, so it
is sequenced before Alice's swap although it was sent later.  With the five
far validators moved to Tokyo, the same bot loses the race.

Against Lyra, Alice's payload is VSS-encrypted: Mallory reads it only once
it executes, and the backdated instance her replica then proposes is
rejected by every correct validator (Equation 1 / acceptance window).

Every run is the Fig. 1 cell of ``python -m repro experiment fig1``.

Run:  python examples/frontrunning_attack.py
"""

from repro.harness.experiments import fig1_config
from repro.harness.factory import build_cluster
from repro.net.latency import region_latency_ms, triangle_violations


def run(protocol: str, **cell) -> dict:
    cluster = build_cluster(fig1_config(**cell), protocol=protocol)
    result = cluster.run()
    assert result.invariant_violations == [] and result.safety_violation is None
    sandwich = result.fairness["sandwich"]
    print(f"sandwiches landed           : {sandwich['successes']} of {sandwich['attempts']}")
    print(f"instances rejected (sum)    : {result.rejected_instances}")
    return sandwich


def main() -> None:
    regions = fig1_config().regions
    print("Topology:", dict(enumerate(regions)))
    print(
        "Triangle check: d(tokyo,singapore) + d(singapore,saopaulo) ="
        f" {region_latency_ms('tokyo', 'singapore') + region_latency_ms('singapore', 'saopaulo'):.0f} ms"
        f"  <  d(tokyo,saopaulo) = {region_latency_ms('tokyo', 'saopaulo'):.0f} ms"
    )
    for src, via, dst, adv in triangle_violations(regions):
        print(f"  violation: {src} → {via} → {dst} wins by {adv:.0f} ms")

    print("\n=== Attack vs Pompē (clear-text ordering) ===")
    pompe = run("pompe")
    print("\n=== Attack vs Pompē, far validators moved to Tokyo ===")
    no_triangle = run("pompe", far_region="tokyo")
    print("\n=== Attack vs Lyra (commit-reveal + order fairness) ===")
    lyra = run("lyra", attack_nodes={1: "backdate"})

    assert pompe["successes"] >= 1
    assert no_triangle["successes"] == 0 and lyra["successes"] == 0
    print("\nConclusion: the same attacker beats Pompē and bounces off Lyra.")


if __name__ == "__main__":
    main()
