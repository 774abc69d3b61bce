"""API integrity: every package imports cleanly and every name exported in
``__all__`` actually exists — the contract a downstream user relies on."""

import importlib

import pytest

MODULES = [
    "repro",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.process",
    "repro.sim.rng",
    "repro.sim.timers",
    "repro.net",
    "repro.net.adversary",
    "repro.net.bandwidth",
    "repro.net.latency",
    "repro.net.message",
    "repro.net.network",
    "repro.net.topology",
    "repro.crypto",
    "repro.crypto.cost",
    "repro.crypto.feldman",
    "repro.crypto.field",
    "repro.crypto.hashing",
    "repro.crypto.memo",
    "repro.crypto.merkle",
    "repro.crypto.polynomial",
    "repro.crypto.shamir",
    "repro.crypto.signatures",
    "repro.crypto.threshold",
    "repro.crypto.vss_encryption",
    "repro.core",
    "repro.core.batching",
    "repro.core.bv_broadcast",
    "repro.core.clocks",
    "repro.core.commit",
    "repro.core.dbft",
    "repro.core.distance",
    "repro.core.gossip_distance",
    "repro.core.node",
    "repro.core.obfuscation",
    "repro.core.services",
    "repro.core.smr",
    "repro.core.types",
    "repro.core.vvb",
    "repro.baselines",
    "repro.baselines.fino",
    "repro.baselines.hotstuff",
    "repro.baselines.pompe",
    "repro.attacks",
    "repro.attacks.byzantine",
    "repro.attacks.frontrun",
    "repro.attacks.pompe_attacks",
    "repro.workload",
    "repro.workload.amm",
    "repro.workload.arrivals",
    "repro.workload.clients",
    "repro.workload.generator",
    "repro.workload.mev",
    "repro.workload.spec",
    "repro.metrics",
    "repro.metrics.ascii_chart",
    "repro.metrics.capacity",
    "repro.metrics.fairness",
    "repro.metrics.stats",
    "repro.metrics.tracelog",
    "repro.harness",
    "repro.harness.byzantine_runner",
    "repro.harness.cluster",
    "repro.harness.config",
    "repro.harness.experiments",
    "repro.harness.factory",
    "repro.harness.sweep",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_all_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_cli_module_importable():
    import repro.__main__  # noqa: F401
