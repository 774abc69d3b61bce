"""WorkloadSpec engine tests: placement, serialisation, the legacy shim,
registry resolution, end-of-run accounting, per-seed determinism, and the
Pompē-vs-Lyra MEV asymmetry."""

import warnings

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.factory import build_cluster
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network, NetworkConfig
from repro.net.topology import Topology
from repro.sim.engine import MILLISECONDS, Simulator
from repro.sim.rng import RngRegistry
from repro.workload.clients import (
    ArrivalClient,
    ClosedLoopClient,
    available_clients,
    client_class,
)
from repro.workload.mev import MevBotClient
from repro.workload.spec import ClientGroup, WorkloadSpec, build_workload
from tests.test_workload import EchoReplica


class TestClientGroup:
    def test_homes_per_node(self):
        g = ClientGroup(count_per_node=2)
        assert g.homes(3) == [0, 0, 1, 1, 2, 2]

    def test_homes_one_per_node(self):
        g = ClientGroup(count=5, one_per_node=True)
        assert g.homes(3) == [0, 1, 2]

    def test_homes_fixed(self):
        g = ClientGroup(count=3, home=1)
        assert g.homes(4) == [1, 1, 1]

    def test_homes_round_robin(self):
        g = ClientGroup(count=5)
        assert g.homes(3) == [0, 1, 2, 0, 1]

    def test_dict_roundtrip_compact(self):
        g = ClientGroup(name="traffic", client="arrival", count=2, users=10)
        data = g.to_dict()
        # Only non-default fields are emitted.
        assert "window" not in data
        assert ClientGroup.from_dict(data) == g

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown ClientGroup fields"):
            ClientGroup.from_dict({"rate": 5})

    def test_offered_tps(self):
        arrival = {"kind": "poisson", "rate_tps": 50.0}
        g = ClientGroup(client="arrival", count_per_node=1, arrival=arrival)
        assert g.offered_tps(4) == pytest.approx(200.0)
        trace = {"kind": "trace", "offsets_us": [0, 10_000, 20_000]}
        g = ClientGroup(client="arrival", count=2, arrival=trace)
        assert g.offered_tps(4) == pytest.approx(200.0)
        assert ClientGroup(client="closed", count=3).offered_tps(4) == 0.0

    @pytest.mark.parametrize(
        "field, value", [("count", -1), ("count_per_node", -2), ("window", 0)]
    )
    def test_impossible_group_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"'g': {field} must be >= "):
            ClientGroup(name="g", **{field: value})


class TestWorkloadSpec:
    def test_rejects_duplicate_group_names(self):
        with pytest.raises(ValueError, match="duplicate group names"):
            WorkloadSpec(groups=(ClientGroup(), ClientGroup()))

    def test_dict_roundtrip(self):
        spec = WorkloadSpec(
            groups=(
                ClientGroup(name="a", client="arrival", count=1),
                ClientGroup(name="b", client="mev", count_per_node=1),
            ),
            users=1_000_000,
        )
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="unknown WorkloadSpec fields"):
            WorkloadSpec.from_dict({"group": []})

    def test_resolved_users(self):
        spec = WorkloadSpec(groups=(ClientGroup(count=2, users=500),))
        assert spec.resolved_users(4) == 500
        spec = WorkloadSpec(groups=(ClientGroup(count=2),))
        assert spec.resolved_users(4) == 2  # falls back to client count
        spec = WorkloadSpec(groups=(ClientGroup(count=2),), users=7)
        assert spec.resolved_users(4) == 7

    def test_from_legacy_shape(self):
        spec = WorkloadSpec.from_legacy(clients_per_node=2, client_window=30)
        assert spec.fairness is False  # legacy runs stay zero-overhead
        (main,) = spec.groups
        assert (main.name, main.client) == ("main", "closed")
        assert (main.count_per_node, main.window) == (2, 30)


class TestClientRegistry:
    def test_registered_names(self):
        names = available_clients()
        assert names == ("arrival", "closed", "mev")

    def test_resolution(self):
        assert client_class("closed") is ClosedLoopClient
        assert client_class("arrival") is ArrivalClient
        assert client_class("mev") is MevBotClient

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown client type"):
            client_class("quantum")


class TestLegacyShim:
    def test_defaults_do_not_warn(self):
        config = ExperimentConfig(n_nodes=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = config.resolved_workload()
        assert spec.fairness is False

    def test_explicit_workload_wins(self):
        probes = ClientGroup(
            name="probes", client="closed", count=3, one_per_node=True, window=1
        )
        explicit = WorkloadSpec(groups=(probes,))
        config = ExperimentConfig(n_nodes=4, clients_per_node=2, workload=explicit)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert config.resolved_workload() is explicit

    def test_config_dict_roundtrip_carries_workload(self):
        config = ExperimentConfig(
            n_nodes=4,
            workload=WorkloadSpec(groups=(ClientGroup(count=1),), users=9),
        )
        clone = ExperimentConfig.from_dict(config.to_dict())
        assert clone.workload == config.workload
        # And absent workloads stay absent.
        plain = ExperimentConfig.from_dict(ExperimentConfig(n_nodes=4).to_dict())
        assert plain.workload is None


def build_echo_workload(spec, seed, until_us=2_000_000):
    """Run ``spec`` against a single echo replica; return the workload
    and the exact (key, body) receive sequence."""
    sim = Simulator()
    net = Network(
        sim,
        UniformLatencyModel(500),
        config=NetworkConfig(bandwidth_enabled=False),
    )
    replica = EchoReplica(0, sim)
    net.register(replica)
    topology = Topology(1)
    topology.place(topology.region_of(0))  # pid 0 = the replica
    workload = build_workload(
        spec,
        sim=sim,
        topology=topology,
        rng=RngRegistry(seed),
        n=1,
        start_at_us=0,
        stop_at_us=until_us,
    )
    for client in workload.clients:
        net.register(client, replica=False)
    sim.run(until=until_us)
    workload.finalize(sim.now)
    received = [(tx.key(), bytes(tx.body)) for tx in replica.received]
    return workload, received


ARRIVAL_SPEC = WorkloadSpec(
    groups=(
        ClientGroup(
            name="traffic",
            client="arrival",
            count=2,
            arrival={"kind": "poisson", "rate_tps": 200.0},
            body="kv_zipf",
        ),
    ),
)


class TestDeterminismAndAccounting:
    def test_same_seed_same_timestamps_and_bodies(self):
        w1, recv1 = build_echo_workload(ARRIVAL_SPEC, seed=11)
        w2, recv2 = build_echo_workload(ARRIVAL_SPEC, seed=11)
        assert w1.submission_log() == w2.submission_log()
        assert recv1 == recv2
        assert len(recv1) > 100

    def test_different_seed_differs(self):
        _, recv1 = build_echo_workload(ARRIVAL_SPEC, seed=11)
        _, recv2 = build_echo_workload(ARRIVAL_SPEC, seed=12)
        assert recv1 != recv2

    def test_incomplete_accounting(self):
        workload, _ = build_echo_workload(ARRIVAL_SPEC, seed=11)
        counts = workload.counts()
        assert counts["submitted"] > 0
        assert (
            counts["submitted"] == counts["completed"] + counts["incomplete"]
        )

    def test_open_loop_stops_at_horizon(self):
        schedule = {"kind": "trace", "offsets_us": list(range(0, 100_000, 1_000))}
        spec = WorkloadSpec(
            groups=(ClientGroup(client="arrival", count=1, arrival=schedule),),
        )
        workload, _ = build_echo_workload(spec, seed=1, until_us=50_000)
        # ~50 arrivals fit the horizon; none may be scheduled past it.
        assert workload.counts()["submitted"] <= 51
        assert all(t <= 50_000 for t, _ in workload.submission_log())


def run_cluster_cell(protocol="lyra", *, tracing=False, seed=5):
    config = ExperimentConfig(
        n_nodes=4,
        seed=seed,
        batch_size=8,
        duration_us=1_500 * MILLISECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        tracing=tracing,
        workload=WorkloadSpec(
            groups=(
                ClientGroup(
                    name="traffic",
                    client="arrival",
                    count_per_node=1,
                    arrival={"kind": "poisson", "rate_tps": 30.0},
                ),
            ),
        ),
    )
    cluster = build_cluster(config, protocol=protocol)
    result = cluster.run()
    return cluster, result


class TestClusterIntegration:
    def test_fairness_block_attached(self):
        cluster, result = run_cluster_cell()
        block = result.fairness
        assert block["submitted"] > 0
        assert block["committed"] > 0
        assert block["reorder"]["count"] > 0
        counts = block["counts"]
        assert (
            counts["submitted"] == counts["completed"] + counts["incomplete"]
        )

    def test_metrics_source_registered(self):
        cluster, _ = run_cluster_cell(tracing=True)
        counters = cluster.metrics.snapshot()["counters"]
        assert counters["workload.submitted"]["total"] > 0
        assert "workload.traffic.completed" in counters


def run_mev_cell(protocol, seed=2):
    n = 7
    spec = WorkloadSpec(
        groups=(
            ClientGroup(
                name="victims",
                client="arrival",
                count=1,
                home=0,
                arrival={"kind": "poisson", "rate_tps": 2.0},
                body="amm",
                body_params={"amount_min": 1_000, "amount_max": 5_000},
            ),
            ClientGroup(name="mev", client="mev", count=1, home=1,
                        collude=True),
        ),
    )
    config = ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=1,
        duration_us=5_000 * MILLISECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        workload=spec,
    )
    config.regions = ["tokyo", "singapore"] + ["saopaulo"] * (n - 2)
    cluster = build_cluster(config, protocol=protocol)
    result = cluster.run()
    return result.fairness["sandwich"]


class TestMevAsymmetry:
    def test_colluding_bot_home_is_resolved_by_the_cluster(self):
        from repro.attacks.pompe_attacks import CherryPickingOrdererNode
        from repro.baselines.pompe import PompeNode

        spec = WorkloadSpec(
            groups=(
                ClientGroup(name="mev", client="mev", count=1, home=1, collude=True),
            )
        )
        config = ExperimentConfig(n_nodes=4, workload=spec)
        pompe = build_cluster(config, protocol="pompe")
        assert [type(node) for node in pompe.nodes] == [
            PompeNode, CherryPickingOrdererNode, PompeNode, PompeNode
        ]
        # The attack registry's ``cherry-pick``, so the oracles leave it out.
        assert pompe.attackers == {1}
        # Lyra has no clear-text ordering phase to exploit.
        lyra = build_cluster(config, protocol="lyra")
        assert {type(node).__name__ for node in lyra.nodes} == {"LyraNode"}
        assert lyra.attackers == set()

    def test_pompe_cleartext_sandwiches_succeed(self):
        s = run_mev_cell("pompe")
        assert s["launched"] > 0
        assert s["successes"] > 0

    def test_lyra_obfuscation_blocks_sandwiches(self):
        s = run_mev_cell("lyra")
        # The bot only sees victims after execution, so the front-run can
        # never precede its victim: attempts happen, none succeed.
        assert s["attempts"] > 0
        assert s["successes"] == 0
