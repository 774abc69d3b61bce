"""Cross-validation: the capacity model's per-instance message profile
against what the message-level simulator actually sends.

The Fig. 3 extrapolation is only as good as its per-instance budgets; this
test runs a real Lyra cluster, counts protocol traffic per committed
instance from the network trace, and checks the model's ingress-byte and
message-count estimates are in the right ballpark (within 2x — the model
is deliberately simple: no retries, no status heartbeats)."""

import pytest

from repro.harness import build_cluster
from repro.metrics.capacity import CapacityInputs, lyra_instance_profile
from repro.sim.engine import SECONDS

from tests.helpers import quick_lyra_config


@pytest.fixture(scope="module")
def traced_run():
    cfg = quick_lyra_config(
        n_nodes=4, batch_size=10, clients_per_node=1, client_window=5,
        duration_us=5 * SECONDS,
    )
    cluster = build_cluster(cfg)
    per_kind = {"messages": {}, "bytes": {}}

    def hook(t, src, dst, message):
        per_kind["messages"][message.kind] = (
            per_kind["messages"].get(message.kind, 0) + 1
        )
        per_kind["bytes"][message.kind] = (
            per_kind["bytes"].get(message.kind, 0) + message.size
        )

    cluster.network.add_trace_hook(hook)
    result = cluster.run()
    # Denominator: every instance any node participated in (committed or
    # still in flight at the horizon) — the trace counts their traffic too.
    instances = max(node.stats.instances_joined for node in cluster.nodes)
    return cluster, result, per_kind, instances


class TestMessageCounts(object):
    def test_vote_traffic_scales_as_n_squared(self, traced_run):
        cluster, result, per_kind, instances = traced_run
        n = cluster.config.n_nodes
        votes = per_kind["messages"].get("lyra.vote1", 0)
        # Each instance: every node broadcasts one VOTE(1) to n peers.
        expected = instances * n * n
        assert 0.8 * expected <= votes <= 1.3 * expected

    def test_one_init_broadcast_per_instance(self, traced_run):
        cluster, result, per_kind, instances = traced_run
        n = cluster.config.n_nodes
        inits = per_kind["messages"].get("lyra.init", 0)
        expected = instances * n
        assert 0.8 * expected <= inits <= 1.3 * expected

    def test_model_ingress_bytes_in_ballpark(self, traced_run):
        cluster, result, per_kind, instances = traced_run
        n = cluster.config.n_nodes
        f = cluster.config.resolved_f()
        protocol_kinds = (
            "lyra.init",
            "lyra.vote1",
            "lyra.vote0",
            "lyra.deliver",
            "lyra.aux",
            "lyra.coord",
            "lyra.dshare",
        )
        measured_total = sum(per_kind["bytes"].get(k, 0) for k in protocol_kinds)
        # Per-instance ingress at one replica.
        measured_per_instance = measured_total / instances / n
        inputs = CapacityInputs(batch_size=cluster.config.batch_size)
        model = lyra_instance_profile(n, f, inputs)["ingress_bytes"]
        assert model / 2.5 <= measured_per_instance <= model * 2.5, (
            measured_per_instance,
            model,
        )

    def test_deliver_proofs_bounded(self, traced_run):
        cluster, result, per_kind, instances = traced_run
        n = cluster.config.n_nodes
        delivers = per_kind["messages"].get("lyra.deliver", 0)
        # At most every node broadcasts one proof per instance (plus rare
        # rebroadcasts).
        assert delivers <= instances * n * n * 1.2
