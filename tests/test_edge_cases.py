"""Edge cases and adversarial-path coverage across the stack."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vvb import INIT_KIND
from repro.harness.config import ExperimentConfig
from repro.net.message import Message
from repro.sim.engine import MILLISECONDS, SECONDS, Simulator

from tests.helpers import TEST_IID, build_consensus_cluster, fake_cipher
from tests.test_vvb_dbft import make_init_payload


class TestEngineProperties:
    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 3)),
            min_size=1,
            max_size=60,
        )
    )
    def test_schedule_order_deterministic(self, jobs):
        def run_once():
            sim = Simulator()
            order = []
            for idx, (delay, priority) in enumerate(jobs):
                sim.schedule(delay, lambda idx=idx: order.append(idx), priority=priority)
            sim.run()
            return order

        first = run_once()
        assert first == run_once()
        assert sorted(first) == list(range(len(jobs)))

    @settings(max_examples=20)
    @given(
        st.lists(st.integers(0, 100), min_size=2, max_size=40),
        st.data(),
    )
    def test_cancellation_removes_exactly_the_cancelled(self, delays, data):
        sim = Simulator()
        ran = []
        events = [
            sim.schedule(d, lambda i=i: ran.append(i))
            for i, d in enumerate(delays)
        ]
        to_cancel = data.draw(
            st.sets(st.integers(0, len(delays) - 1), max_size=len(delays))
        )
        for i in to_cancel:
            events[i].cancel()
        sim.run()
        assert set(ran) == set(range(len(delays))) - to_cancel


class TestVvbEdgeCases:
    def test_share_with_mismatched_signer_rejected(self):
        sim, nodes, net = build_consensus_cluster(4)
        payload = make_init_payload(nodes[0].registry, fake_cipher(), (1, 2, 3, 4))
        nodes[0].send(1, Message(INIT_KIND, payload, 128))
        sim.run(until=100_000)
        vvb = nodes[1].instance.vvb
        # Take a legitimate share from node 1's own vote and replay it as
        # if sent by node 2 (signer field says 1, network says 2).
        digest = vvb.message_digest
        share = nodes[1].services.threshold_signer.share_sign(digest)
        before = len(vvb._shares.get(digest, {}))
        vvb.on_vote1(
            {"iid": TEST_IID, "digest": digest, "share": share, "seq": 1},
            sender=2,
        )
        assert len(vvb._shares.get(digest, {})) == before

    def test_fetch_without_init_is_noop(self):
        sim, nodes, net = build_consensus_cluster(4)
        sent_before = nodes[1].messages_sent
        nodes[1].instance.on_fetch({"iid": TEST_IID}, sender=0)
        assert nodes[1].messages_sent == sent_before

    def test_closed_instance_ignores_traffic(self):
        sim, nodes, net = build_consensus_cluster(4)
        nodes[0].instance.propose(fake_cipher(), (1, 2, 3, 4))
        sim.run(until=2_000_000)
        instance = nodes[1].instance
        assert instance.closed
        round_before = instance.round
        instance.on_bv({"iid": TEST_IID, "round": 5, "b": 1}, sender=0)
        instance.on_aux({"iid": TEST_IID, "round": 5, "e": (1,)}, sender=0)
        assert instance.round == round_before
        assert len(nodes[1].decisions) == 1

    def test_absurd_round_numbers_ignored(self):
        sim, nodes, net = build_consensus_cluster(4)
        instance = nodes[1].instance
        instance.on_bv({"iid": TEST_IID, "round": 10**9, "b": 1}, sender=0)
        instance.on_bv({"iid": TEST_IID, "round": -3, "b": 1}, sender=0)
        assert not instance._bv  # nothing allocated


class TestConfig:
    def test_resolved_f_default(self):
        assert ExperimentConfig(n_nodes=4).resolved_f() == 1
        assert ExperimentConfig(n_nodes=10).resolved_f() == 3
        assert ExperimentConfig(n_nodes=1).resolved_f() == 0

    def test_explicit_f_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_nodes=4, f=2).resolved_f()
        assert ExperimentConfig(n_nodes=7, f=1).resolved_f() == 1

    def test_client_start_after_warmup(self):
        cfg = ExperimentConfig(warmup_rounds=3, warmup_spacing_us=100_000)
        assert cfg.client_start_us() == 5 * 100_000

    def test_measurement_window_after_ramp(self):
        cfg = ExperimentConfig()
        assert cfg.measurement_start_us() > cfg.client_start_us()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("status_interval_us", 0),  # the status timer re-arms at one instant
            ("batch_timeout_us", 0),  # so does the batch timer
            ("status_interval_us", -5),
            ("delta_us", -1),
            ("uniform_delay_us", -10),
            ("clock_skew_max_us", -1),
            ("jitter", -0.5),  # the latency model ran it jitter-free
            ("warmup_spacing_us", -1),
            ("clients_per_node", -1),
            ("n_nodes", 0),  # only ``Topology`` refused these, at build time
            ("n_nodes", -3),
        ],
    )
    def test_impossible_config_refused_by_name(self, field, value):
        """Each of these hung, raised mid-run or ran a different config
        before construction refused it."""
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            ExperimentConfig(**{field: value})


class TestTargetedAdversary:
    def test_victim_recovers_after_gst(self):
        """An adversary delays everything touching one replica until GST;
        its batches commit afterwards."""
        from repro.harness import build_cluster
        from repro.net.faults import FaultPlan, LinkFault
        from repro.workload.clients import ClosedLoopClient

        gst = 2 * SECONDS
        cfg = ExperimentConfig(
            n_nodes=4,
            seed=47,
            batch_size=5,
            clients_per_node=0,
            duration_us=8 * SECONDS,
            warmup_rounds=2,
            warmup_spacing_us=150 * MILLISECONDS,
            fault_plan=FaultPlan(
                links=(
                    LinkFault(src=(2,), delay_us=400 * MILLISECONDS, end_us=gst),
                    LinkFault(dst=(2,), delay_us=400 * MILLISECONDS, end_us=gst),
                ),
                gst_us=gst,
            ),
        )
        cluster = build_cluster(cfg)
        client = ClosedLoopClient(
            cluster.topology.place(cluster.topology.region_of(2)),
            cluster.sim,
            2,  # homed at the targeted replica
            window=3,
            start_at_us=cfg.client_start_us(),
        )
        cluster.clients.append(client)
        cluster.network.register(client, replica=False)
        result = cluster.run()
        assert result.safety_violation is None
        assert client.stats.completed > 0  # liveness after GST
