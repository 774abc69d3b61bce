"""Protocol tests for VVB (Algorithm 1) and modified DBFT (Algorithm 3),
run over a real simulated network with the ConsensusTestNode harness."""

from repro.core.bv_broadcast import BV_KIND
from repro.core.dbft import BinaryConsensus
from repro.core.services import ProtocolServices
from repro.core.vvb import FETCH_KIND, INIT_KIND, message_digest
from repro.crypto.cost import FREE_COSTS
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.net.message import Message
from repro.sim.engine import MILLISECONDS, Simulator

from tests.helpers import (
    TEST_IID,
    build_consensus_cluster,
    fake_cipher,
)

DELAY = 5 * MILLISECONDS


def make_init_payload(registry, cipher, preds, proposer=0, iid=TEST_IID):
    digest = message_digest(iid, cipher.cipher_id, tuple(preds))
    sigma = registry.signer(proposer).sign(digest)
    return {"iid": iid, "cipher": cipher, "preds": tuple(preds), "sigma": sigma}


def run_to_quiescence(sim, horizon_us=2_000_000):
    sim.run(until=horizon_us)


class TestGoodCase:
    def test_all_decide_one_with_same_message(self):
        sim, nodes, net = build_consensus_cluster(4)
        cipher = fake_cipher()
        preds = (1, 2, 3, 4)
        nodes[0].instance.propose(cipher, preds)
        run_to_quiescence(sim)
        for node in nodes:
            assert node.decisions, f"pid {node.pid} never decided"
            v, m = node.decisions[0]
            assert v == 1
            assert m is not None and m[0].cipher_id == cipher.cipher_id
            assert m[1] == preds

    def test_each_node_decides_once(self):
        sim, nodes, net = build_consensus_cluster(4)
        nodes[0].instance.propose(fake_cipher(), (1, 2, 3, 4))
        run_to_quiescence(sim)
        assert all(len(node.decisions) == 1 for node in nodes)

    def test_good_case_latency_about_three_delays(self):
        sim, nodes, net = build_consensus_cluster(4, delay_us=DELAY)
        nodes[0].instance.propose(fake_cipher(), (0, 0, 0, 0))
        start = sim.now
        run_to_quiescence(sim)
        decided_at = nodes[0].instance.decided_round
        assert decided_at == 1  # decided in round 1
        # Elapsed: INIT + max(votes, Δ timer) + AUX  ≈ 3 delays (Δ = delay).
        # Allow generous slack for self-delivery offsets.
        # (The precise 3.0-delay measurement is LAT3:
        # repro.harness.experiments.goodcase_latency_rounds.)

    def test_larger_cluster(self):
        sim, nodes, net = build_consensus_cluster(7)
        nodes[2].instance = nodes[2].instance  # pid 2 proposes its own iid? no:
        nodes[0].instance.propose(fake_cipher(), tuple(range(7)))
        run_to_quiescence(sim)
        assert all(node.decisions and node.decisions[0][0] == 1 for node in nodes)


class TestRejection:
    def test_all_reject_decides_zero(self):
        validators = {pid: (lambda c, p: False) for pid in range(4)}
        sim, nodes, net = build_consensus_cluster(4, validators=validators)
        nodes[0].instance.propose(fake_cipher(), (1, 2, 3, 4))
        run_to_quiescence(sim, 3_000_000)
        for node in nodes:
            assert node.decisions, f"pid {node.pid} never decided"
            assert node.decisions[0][0] == 0
            assert node.decisions[0][1] is None

    def test_one_rejector_still_accepts(self):
        validators = {3: (lambda c, p: False)}
        sim, nodes, net = build_consensus_cluster(4, validators=validators)
        nodes[0].instance.propose(fake_cipher(), (1, 2, 3, 4))
        run_to_quiescence(sim)
        assert all(node.decisions[0][0] == 1 for node in nodes)

    def test_insufficient_validators_decides_zero(self):
        # Only f+1 = 2 of 4 validate: the value 1 can never gather 2f+1
        # shares, so the expiration timeout drives everyone to 0.
        validators = {2: (lambda c, p: False), 3: (lambda c, p: False)}
        sim, nodes, net = build_consensus_cluster(4, validators=validators)
        nodes[0].instance.propose(fake_cipher(), (1, 2, 3, 4))
        run_to_quiescence(sim, 5_000_000)
        for node in nodes:
            assert node.decisions, f"pid {node.pid} never decided"
            assert node.decisions[0][0] == 0

    def test_agreement_is_unanimous(self):
        validators = {1: (lambda c, p: False), 2: (lambda c, p: False)}
        sim, nodes, net = build_consensus_cluster(4, validators=validators)
        nodes[0].instance.propose(fake_cipher(), (1, 2, 3, 4))
        run_to_quiescence(sim, 5_000_000)
        values = {node.decisions[0][0] for node in nodes if node.decisions}
        assert len(values) == 1


class TestEquivocation:
    def _equivocate(self, sim, nodes, net):
        """pid 0 sends cipher A to even pids and cipher B to odd pids."""
        registry = nodes[0].registry
        preds = (1, 2, 3, 4)
        pa = make_init_payload(registry, fake_cipher("A"), preds)
        pb = make_init_payload(registry, fake_cipher("B"), preds)
        for node in nodes:
            payload = pa if node.pid % 2 == 0 else pb
            nodes[0].send(node.pid, Message(INIT_KIND, dict(payload), 128))

    def test_at_most_one_message_delivered(self):
        sim, nodes, net = build_consensus_cluster(4)
        self._equivocate(sim, nodes, net)
        run_to_quiescence(sim, 5_000_000)
        delivered = {
            node.instance.delivered_message[0].cipher_id
            for node in nodes
            if node.instance.delivered_message is not None
        }
        assert len(delivered) <= 1  # VVB-Unicity

    def test_consensus_still_terminates_and_agrees(self):
        sim, nodes, net = build_consensus_cluster(4)
        self._equivocate(sim, nodes, net)
        run_to_quiescence(sim, 5_000_000)
        values = {node.decisions[0][0] for node in nodes if node.decisions}
        assert len(values) == 1
        assert all(node.decisions for node in nodes)

    def test_equivocation_detected(self):
        sim, nodes, net = build_consensus_cluster(4)
        registry = nodes[0].registry
        preds = (1, 2, 3, 4)
        pa = make_init_payload(registry, fake_cipher("A"), preds)
        pb = make_init_payload(registry, fake_cipher("B"), preds)
        # Send both versions to everyone: every correct node sees proof of
        # equivocation.
        for node in nodes:
            nodes[0].send(node.pid, Message(INIT_KIND, dict(pa), 128))
            nodes[0].send(node.pid, Message(INIT_KIND, dict(pb), 128))
        run_to_quiescence(sim, 5_000_000)
        assert all(node.instance.vvb.equivocation_detected for node in nodes)


class TestPartialDissemination:
    def test_init_to_single_node_resolves_zero(self):
        sim, nodes, net = build_consensus_cluster(4)
        payload = make_init_payload(nodes[0].registry, fake_cipher(), (1, 2, 3, 4))
        nodes[0].send(1, Message(INIT_KIND, payload, 128))
        run_to_quiescence(sim, 8_000_000)
        decided = [node.decisions[0][0] for node in nodes if node.decisions]
        assert decided and all(v == 0 for v in decided)

    def test_init_to_quorum_can_accept_and_all_learn_message(self):
        sim, nodes, net = build_consensus_cluster(4)
        cipher = fake_cipher()
        payload = make_init_payload(nodes[0].registry, cipher, (1, 2, 3, 4))
        # INIT reaches 3 of 4 nodes; node 3 must recover m via the
        # timeout-forward / DELIVER-fetch path before outputting 1.
        for dst in (0, 1, 2):
            nodes[0].send(dst, Message(INIT_KIND, dict(payload), 128))
        run_to_quiescence(sim, 8_000_000)
        for node in nodes:
            assert node.decisions, f"pid {node.pid} never decided"
        values = {node.decisions[0][0] for node in nodes}
        assert values == {1}
        # Whoever decided 1 must eventually hold the message.
        for node in nodes:
            assert (
                node.instance.delivered_message is not None
                or node.messages_recovered
            ), f"pid {node.pid} decided 1 without the message"


class TestDecideOneWithoutTheMessage:
    """Deciding 1 through amplified estimates (BV-broadcast rounds) does not
    need ``m``: the instance decides ``(1, None)``, asks for ``m`` with one
    FETCH broadcast, and reports ``m`` once a proof and the INIT arrive."""

    def test_decides_fetches_and_reports_the_message_once(self):
        n, f, pid = 4, 1, 1
        sim, registry = Simulator(), KeyRegistry(1)
        scheme = ThresholdScheme(2 * f + 1, n, seed=1)
        out, decisions, messages = [], [], []
        services = ProtocolServices(
            pid=pid,
            n=n,
            f=f,
            sim=sim,
            delta_us=DELAY,
            signer=registry.signer(pid),
            registry=registry,
            threshold=scheme,
            costs=FREE_COSTS,
            send_fn=lambda dst, msg: out.append(("send", dst, msg.kind)),
            broadcast_fn=lambda msg: out.append(("broadcast", msg.kind)),
        )
        instance = BinaryConsensus(
            services,
            TEST_IID,
            validate=lambda iid, cipher, preds: True,
            on_decide=lambda iid, v, m: decisions.append((iid, v, m)),
            on_message=lambda iid, m: messages.append((iid, m)),
        )
        peers = (0, 2, 3)

        def round_(r, value):
            """Deliver ``value`` into round ``r``'s vvals, let the round
            timer expire, then hand over a quorum of AUX ``{value}``."""
            for sender in peers:
                if r == 1:
                    instance.on_vote0({"iid": TEST_IID, "seq": 0}, sender)
                else:
                    instance.on_bv({"iid": TEST_IID, "round": r, "b": value}, sender)
            sim.run(until=sim.now + DELAY)
            for sender in peers:
                instance.on_aux({"iid": TEST_IID, "round": r, "e": (value,)}, sender)

        round_(1, 0)  # no m: round 1 can only see 0
        round_(2, 1)  # the estimate becomes 1 ...
        assert not decisions and instance.round == 3
        round_(3, 1)  # ... and is decided in an odd round
        assert decisions == [(TEST_IID, 1, None)]
        assert out.count(("broadcast", FETCH_KIND)) == 1
        assert ("broadcast", BV_KIND) in out and not messages

        cipher, preds = fake_cipher(), (1, 2, 3, 4)
        digest = message_digest(TEST_IID, cipher.cipher_id, preds)
        proof = scheme.combine(
            digest, [scheme.share_signer(p).share_sign(digest) for p in peers]
        )
        instance.on_deliver({"iid": TEST_IID, "digest": digest, "proof": proof}, 2)
        assert ("send", 2, FETCH_KIND) in out and not messages
        init = make_init_payload(registry, cipher, preds)
        instance.on_init(init, 2)
        instance.on_init(dict(init), 3)
        assert messages == [(TEST_IID, (cipher, preds))]
        assert decisions == [(TEST_IID, 1, None)]


class TestInvalidInputs:
    def test_bad_signature_ignored(self):
        sim, nodes, net = build_consensus_cluster(4)
        payload = make_init_payload(
            nodes[0].registry, fake_cipher(), (1, 2, 3, 4), proposer=2
        )  # signed by pid 2 but instance proposer is pid 0
        nodes[0].send(1, Message(INIT_KIND, payload, 128))
        sim.run(until=200_000)
        assert nodes[1].instance.vvb.message is None

    def test_malformed_init_ignored(self):
        sim, nodes, net = build_consensus_cluster(4)
        nodes[0].send(1, Message(INIT_KIND, {"iid": TEST_IID, "cipher": None}, 64))
        sim.run(until=200_000)
        assert nodes[1].instance.vvb.message is None

    def test_malformed_votes_ignored(self):
        sim, nodes, net = build_consensus_cluster(4)
        from repro.core.vvb import VOTE1_KIND

        nodes[0].send(
            1,
            Message(
                VOTE1_KIND,
                {"iid": TEST_IID, "digest": "not-bytes", "share": None},
                64,
            ),
        )
        sim.run(until=200_000)
        assert not nodes[1].decisions
