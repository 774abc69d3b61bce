"""The six VVB specification properties (§IV-A1), one named test each.

These complement the scenario tests in test_vvb_dbft.py by asserting each
property of the Validating Value Broadcast definition directly, so a
regression in any one property points at its name.
"""

from repro.core.vvb import INIT_KIND
from repro.net.message import Message

from tests.helpers import build_consensus_cluster, fake_cipher
from tests.test_vvb_dbft import make_init_payload


def run(sim, horizon=4_000_000):
    sim.run(until=horizon)


class TestVvbTermination:
    def test_broadcast_invocation_returns(self):
        """VVB-Termination: vv-broadcast itself is non-blocking — the
        broadcaster finishes the call synchronously (delivery is async)."""
        sim, nodes, net = build_consensus_cluster(4)
        nodes[0].instance.vvb.start(fake_cipher(), (1, 2, 3, 4))
        # No simulation has run yet: the call already returned.
        assert sim.now == 0


class TestVvbValidity:
    def test_delivered_message_was_broadcast(self):
        """VVB-Validity: if (1, m) is delivered, some process broadcast m
        — the delivered cipher matches the broadcaster's input exactly."""
        sim, nodes, net = build_consensus_cluster(4)
        cipher = fake_cipher("the-one")
        nodes[0].instance.propose(cipher, (1, 2, 3, 4))
        run(sim)
        for node in nodes:
            m = node.instance.vvb.message
            assert m is not None and m[0].cipher_id == cipher.cipher_id


class TestVvbUniformity:
    def test_one_delivery_implies_all(self):
        """VVB-Uniformity: when any correct process delivers (1, m), every
        correct process eventually does (proof rebroadcast + fetch)."""
        sim, nodes, net = build_consensus_cluster(4)
        payload = make_init_payload(nodes[0].registry, fake_cipher(), (1, 2, 3, 4))
        # Byzantine-style partial INIT: only 3 of 4 get it directly.
        for dst in (0, 1, 2):
            nodes[0].send(dst, Message(INIT_KIND, dict(payload), 128))
        run(sim, 8_000_000)
        delivered_one = [
            node for node in nodes if 1 in node.instance.vvb.delivered
        ]
        assert delivered_one, "nobody delivered 1"
        assert len(delivered_one) == 4  # ... then everyone did


class TestVvbObligation:
    def test_every_correct_process_delivers_something(self):
        """VVB-Obligation: even when the value 1 can never form (only one
        process validates), every correct process eventually delivers some
        value (0, via the expiration timeout)."""
        validators = {pid: (lambda c, p: False) for pid in (1, 2, 3)}
        sim, nodes, net = build_consensus_cluster(4, validators=validators)
        nodes[0].instance.propose(fake_cipher(), (1, 2, 3, 4))
        run(sim, 8_000_000)
        for node in nodes:
            assert node.instance.vvb.delivered, f"pid {node.pid} delivered nothing"


class TestVvbUnicity:
    def test_no_two_messages_delivered_with_one(self):
        """VVB-Unicity: an equivocating broadcaster cannot get two
        different messages delivered with the value 1."""
        sim, nodes, net = build_consensus_cluster(7)
        registry = nodes[0].registry
        preds = tuple(range(7))
        pa = make_init_payload(registry, fake_cipher("A"), preds)
        pb = make_init_payload(registry, fake_cipher("B"), preds)
        for node in nodes:
            payload = pa if node.pid < 4 else pb
            nodes[0].send(node.pid, Message(INIT_KIND, dict(payload), 128))
        run(sim, 8_000_000)
        delivered = {
            node.instance.vvb.message[0].cipher_id
            for node in nodes
            if 1 in node.instance.vvb.delivered
        }
        assert len(delivered) <= 1


class TestVvbSupermajority:
    def test_delivery_of_one_implies_quorum_of_validations(self):
        """VVB-Supermajority: delivering (1, m) requires 2f+1 distinct
        signature shares over m's digest."""
        sim, nodes, net = build_consensus_cluster(4)
        nodes[0].instance.propose(fake_cipher(), (1, 2, 3, 4))
        run(sim)
        for node in nodes:
            vvb = node.instance.vvb
            if 1 not in vvb.delivered:
                continue
            shares = (vvb._shares or {}).get(vvb.message_digest, {})
            # Either we counted a quorum of shares ourselves, or we hold a
            # transferable proof that combines one.
            assert len(shares) >= 3 or vvb._proof is not None

    def test_minority_validation_never_delivers_one(self):
        validators = {2: (lambda c, p: False), 3: (lambda c, p: False)}
        sim, nodes, net = build_consensus_cluster(4, validators=validators)
        nodes[0].instance.propose(fake_cipher(), (1, 2, 3, 4))
        run(sim, 8_000_000)
        for node in nodes:
            assert 1 not in node.instance.vvb.delivered
