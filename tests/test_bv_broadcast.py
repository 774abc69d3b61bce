"""Direct unit tests for Binary Value Broadcast (relay and delivery
thresholds), using a loopback services stub — no network."""

from typing import List

from repro.core.bv_broadcast import BinaryValueBroadcast
from repro.core.services import ProtocolServices
from repro.crypto.cost import FREE_COSTS
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.sim.engine import Simulator

N, F = 4, 1


def make_endpoint(pid=0):
    sim = Simulator()
    sent: List[dict] = []
    services = ProtocolServices(
        pid=pid,
        n=N,
        f=F,
        sim=sim,
        delta_us=1000,
        signer=KeyRegistry(1).signer(pid),
        registry=KeyRegistry(1),
        threshold=ThresholdScheme(2 * F + 1, N, seed=1),
        costs=FREE_COSTS,
        broadcast_fn=lambda msg: sent.append(msg.payload),
    )
    delivered: List[int] = []
    bv = BinaryValueBroadcast(
        services, "iid", 2, lambda round_no, b: delivered.append(b)
    )
    return bv, sent, delivered


class TestThresholds:
    def test_own_estimate_broadcast_once(self):
        bv, sent, delivered = make_endpoint()
        bv.broadcast_estimate(1)
        bv.broadcast_estimate(1)
        assert len(sent) == 1 and sent[0]["b"] == 1

    def test_delivery_at_quorum(self):
        bv, sent, delivered = make_endpoint()
        bv.on_vote(1, 1)
        assert delivered == []
        # Second external vote hits f+1: we relay (our own vote now counts)
        # which completes the 2f+1 quorum — delivery.
        bv.on_vote(1, 2)
        assert delivered == [1]

    def test_no_delivery_below_quorum_without_relay(self):
        bv, sent, delivered = make_endpoint(pid=1)
        # A single sender repeating itself can never reach f+1 distinct.
        bv.on_vote(1, 2)
        assert delivered == [] and not sent

    def test_duplicate_votes_not_counted(self):
        bv, sent, delivered = make_endpoint()
        for _ in range(5):
            bv.on_vote(1, 2)
        assert delivered == []

    def test_relay_at_f_plus_one(self):
        bv, sent, delivered = make_endpoint()
        bv.on_vote(0, 1)
        assert not sent  # one vote: no relay
        bv.on_vote(0, 2)
        assert len(sent) == 1 and sent[0]["b"] == 0  # f+1 = 2: relay

    def test_own_vote_counts_toward_quorum(self):
        bv, sent, delivered = make_endpoint()
        bv.broadcast_estimate(1)  # our vote
        bv.on_vote(1, 1)
        bv.on_vote(1, 2)
        assert delivered == [1]

    def test_both_values_can_deliver(self):
        bv, sent, delivered = make_endpoint()
        for pid in (1, 2, 3):
            bv.on_vote(1, pid)
        for pid in (0, 1, 2):
            bv.on_vote(0, pid)
        # relay of 0 at f+1 makes our own 0-vote count too
        assert set(delivered) == {1, 0}

    def test_malformed_value_ignored(self):
        bv, sent, delivered = make_endpoint()
        bv.on_vote(7, 1)
        bv.on_vote(None, 2)
        assert delivered == [] and not sent

    def test_delivery_only_once_per_value(self):
        bv, sent, delivered = make_endpoint()
        for pid in range(4):
            bv.on_vote(1, pid)
        assert delivered == [1]
