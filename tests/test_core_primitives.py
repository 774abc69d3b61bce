"""Tests for clocks, perceived sequences, distance prediction, types and
batching — the small core building blocks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import Mempool
from repro.core.clocks import OrderingClock, PerceivedSequence
from repro.core.distance import DistanceEstimator, requested_sequence
from repro.core.types import AcceptedEntry, Batch, InstanceId, Transaction
from repro.crypto.hashing import digest_of
from repro.net.message import Message
from repro.sim.engine import Simulator


class TestOrderingClock:
    def test_tracks_sim_time(self):
        sim = Simulator()
        clock = OrderingClock(sim)
        sim.schedule(100, lambda: None)
        sim.run()
        assert clock.read() == 100

    def test_skew_applied(self):
        sim = Simulator()
        clock = OrderingClock(sim, skew_us=500)
        assert clock.read() == 500

    def test_drift_applied(self):
        sim = Simulator()
        clock = OrderingClock(sim, drift=2.0)
        sim.schedule(100, lambda: None)
        sim.run()
        assert clock.read() == 200

    def test_strict_monotonicity(self):
        sim = Simulator()
        clock = OrderingClock(sim)
        values = [clock.now() for _ in range(10)]
        assert values == sorted(set(values))

    def test_invalid_drift(self):
        with pytest.raises(ValueError):
            OrderingClock(Simulator(), drift=0)


class TestPerceivedSequence:
    def test_first_observation_sticks(self):
        sim = Simulator()
        perceived = PerceivedSequence(OrderingClock(sim))
        first = perceived.observe(b"c1")
        sim.schedule(1000, lambda: None)
        sim.run()
        assert perceived.observe(b"c1") == first
        assert perceived.get(b"c1") == first

    def test_distinct_ciphers_distinct(self):
        sim = Simulator()
        perceived = PerceivedSequence(OrderingClock(sim))
        assert perceived.observe(b"a") != perceived.observe(b"b")

    def test_forget(self):
        sim = Simulator()
        perceived = PerceivedSequence(OrderingClock(sim))
        perceived.observe(b"a")
        perceived.forget(b"a")
        assert perceived.get(b"a") is None
        assert len(perceived) == 0


class TestDistanceEstimator:
    def test_self_distance_zero(self):
        est = DistanceEstimator(4, self_pid=1)
        assert est.distance(1) == 0.0

    def test_first_sample_adopted(self):
        est = DistanceEstimator(4, self_pid=0)
        est.record(2, s_ref=100, seq_j=350)
        assert est.distance(2) == 250.0

    def test_estimate_converges(self):
        est = DistanceEstimator(4, self_pid=0)
        for _ in range(20):
            est.record(2, 0, 100)
        assert abs(est.distance(2) - 100.0) < 1e-6

    def test_single_outlier_ignored(self):
        # Median-of-window: one spike cannot move the estimate at all.
        est = DistanceEstimator(4, self_pid=0)
        for _ in range(10):
            est.record(2, 0, 100)
        est.record(2, 0, 10_000)
        assert est.distance(2) == 100.0

    def test_regime_change_reconverges_quickly(self):
        # After a genuine shift (e.g. adversarial delays ending at GST)
        # the estimate flips within window/2 fresh samples.
        est = DistanceEstimator(4, self_pid=0, window=5)
        for _ in range(20):
            est.record(2, 0, 500)  # poisoned era
        for _ in range(3):
            est.record(2, 0, 100)  # true latency
        assert est.distance(2) == 100.0

    def test_blank_fill_for_missing_peers(self):
        est = DistanceEstimator(4, self_pid=0)
        est.record(1, 0, 100)
        est.record(2, 0, 300)
        preds = est.predict(1000)
        # peer 3 never measured: blank = median of {0, 100, 300} = 100.
        assert preds[3] == 1100
        assert preds[0] == 1000

    def test_coverage_and_ready(self):
        # Coverage is over *peers*: the always-present self entry (the
        # 0.0 anchor) must not count toward readiness.
        est = DistanceEstimator(4, self_pid=0)
        assert est.coverage() == 0.0
        assert est.peers_measured() == 0
        est.record(1, 0, 10)
        est.record(2, 0, 10)
        assert est.peers_measured() == 2
        assert est.coverage() == pytest.approx(2 / 3)
        assert est.ready(2)
        assert not est.ready(3)
        est.record(3, 0, 10)
        assert est.coverage() == 1.0
        assert est.ready(3)

    def test_self_samples_rejected(self):
        # A peer==self sample must not disturb the exact 0.0 anchor that
        # predict() relies on, nor inflate coverage.
        est = DistanceEstimator(4, self_pid=0)
        est.record(0, 0, 500)
        assert est.distance(0) == 0.0
        assert est.coverage() == 0.0

    def test_single_node_cluster_coverage(self):
        est = DistanceEstimator(1, self_pid=0)
        assert est.coverage() == 1.0  # no peers to measure
        assert est.ready(0)

    def test_out_of_range_peer_ignored(self):
        est = DistanceEstimator(4, self_pid=0)
        est.record(9, 0, 10)
        assert est.distance(9) is None

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            DistanceEstimator(4, 0, window=0)


class TestRequestedSequence:
    def test_rank_selection(self):
        # n=4, f=1: the (n-f)=3rd smallest.
        assert requested_sequence([10, 40, 20, 30], 1) == 30

    def test_f_zero_takes_max(self):
        assert requested_sequence([5, 1, 9], 0) == 9

    def test_invalid_f(self):
        with pytest.raises(ValueError):
            requested_sequence([1, 2, 3], 3)

    @settings(max_examples=50)
    @given(
        st.lists(st.integers(0, 10**9), min_size=4, max_size=40),
        st.integers(min_value=0, max_value=12),
    )
    def test_lemma2_at_most_f_values_above(self, preds, f):
        """Lemma 2's counting argument: at most f predictions exceed the
        requested sequence number."""
        if f >= len(preds):
            f = len(preds) - 1
        s = requested_sequence(preds, f)
        assert sum(1 for p in preds if p > s) <= f


class TestTransactionTypes:
    def test_payload_roundtrip(self):
        tx = Transaction(7, 42, b"body-bytes")
        back = Transaction.from_payload(tx.payload())
        assert back.client_id == 7 and back.nonce == 42
        assert back.body.startswith(b"body-bytes")

    def test_payload_is_32_bytes(self):
        assert len(Transaction(1, 2).payload()) == 32

    def test_batch_serialize_roundtrip(self):
        txs = tuple(Transaction(1, i) for i in range(5))
        batch = Batch(3, 0, txs)
        back = Batch.deserialize(3, 0, batch.serialize())
        assert [t.key() for t in back.txs] == [t.key() for t in txs]

    def test_batch_bad_length_rejected(self):
        with pytest.raises(ValueError):
            Batch.deserialize(0, 0, b"x" * 33)

    def test_instance_id_ordering(self):
        assert InstanceId(0, 1) < InstanceId(0, 2) < InstanceId(1, 0)

    def test_instance_id_is_a_tuple_that_keeps_its_type_tag(self):
        iid = InstanceId(3, 7)
        # Hashes like the pair it is — the value the hand-written
        # ``__hash__`` used to cache — so set/dict iteration is unchanged.
        assert hash(iid) == hash((3, 7))
        assert (iid.proposer, iid.batch_no) == iid.canonical() == (3, 7)
        assert iid.wire_size() == 8 and Message("x", iid).size == Message("x", 0).size
        # On the wire it is still not a bare pair: the canonical digest is
        # the one the dataclass InstanceId had (pinned from PR 15).
        assert digest_of(iid).hex() == (
            "980d832a12c6298819349906f981b36241351b2efaa541c758e3fa2e2d4df9ad"
        )
        assert digest_of(iid) != digest_of((3, 7))
        assert digest_of((iid, b"c")) != digest_of(((3, 7), b"c"))

    def test_accepted_entry_order_key(self):
        a = AcceptedEntry(InstanceId(0, 0), b"a" * 32, 100)
        b = AcceptedEntry(InstanceId(1, 0), b"b" * 32, 100)
        c = AcceptedEntry(InstanceId(2, 0), b"c" * 32, 99)
        assert sorted([b, a, c], key=AcceptedEntry.order_key)[0] is c
        assert sorted([b, a], key=AcceptedEntry.order_key)[0] is a  # tie: id


class TestMempool:
    def test_fifo_batching(self):
        pool = Mempool(3)
        for i in range(5):
            pool.add(Transaction(0, i))
        assert pool.full
        batch = pool.take_batch()
        assert [t.nonce for t in batch] == [0, 1, 2]
        assert len(pool) == 2

    def test_duplicate_suppression(self):
        pool = Mempool(10)
        assert pool.add(Transaction(0, 0))
        assert not pool.add(Transaction(0, 0))
        assert pool.duplicates_dropped == 1

    def test_drop_committed_frees_dedup(self):
        pool = Mempool(10)
        tx = Transaction(0, 0)
        pool.add(tx)
        pool.take_batch()
        pool.drop_committed([tx])
        assert pool.add(tx)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            Mempool(0)


class TestMempoolRequeue:
    def test_requeue_preserves_order_and_dedup(self):
        # A rejected batch comes back at the queue head, in order, with
        # its dedup keys still registered (no double-submission window).
        pool = Mempool(3)
        txs = [Transaction(0, i) for i in range(3)]
        for tx in txs:
            pool.add(tx)
        batch = pool.take_batch()
        pool.requeue(batch)
        assert not pool.add(txs[0])
        assert pool.duplicates_dropped == 1
        assert [t.nonce for t in pool.take_batch()] == [0, 1, 2]

    def test_requeue_goes_ahead_of_new_arrivals(self):
        pool = Mempool(2)
        pool.add(Transaction(0, 0))
        pool.add(Transaction(0, 1))
        rejected = pool.take_batch()
        pool.add(Transaction(0, 2))
        pool.requeue(rejected)
        # The re-proposal precedes traffic that arrived after rejection.
        assert [t.nonce for t in pool.take_batch()] == [0, 1]
        assert [t.nonce for t in pool.take_batch()] == [2]

    def test_drop_committed_then_resubmit_is_single_copy(self):
        # After commit the dedup key is released; a resubmission enters
        # exactly once, and the queue never holds two live copies.
        pool = Mempool(10)
        tx = Transaction(0, 0)
        pool.add(tx)
        pool.take_batch()
        pool.drop_committed([tx])
        assert pool.add(tx)
        assert not pool.add(tx)
        assert len(pool) == 1
