"""Differential tests for the comparison side's hot path: the keyed-hash
kernel against ``hmac.new``, every tag and verdict of the signature layers
against an ``hmac.new`` reference, the flat-tuple ``digest_of`` fast path
against a ``_feed``-only reference, the memoised HotStuff vote digest, and
two end-to-end shapes pinned to the commit before the kernel landed."""

import enum
import hashlib
import hmac
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import hotstuff
from repro.core.types import InstanceId
from repro.crypto import hashing
from repro.crypto.hashing import KeyedHash, digest_of
from repro.crypto.signatures import KeyRegistry, Signature
from repro.crypto.threshold import (
    SignatureShare,
    ThresholdScheme,
    ThresholdSignature,
)
from repro.sim.rng import derive_seed

CONSTRUCTORS = (hashlib.sha256, hashlib.sha384, hashlib.sha512)


def feed_only_digest(value) -> bytes:
    """``digest_of`` as it was before any fast path: ``_feed`` all the way."""
    h = hashlib.sha256()
    hashing._feed(h, value)
    return h.digest()


class TestKeyedHash:
    @pytest.mark.parametrize("cons", CONSTRUCTORS)
    @settings(max_examples=40, deadline=None)
    @given(message=st.binary(max_size=300), filler=st.integers(0, 255))
    def test_equals_hmac_for_every_key_length(self, cons, message, filler):
        block = cons().block_size
        for length in (0, 1, 32, block - 1, block, block + 1, 200):
            key = bytes((filler + i) % 256 for i in range(length))
            assert KeyedHash(key, cons).tag(message) == (
                hmac.new(key, message, cons).digest()
            )

    def test_one_instance_tags_many_messages(self):
        mac = KeyedHash(b"k" * 32, hashlib.sha512)
        for i in range(50):
            message = b"m%d" % i
            assert mac.tag(message) == (
                hmac.new(b"k" * 32, message, hashlib.sha512).digest()
            )
        # Tagging consumed nothing: the first message still tags the same.
        assert mac.tag(b"m0") == hmac.new(b"k" * 32, b"m0", hashlib.sha512).digest()


# ----------------------------------------------------------------------
# Signature layers against an hmac.new reference (the derivations below are
# the pre-kernel code, kept verbatim).
# ----------------------------------------------------------------------
def ref_signing_key(seed: int, pid: int) -> bytes:
    key = derive_seed(seed, "signing-key", str(pid)).to_bytes(8, "big")
    return hashlib.sha256(key).digest()


def ref_master(seed: int) -> bytes:
    return hashlib.sha256(
        derive_seed(seed, "threshold-master").to_bytes(8, "big")
    ).digest()


def ref_share_key(seed: int, pid: int) -> bytes:
    return hmac.new(ref_master(seed), b"share:%d" % pid, hashlib.sha256).digest()


messages = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=16),
    st.tuples(st.binary(min_size=32, max_size=32), st.integers()),
    st.tuples(st.text(max_size=8), st.integers(), st.binary(max_size=8)),
)


class TestSignatureLayersMatchHmac:
    @settings(max_examples=60, deadline=None)
    @given(message=messages, seed=st.integers(0, 2**32), pid=st.integers(0, 6))
    def test_sign_and_verify(self, message, seed, pid):
        registry = KeyRegistry(seed)
        expect = hmac.new(
            ref_signing_key(seed, pid), feed_only_digest(message), hashlib.sha512
        ).digest()
        sig = registry.signer(pid).sign(message)
        assert sig == Signature(pid, expect)
        # Miss, then hit: the verdict is the same both times.
        assert registry.verify(message, sig, pid) is True
        assert registry.verify(message, sig, pid) is True
        forged = Signature(pid, bytes([expect[0] ^ 1]) + expect[1:])
        assert registry.verify(message, forged, pid) is False
        assert registry.verify(message, sig, pid + 1) is False
        assert registry.verify_cache_stats()["misses"] == 2

    @settings(max_examples=60, deadline=None)
    @given(message=messages, seed=st.integers(0, 2**32))
    def test_share_sign_verify_combine_verify_full(self, message, seed):
        scheme = ThresholdScheme(3, 4, seed=seed)
        digest = feed_only_digest(message)
        shares = []
        for pid in range(4):
            expect = hmac.new(ref_share_key(seed, pid), digest, hashlib.sha384).digest()
            share = scheme.share_signer(pid).share_sign(message)
            assert share == SignatureShare(pid, expect)
            assert scheme.share_verify(message, share, pid) is True
            assert scheme.share_verify(message, share, (pid + 1) % 4) is False
            bad = SignatureShare(pid, expect[:-1] + bytes([expect[-1] ^ 1]))
            assert scheme.share_verify(message, bad, pid) is False
            shares.append(share)
        full_tag = hmac.new(ref_master(seed), b"full:" + digest, hashlib.sha384).digest()
        full = scheme.combine(message, shares[:3])
        assert full == ThresholdSignature(full_tag, 3)
        assert scheme.verify_full(full, message) is True
        assert scheme.verify_full(full, message) is True  # memo hit
        bad_full = ThresholdSignature(full_tag[:-1] + bytes([full_tag[-1] ^ 1]), 3)
        assert scheme.verify_full(bad_full, message) is False
        assert scheme.verify_full(ThresholdSignature(full_tag, 2), message) is False


# ----------------------------------------------------------------------
# digest_of: the flat-tuple join against _feed
# ----------------------------------------------------------------------
class BytesSub(bytes):
    pass


class IntSub(int):
    pass


class Colour(enum.IntEnum):
    RED = 1


leaves = st.one_of(
    st.binary(max_size=40),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.text(max_size=8),
    st.none(),
    st.binary(max_size=8).map(BytesSub),
    st.integers().map(IntSub),
    st.just(Colour.RED),
    st.builds(InstanceId, st.integers(0, 99), st.integers(0, 99)),
)
tuples = st.lists(
    st.one_of(leaves, st.tuples(leaves, leaves)), max_size=6
).map(tuple)


class TestFlatTupleDigest:
    @settings(max_examples=300, deadline=None)
    @given(value=tuples)
    def test_mixed_tuples_equal_feed(self, value):
        assert digest_of(value) == feed_only_digest(value)

    @settings(max_examples=200, deadline=None)
    @given(
        value=st.lists(
            st.one_of(st.binary(max_size=40), st.integers(-(2**80), 2**80)),
            max_size=6,
        ).map(tuple)
    )
    def test_flat_bytes_int_tuples_equal_feed(self, value):
        assert digest_of(value) == feed_only_digest(value)

    def test_type_tags_survive_the_fast_path(self):
        # Equal under ==, distinct under the canonical encoding.
        assert digest_of((1,)) != digest_of((True,))
        assert digest_of((b"1",)) != digest_of(("1",))
        assert digest_of((1, 2)) != digest_of([1, (2,)])
        assert digest_of(InstanceId(1, 2)) != digest_of((1, 2))
        for value in ((True,), (IntSub(1),), (BytesSub(b"x"),), (Colour.RED,)):
            assert digest_of(value) == feed_only_digest(value)


# ----------------------------------------------------------------------
# The memoised vote digest
# ----------------------------------------------------------------------
class TestVoteDigestMemo:
    def test_equals_digest_of_across_a_wraparound(self):
        limit = hotstuff._VOTE_DIGEST_MEMO_MAX
        hotstuff._vote_digest_memo.clear()
        first = (b"\x00" * 32, "prepare")
        assert hotstuff._vote_digest(*first) == digest_of(first)
        for i in range(limit + 10):
            block = i.to_bytes(32, "big")
            phase = hotstuff.PHASES[i % 3]
            assert hotstuff._vote_digest(block, phase) == digest_of((block, phase))
            assert len(hotstuff._vote_digest_memo) <= limit
        # The memo wrapped at least once; evicted keys re-derive identically.
        assert first not in hotstuff._vote_digest_memo
        assert hotstuff._vote_digest(*first) == digest_of(first)

    def test_phases_do_not_alias(self):
        block = b"\x07" * 32
        digests = {hotstuff._vote_digest(block, phase) for phase in hotstuff.PHASES}
        assert len(digests) == len(hotstuff.PHASES)


# ----------------------------------------------------------------------
# End to end: pinned to the parent commit (8e0ffe5)
# ----------------------------------------------------------------------
def latency_fingerprint(clients):
    sample = sorted(lat for c in clients for lat in c.stats.latencies_us)
    return len(sample), hashlib.sha256(json.dumps(sample).encode()).hexdigest()


class TestPinnedToParent:
    def test_pompe_n4_smoke_shape(self):
        """The ledger's ``pompe_n100_closed --smoke`` shape."""
        from repro.bench.suite import prefix_digest
        from repro.harness.config import ExperimentConfig
        from repro.harness.factory import build_cluster
        from repro.sim.engine import MILLISECONDS

        config = ExperimentConfig(
            n_nodes=4,
            seed=1,
            batch_size=10,
            clients_per_node=1,
            client_window=5,
            duration_us=2000 * MILLISECONDS,
            warmup_rounds=2,
            warmup_spacing_us=150 * MILLISECONDS,
            jitter=0.0,
        )
        cluster = build_cluster(config, protocol="pompe")
        result = cluster.run()
        assert result.safety_violation is None
        assert prefix_digest(cluster) == (
            "7d9f4029ea216e420a733b55e3dd84745ccb65a04656f791372ec31d39bc4d4d"
        )
        assert result.events_processed == 1102
        assert (result.messages_delivered, result.bytes_delivered) == (468, 82896)
        assert latency_fingerprint(cluster.clients) == (
            30,
            "401035e403abf59ece5e0e4ea3b62c1eeb0a8b11b958e8df92f58c0193698dda",
        )

    def test_fino_shape(self):
        from repro.sim.engine import SECONDS
        from repro.sim.shard import digest_outputs
        from tests.test_fino import attach_clients, build_fino

        sim, nodes, net = build_fino()
        clients = attach_clients(sim, nodes, net, homes=[0, 1, 2, 3])
        for node in nodes:
            node.start()
        sim.run(until=6 * SECONDS)
        assert digest_outputs({n.pid: n.output_sequence() for n in nodes}) == (
            "e00a751192ba3abd86ffab4e15facdc3ea8748f829d18845afa1883ab421694e"
        )
        assert sim.events_processed == 20002
        assert (net.messages_delivered, net.bytes_delivered) == (9723, 1274280)
        assert latency_fingerprint(clients) == (
            708,
            "a464c1ff84d7c5083e276c87654bcddfd68b02e9799fbe9b60212e8c36a0398b",
        )
