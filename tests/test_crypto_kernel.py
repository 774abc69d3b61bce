"""Differential tests for the two crypto kernels.

The keyed-hash kernel (the comparison side's hot path): ``KeyedHash``
against ``hmac.new``, every tag and verdict of the signature layers against
an ``hmac.new`` reference, the flat-tuple ``digest_of`` fast path against a
``_feed``-only reference, the memoised HotStuff vote digest, and the
hand-wired Fino run pinned to the commit before the kernel landed (the
Pompē run built through ``Cluster`` is a ``repro.bench`` row).

The exponentiation kernel (one BOC per transaction): ``FeldmanVSS.g_pow``
against ``pow``, and every ``VssScheme`` operation against a reference that
keeps the pre-kernel ``pow`` / ``hmac.new`` lines verbatim."""

import enum
import hashlib
import hmac

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import hotstuff
from repro.core.types import InstanceId
from repro.crypto import feldman, hashing
from repro.crypto.feldman import FeldmanCommitment, FeldmanVSS
from repro.crypto.field import DEFAULT_FIELD, PrimeField
from repro.crypto.hashing import KeyedHash, digest_of
from repro.crypto.memo import MemoCache
from repro.crypto.polynomial import Polynomial
from repro.crypto.shamir import ShamirShare, reconstruct_secret
from repro.crypto.signatures import KeyRegistry, Signature
from repro.crypto.threshold import (
    SignatureShare,
    ThresholdScheme,
    ThresholdSignature,
)
from repro.crypto.vss_encryption import (
    DecryptionShare,
    VssCipher,
    VssError,
    VssScheme,
    _keystream,
    _xor,
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
        assert registry.verify(message, sig, pid) is True
        forged = Signature(pid, bytes([expect[0] ^ 1]) + expect[1:])
        assert registry.verify(message, forged, pid) is False
        assert registry.verify(message, sig, pid + 1) is False

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
class TestPinnedToParent:
    def test_fino_shape(self):
        from repro.bench.suite import digest_outputs, latency_fingerprint
        from repro.sim.engine import SECONDS
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


# ----------------------------------------------------------------------
# The exponentiation kernel: g_pow against pow
# ----------------------------------------------------------------------
def edge_exponents(p):
    return [0, 1, 255, 256, p - 1, p, p + 1, -1, -p, 1 << 300, -(1 << 300) - 7]


SMALL_FIELDS = (251, 1009, 65537)  # 8, 10 and 17 bits: 1, 2 and 3 table rows


class TestFixedBaseExponentiation:
    def test_default_group_edges_and_seeded_draws(self):
        vss = FeldmanVSS()
        p = DEFAULT_FIELD.p
        rnd = np.random.default_rng(24)
        draws = [DEFAULT_FIELD.random_element(rnd) for _ in range(300)]
        for e in edge_exponents(p) + draws:
            assert vss.g_pow(e) == pow(vss.g, e, vss.q), e

    @settings(max_examples=200, deadline=None)
    @given(e=st.integers(-(1 << 400), 1 << 400))
    def test_default_group_any_integer(self, e):
        vss = FeldmanVSS()
        assert vss.g_pow(e) == pow(vss.g, e, vss.q)

    @pytest.mark.parametrize("p", SMALL_FIELDS)
    def test_small_field_every_residue_and_the_edges(self, p):
        vss = FeldmanVSS(PrimeField(p))
        for e in list(range(p + 2)) + edge_exponents(p):
            assert vss.g_pow(e) == pow(vss.g, e, vss.q), e
        # One row per exponent byte, one entry per byte value.
        assert len(vss._g_table) == -(-p.bit_length() // feldman._WINDOW_BITS)
        assert all(len(row) == 1 << feldman._WINDOW_BITS for row in vss._g_table)

    def test_table_rows_are_the_powers_they_claim(self):
        vss = FeldmanVSS()
        vss.g_pow(1)
        assert len(vss._g_table) == 16
        for i, row in enumerate(vss._g_table):
            for d in (0, 1, 2, 128, 255):
                assert row[d] == pow(vss.g, d * 256**i, vss.q)

    def test_one_table_per_group_shared_across_instances(self):
        a, b = FeldmanVSS(), FeldmanVSS()
        assert b._g_table is None  # lazy: construction builds nothing
        a.g_pow(5)
        b.g_pow(7)
        assert a._g_table is b._g_table is feldman._fixed_base_tables[(a.g, a.q)]
        small = FeldmanVSS(PrimeField(1009))
        small.g_pow(3)
        assert small._g_table is not a._g_table
        assert feldman._fixed_base_tables[(small.g, small.q)] is small._g_table

    def test_no_table_at_import(self):
        """A fresh interpreter that imports the whole harness and builds a
        cluster has built no table: set-up pays nothing for the kernel."""
        import subprocess
        import sys

        code = (
            "from repro.crypto import feldman\n"
            "from repro.harness.config import ExperimentConfig\n"
            "from repro.harness.factory import build_cluster\n"
            "build_cluster(ExperimentConfig(n_nodes=4, seed=1), protocol='lyra')\n"
            "assert feldman._fixed_base_tables == {}, 'table built before first use'\n"
            "feldman.FeldmanVSS().g_pow(3)\n"
            "assert len(feldman._fixed_base_tables) == 1\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_small_field_dealings_verify(self):
        vss = FeldmanVSS(PrimeField(65537))
        shares, commitment = vss.deal(4242, 3, 5, np.random.default_rng(3))
        assert commitment.values == tuple(
            pow(vss.g, c, vss.q)
            for c in Polynomial.random_with_secret(
                4242, 2, np.random.default_rng(3), vss.field
            ).coefficients
        )
        assert all(vss.verify_share(s, commitment) for s in shares)
        assert not vss.verify_share(ShamirShare(1, shares[0].value + 1), commitment)

    @pytest.mark.parametrize(
        "share",
        [
            ShamirShare(1, "junk"),
            ShamirShare(1, 1.5),
            ShamirShare("a", 5),
            ShamirShare(1, None),
            ShamirShare(1, [5]),
            ShamirShare(1.0, 5),
            ShamirShare(True, 5),
        ],
    )
    def test_a_share_that_is_not_two_ints_lies_on_no_polynomial(self, share):
        vss = FeldmanVSS()
        shares, commitment = vss.deal(99, 2, 3, np.random.default_rng(8))
        before = feldman.verify_cache_stats()
        assert vss.verify_share(share, commitment) is False
        assert feldman.verify_cache_stats() == before  # never reaches the memo

    def test_a_float_equal_to_a_cached_share_does_not_alias_it(self):
        """``5.0 == 5`` and they hash alike: the type check has to come
        before the memo lookup, or a verified share vouches for a float."""
        vss = FeldmanVSS()
        shares, commitment = vss.deal(99, 2, 3, np.random.default_rng(9))
        share = shares[0]
        assert vss.verify_share(share, commitment) is True
        alias = ShamirShare(float(share.index), share.value)
        assert vss.verify_share(alias, commitment) is False


# ----------------------------------------------------------------------
# VssScheme against the pre-kernel code (the method bodies below are the
# parent commit's, verbatim, with a private memo in place of the global).
# ----------------------------------------------------------------------
class ReferenceFeldman(FeldmanVSS):
    def __init__(self, field=DEFAULT_FIELD):
        super().__init__(field)
        self.cache = MemoCache(capacity=1 << 16)

    def deal(self, secret, threshold, n_shares, rng):
        if threshold < 1 or n_shares < threshold:
            raise ValueError("invalid (threshold, n_shares)")
        poly = Polynomial.random_with_secret(secret, threshold - 1, rng, self.field)
        shares = [ShamirShare(i, poly.evaluate(i)) for i in range(1, n_shares + 1)]
        commitment = FeldmanCommitment(
            tuple(pow(self.g, c, self.q) for c in poly.coefficients)
        )
        return shares, commitment

    def verify_share(self, share, commitment):
        key = (self.q, commitment.values, share.index, share.value)
        verdict = self.cache.get(key)
        if verdict is not None:
            return verdict
        lhs = pow(self.g, share.value, self.q)
        q = self.q
        i = share.index
        rhs = 1
        for c in reversed(commitment.values):
            rhs = (pow(rhs, i, q) * c) % q
        return self.cache.put(key, lhs == rhs)

    def g_pow(self, e):  # pragma: no cover - the reference never calls it
        raise AssertionError("reference reached the kernel")


class ReferenceVssScheme(VssScheme):
    def __init__(self, threshold, n, *, seed=0):
        super().__init__(threshold, n, seed=seed)
        self.feldman = ReferenceFeldman(self.field)
        self._seal_keys = {}

    def _seal_key(self, pid):
        key = self._seal_keys.get(pid)
        if key is None:
            key = hmac.new(self._seal_root, b"pid:%d" % pid, hashlib.sha256).digest()
            self._seal_keys[pid] = key
        return key

    def _seal_pad(self, pid, cipher_id):
        raw = hmac.new(self._seal_key(pid), cipher_id, hashlib.sha256).digest()
        return int.from_bytes(raw[:16], "big") & ((1 << 127) - 1)

    def decrypt(self, cipher, dshares):
        valid = []
        for dshare in dshares:
            if self.verify_decryption_share(cipher, dshare):
                valid.append(dshare.share)
        if len({s.index for s in valid}) < self.threshold:
            raise VssError(
                f"need {self.threshold} valid decryption shares, "
                f"got {len({s.index for s in valid})}"
            )
        cached = self._plain_cache.get(cipher.cipher_id)
        if cached is not None:
            return cached
        key = reconstruct_secret(valid, self.threshold, self.field)
        if self.feldman.commitment_to_secret(cipher.commitment) != pow(
            self.feldman.g, key, self.feldman.q
        ):
            raise VssError("reconstructed key does not match the commitment")
        plaintext = _xor(cipher.body, _keystream(key, len(cipher.body)))
        self._plain_cache.put(cipher.cipher_id, plaintext)
        return plaintext


def _outcome(fn, *args):
    """A call's result, or the ``VssError`` it raised (message included)."""
    try:
        return fn(*args)
    except VssError as exc:
        return ("VssError", str(exc))


def _counters(stats):
    return {k: stats[k] for k in ("hits", "misses", "evictions", "size", "peak")}


class TestVssSchemeMatchesThePreKernelCode:
    @pytest.mark.parametrize("threshold,n", [(3, 4), (5, 7), (21, 32)])
    def test_every_operation(self, threshold, n):
        new = VssScheme(threshold, n, seed=11)
        ref = ReferenceVssScheme(threshold, n, seed=11)
        feldman._verify_cache.clear()  # the reference's memo starts empty too
        new_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)

        def both(method, *args):
            got = _outcome(getattr(new, method), *args)
            want = _outcome(getattr(ref, method), *args)
            assert got == want, (method, args)
            return got

        for round_no in range(4):
            plaintext = bytes((round_no * 37 + i) % 256 for i in range(32 * (round_no + 1)))
            cipher = new.encrypt(plaintext, new_rng)
            want = ref.encrypt(plaintext, ref_rng)
            # Frozen dataclasses: id, body, commitment and sealed shares.
            assert cipher == want
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state

            for pid in (-1, *range(n), n):
                both("check_dealing", cipher, pid)
            dshares = [both("partial_decrypt", cipher, pid) for pid in range(n)]
            assert both("partial_decrypt", cipher, n)[0] == "VssError"
            for dshare in dshares:
                assert both("verify_decryption_share", cipher, dshare) is True

            tampered = DecryptionShare(
                cipher.cipher_id, ShamirShare(1, dshares[0].share.value ^ 1)
            )
            foreign = DecryptionShare(b"\0" * 32, dshares[0].share)
            assert both("verify_decryption_share", cipher, tampered) is False
            assert both("verify_decryption_share", cipher, foreign) is False

            # A bad dealer: pid 0's sealed share is off the polynomial.
            bad = VssCipher(
                cipher.cipher_id,
                cipher.body,
                cipher.commitment,
                (cipher.sealed_shares[0] ^ 1,) + cipher.sealed_shares[1:],
            )
            assert both("check_dealing", bad, 0) is False
            assert both("partial_decrypt", bad, 0)[0] == "VssError"

            # Too few, too few distinct, a quorum padded with junk, a
            # quorum, everything; then again (the interned plaintext).
            assert both("decrypt", cipher, dshares[: threshold - 1])[0] == "VssError"
            assert both("decrypt", cipher, [dshares[0]] * threshold)[0] == "VssError"
            padded = [tampered, foreign] + dshares[1:threshold]
            assert both("decrypt", cipher, padded)[0] == "VssError"
            assert both("decrypt", cipher, padded + [dshares[threshold]]) == plaintext
            assert both("decrypt", cipher, dshares) == plaintext
            assert both("decrypt", cipher, dshares[-threshold:]) == plaintext

            assert _counters(feldman.verify_cache_stats()) == _counters(
                ref.feldman.cache.stats()
            )
            assert new.decrypt_cache_stats() == ref.decrypt_cache_stats()

        stats = feldman.verify_cache_stats()
        assert stats["misses"] and stats["hits"] > stats["misses"]
        assert new.decrypt_cache_stats()["hits"] == 8  # two per round

    def test_a_commitment_that_does_not_match_the_key(self):
        """Shares consistent with each other but a ``C_0`` for a different
        key: every share fails Feldman, so decryption reports no quorum —
        on both sides, with the same message."""
        new, ref = VssScheme(3, 4, seed=2), ReferenceVssScheme(3, 4, seed=2)
        cipher = new.encrypt(b"x" * 32, np.random.default_rng(1))
        values = cipher.commitment.values
        forged = VssCipher(
            cipher.cipher_id,
            cipher.body,
            FeldmanCommitment((values[0] * new.feldman.g % new.feldman.q,) + values[1:]),
            cipher.sealed_shares,
        )
        dshares = [new.partial_decrypt(cipher, pid) for pid in range(4)]
        got = _outcome(new.decrypt, forged, dshares)
        assert got == _outcome(ref.decrypt, forged, dshares)
        assert got[0] == "VssError"
