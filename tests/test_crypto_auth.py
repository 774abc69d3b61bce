"""Tests for signatures, threshold signatures, hashing, and Merkle trees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import digest_of, sha256_bytes, sha256_hex
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.crypto.signatures import KeyRegistry, Signature
from repro.crypto.threshold import (
    SignatureShare,
    ThresholdError,
    ThresholdScheme,
)


class TestSignatures:
    def setup_method(self):
        self.registry = KeyRegistry(seed=11)

    def test_sign_verify(self):
        sig = self.registry.signer(3).sign("hello")
        assert self.registry.verify("hello", sig, 3)

    def test_wrong_message_rejected(self):
        sig = self.registry.signer(3).sign("hello")
        assert not self.registry.verify("goodbye", sig, 3)

    def test_wrong_signer_rejected(self):
        sig = self.registry.signer(3).sign("hello")
        assert not self.registry.verify("hello", sig, 4)

    def test_signer_id_must_match(self):
        sig = Signature(signer=4, tag=self.registry.signer(3).sign("m").tag)
        assert not self.registry.verify("m", sig, 4)

    def test_structured_messages(self):
        msg = ("tx", 5, b"payload", (1, 2))
        sig = self.registry.signer(0).sign(msg)
        assert self.registry.verify(msg, sig, 0)

    def test_registries_with_different_seeds_disagree(self):
        other = KeyRegistry(seed=12)
        sig = self.registry.signer(0).sign("m")
        assert not other.verify("m", sig, 0)

    def test_wire_size(self):
        sig = self.registry.signer(0).sign("m")
        assert sig.wire_size() == 64


class TestThreshold:
    def setup_method(self):
        self.scheme = ThresholdScheme(3, 4, seed=5)
        self.signers = [self.scheme.share_signer(i) for i in range(4)]

    def test_share_verify(self):
        share = self.signers[2].share_sign("m")
        assert self.scheme.share_verify("m", share, 2)
        assert not self.scheme.share_verify("m", share, 1)
        assert not self.scheme.share_verify("other", share, 2)

    def test_combine_requires_quorum(self):
        shares = [s.share_sign("m") for s in self.signers[:2]]
        with pytest.raises(ThresholdError):
            self.scheme.combine("m", shares)

    def test_combine_ignores_duplicates(self):
        share = self.signers[0].share_sign("m")
        with pytest.raises(ThresholdError):
            self.scheme.combine("m", [share, share, share])

    def test_combine_ignores_invalid(self):
        good = [s.share_sign("m") for s in self.signers[:2]]
        bad = SignatureShare(3, b"\x00" * 48)
        with pytest.raises(ThresholdError):
            self.scheme.combine("m", good + [bad])

    def test_full_signature_verifies(self):
        shares = [s.share_sign("m") for s in self.signers[:3]]
        full = self.scheme.combine("m", shares)
        assert self.scheme.verify_full(full, "m")
        assert not self.scheme.verify_full(full, "other")

    def test_out_of_range_pid(self):
        with pytest.raises(ValueError):
            self.scheme.share_signer(7)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ThresholdScheme(0, 4)
        with pytest.raises(ValueError):
            ThresholdScheme(5, 4)


class TestCanonicalHashing:
    def test_deterministic(self):
        assert digest_of((1, "a", b"b")) == digest_of((1, "a", b"b"))

    def test_type_tags_distinguish(self):
        assert digest_of(1) != digest_of("1")
        assert digest_of(b"1") != digest_of("1")
        assert digest_of(True) != digest_of(1)

    def test_dict_order_insensitive(self):
        assert digest_of({"a": 1, "b": 2}) == digest_of({"b": 2, "a": 1})

    def test_set_order_insensitive(self):
        assert digest_of({3, 1, 2}) == digest_of({2, 3, 1})

    def test_list_order_sensitive(self):
        assert digest_of([1, 2]) != digest_of([2, 1])

    def test_nested_structures(self):
        v = {"k": [(1, 2), {"x": b"y"}]}
        assert digest_of(v) == digest_of(v)

    def test_canonical_protocol(self):
        class Obj:
            def canonical(self):
                return (1, 2)

        assert digest_of(Obj()) == digest_of(Obj())

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            digest_of(object())

    def test_sha_helpers(self):
        assert len(sha256_bytes(b"x")) == 32
        assert len(sha256_hex(b"x")) == 64


class TestMerkle:
    def test_empty_tree_root(self):
        assert MerkleTree([]).root == MerkleTree.EMPTY_ROOT

    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        assert MerkleTree.verify(tree.root, b"only", tree.proof(0), 1)

    def test_all_proofs_verify(self):
        leaves = [f"leaf{i}".encode() for i in range(9)]
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert MerkleTree.verify(tree.root, leaf, tree.proof(i), len(leaves))

    def test_wrong_leaf_rejected(self):
        leaves = [b"a", b"b", b"c"]
        tree = MerkleTree(leaves)
        assert not MerkleTree.verify(tree.root, b"x", tree.proof(1), 3)

    def test_wrong_position_rejected(self):
        leaves = [b"a", b"b", b"c", b"d"]
        tree = MerkleTree(leaves)
        proof0 = tree.proof(0)
        assert not MerkleTree.verify(tree.root, b"b", proof0, 4)

    def test_root_changes_with_leaves(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"a", b"c"]).root
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_out_of_range_proof(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(IndexError):
            tree.proof(1)

    def test_truncated_proof_rejected(self):
        leaves = [f"{i}".encode() for i in range(8)]
        tree = MerkleTree(leaves)
        proof = tree.proof(3)
        short = MerkleProof(3, proof.siblings[:-1])
        assert not MerkleTree.verify(tree.root, b"3", short, 8)

    def test_padded_proof_rejected(self):
        leaves = [f"{i}".encode() for i in range(8)]
        tree = MerkleTree(leaves)
        proof = tree.proof(3)
        padded = MerkleProof(3, proof.siblings + (b"\x00" * 32,))
        assert not MerkleTree.verify(tree.root, b"3", padded, 8)

    @settings(max_examples=30)
    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=33))
    def test_property_membership(self, leaves):
        tree = MerkleTree(leaves)
        for i in range(len(leaves)):
            assert MerkleTree.verify(tree.root, leaves[i], tree.proof(i), len(leaves))
