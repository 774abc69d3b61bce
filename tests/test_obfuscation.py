"""Tests for the two commit-reveal obfuscation schemes behind one
interface: full VSS (§II-B) and the prototype's hash commitments (§VI-A)."""

import pytest

from repro.core.obfuscation import (
    HashCommitObfuscation,
    HashRevealShare,
    VssObfuscation,
    make_obfuscation,
)
from repro.crypto.vss_encryption import VssError
from repro.sim.rng import RngRegistry

RNG = RngRegistry(77)


class TestFactory:
    def test_schemes_by_name(self):
        assert isinstance(make_obfuscation("vss", 3, 4), VssObfuscation)
        assert isinstance(make_obfuscation("hash", 3, 4), HashCommitObfuscation)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_obfuscation("rot13", 3, 4)


class TestVssScheme:
    def setup_method(self):
        self.obf = make_obfuscation("vss", 3, 4, seed=5)

    def test_quorum_threshold(self):
        assert self.obf.threshold == 3

    def test_any_quorum_reveals_without_proposer(self):
        cipher = self.obf.encrypt(b"p" * 32, RNG.get("v1"), proposer=0)
        # pids 1..3 (NOT the proposer) can reveal: no proposer trust.
        shares = [self.obf.partial_decrypt(cipher, i) for i in (1, 2, 3)]
        assert self.obf.decrypt(cipher, shares) == b"p" * 32


class TestHashScheme:
    def setup_method(self):
        self.obf = make_obfuscation("hash", 3, 4, seed=5)

    def test_threshold_is_one(self):
        assert self.obf.threshold == 1

    def test_only_proposer_can_open(self):
        cipher = self.obf.encrypt(b"h" * 32, RNG.get("h1"), proposer=2)
        with pytest.raises(VssError):
            self.obf.partial_decrypt(cipher, 0)
        share = self.obf.partial_decrypt(cipher, 2)
        assert self.obf.decrypt(cipher, [share]) == b"h" * 32

    def test_reveal_verifies_against_commitment(self):
        c1 = self.obf.encrypt(b"one!" * 8, RNG.get("h2"), proposer=1)
        c2 = self.obf.encrypt(b"two!" * 8, RNG.get("h3"), proposer=1)
        share1 = self.obf.partial_decrypt(c1, 1)
        assert self.obf.verify_decryption_share(c1, share1)
        assert not self.obf.verify_decryption_share(c2, share1)

    def test_forged_key_rejected(self):
        cipher = self.obf.encrypt(b"x" * 32, RNG.get("h4"), proposer=1)
        forged = HashRevealShare(cipher.cipher_id, b"\x00" * 32, b"\x00" * 32)
        assert not self.obf.verify_decryption_share(cipher, forged)
        with pytest.raises(VssError):
            self.obf.decrypt(cipher, [forged])

    def test_body_hides_plaintext(self):
        msg = b"market order: BUY 100000"
        cipher = self.obf.encrypt(msg, RNG.get("h5"), proposer=0)
        assert msg not in cipher.body

    def test_check_dealing_permissive(self):
        cipher = self.obf.encrypt(b"d" * 32, RNG.get("h6"), proposer=0)
        assert all(self.obf.check_dealing(cipher, pid) for pid in range(4))

    def test_cipher_smaller_than_vss(self):
        vss = make_obfuscation("vss", 3, 4, seed=5)
        payload = b"z" * 320
        hash_cipher = self.obf.encrypt(payload, RNG.get("h7"), proposer=0)
        vss_cipher = vss.encrypt(payload, RNG.get("h8"), proposer=0)
        assert hash_cipher.wire_size() < vss_cipher.wire_size()
