"""Tests for the §VI-D mitigations: per-proposer rate limiting (fair
network allocation against flooding) and committed-prefix Merkle audits
(the §V-C hash-tree summaries)."""

from repro.core.types import InstanceId
from repro.crypto.merkle import MerkleTree

from tests.test_commit_protocol import advance, encrypt, make_state


class TestRateLimiting:
    def _limited_state(self, rate=2.0):
        return make_state(max_proposer_rate_per_s=rate)

    def test_burst_beyond_rate_rejected(self):
        sim, state, obf, _, _ = self._limited_state(rate=2.0)
        advance(sim, 100_000)
        now = state.clock.read()
        accepted = 0
        for i in range(10):
            cipher = encrypt(obf, seed=100 + i)
            if state.validate(InstanceId(3, i), cipher, (now,) * 4):
                accepted += 1
        # Initial bucket holds a burst of 2 tokens; the rest are refused.
        assert accepted <= 3
        assert state.rate_limited_count >= 7

    def test_rate_respecting_proposer_unaffected(self):
        sim, state, obf, _, _ = self._limited_state(rate=5.0)
        accepted = 0
        for i in range(5):
            advance(sim, 500_000)  # 2/s < limit
            now = state.clock.read()
            cipher = encrypt(obf, seed=200 + i)
            if state.validate(InstanceId(3, i), cipher, (now,) * 4):
                accepted += 1
        assert accepted == 5
        assert state.rate_limited_count == 0

    def test_limit_is_per_proposer(self):
        sim, state, obf, _, _ = self._limited_state(rate=1.0)
        advance(sim, 100_000)
        now = state.clock.read()
        # Proposer 3 exhausts its bucket; proposer 2 is unaffected.
        for i in range(5):
            state.validate(InstanceId(3, i), encrypt(obf, seed=300 + i), (now,) * 4)
        assert state.validate(
            InstanceId(2, 0), encrypt(obf, seed=400), (now,) * 4
        )

    def test_disabled_by_default(self):
        sim, state, obf, _, _ = make_state()
        advance(sim, 100_000)
        now = state.clock.read()
        for i in range(20):
            assert state.validate(
                InstanceId(3, i), encrypt(obf, seed=500 + i), (now,) * 4
            )
        assert state.rate_limited_count == 0


class TestPrefixAudit:
    def _committed_state(self, count=4):
        sim, state, obf, commits, _ = make_state()
        for i in range(count):
            cipher = encrypt(obf, seed=600 + i)
            state.on_accept(InstanceId(1, i), cipher, (100 * (i + 1),) * 4)
        for pid in range(4):
            state.on_status(pid, 10_000, 1 << 62, ())
        assert len(state.output_log) == count
        return state

    def test_root_summarises_prefix(self):
        state = self._committed_state()
        root = state.committed_prefix_root()
        assert len(root) == 32
        assert root != MerkleTree([]).root

    def test_membership_proof_verifies(self):
        state = self._committed_state()
        result = state.committed_prefix_proof(InstanceId(1, 2))
        assert result is not None
        root, leaf, proof, count = result
        assert MerkleTree.verify(root, leaf, proof, count)

    def test_uncommitted_instance_has_no_proof(self):
        state = self._committed_state()
        assert state.committed_prefix_proof(InstanceId(9, 9)) is None

    def test_roots_agree_for_equal_prefixes(self):
        a = self._committed_state()
        b = self._committed_state()
        assert a.committed_prefix_root() == b.committed_prefix_root()

    def test_root_changes_with_prefix(self):
        a = self._committed_state(count=3)
        b = self._committed_state(count=4)
        assert a.committed_prefix_root() != b.committed_prefix_root()
