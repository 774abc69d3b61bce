"""Unit tests for the Commit protocol (Algorithm 4): the validation
function, prefix computation (locked/stable/committed), wait-pending,
commit waves, and the reveal path."""

from repro.core.clocks import OrderingClock, PerceivedSequence
from repro.core.commit import NO_PENDING, CommitConfig, CommitState
from repro.core.services import ProtocolServices
from repro.core.types import AcceptedEntry, InstanceId
from repro.crypto.cost import FREE_COSTS
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.core.obfuscation import VssObfuscation
from repro.sim.engine import MILLISECONDS, Simulator
from repro.sim.rng import RngRegistry

N, F = 4, 1
LAMBDA = 5 * MILLISECONDS
DELTA = 10 * MILLISECONDS


def make_state(pid=0, sim=None, lambda_us=LAMBDA, **cfg_kwargs):
    sim = sim or Simulator()
    services = ProtocolServices(
        pid=pid,
        n=N,
        f=F,
        sim=sim,
        delta_us=DELTA,
        signer=KeyRegistry(1).signer(pid),
        registry=KeyRegistry(1),
        threshold=ThresholdScheme(2 * F + 1, N, seed=1),
        costs=FREE_COSTS,
    )
    clock = OrderingClock(sim)
    perceived = PerceivedSequence(clock)
    obf = VssObfuscation(2 * F + 1, N, seed=3)
    commits, executions = [], []
    state = CommitState(
        services,
        clock,
        perceived,
        obf,
        CommitConfig(lambda_us=lambda_us, **cfg_kwargs),
        on_commit=lambda wave: commits.append(list(wave)),
        on_execute=lambda e, p: executions.append((e, p)),
    )
    return sim, state, obf, commits, executions


def encrypt(obf, payload=b"x" * 32, seed=9):
    return obf.encrypt(payload, RngRegistry(seed).get("t"))


def advance(sim, us):
    sim.schedule(us, lambda: None)
    sim.run()


class TestValidation:
    def test_accepts_accurate_prediction(self):
        sim, state, obf, _, _ = make_state()
        advance(sim, 100_000)
        cipher = encrypt(obf)
        now = state.clock.read()
        preds = (now, now, now, now)
        assert state.validate(InstanceId(1, 0), cipher, preds)
        assert state.pending  # tracked

    def test_rejects_prediction_outside_lambda(self):
        sim, state, obf, _, _ = make_state()
        advance(sim, 100_000)
        cipher = encrypt(obf)
        now = state.clock.read()
        bad = now - LAMBDA - 10
        preds = (bad, now, now, now)  # our pid-0 slot is off by > lambda
        assert not state.validate(InstanceId(1, 0), cipher, preds)
        assert not state.pending

    def test_lambda_boundary_inclusive(self):
        sim, state, obf, _, _ = make_state()
        advance(sim, 100_000)
        cipher = encrypt(obf)
        state.perceived.observe(cipher.cipher_id)
        seq_i = state.perceived.get(cipher.cipher_id)
        preds = (seq_i + LAMBDA, seq_i, seq_i, seq_i)
        assert state.validate(InstanceId(1, 0), cipher, preds)

    def test_rejects_locally_locked_prefix(self):
        sim, state, obf, _, _ = make_state()
        advance(sim, 1_000_000)
        cipher = encrypt(obf)
        state.perceived.observe(cipher.cipher_id)
        seq_i = state.perceived.get(cipher.cipher_id)
        # All predictions accurate for us but the requested (n-f)th value
        # is older than the acceptance window L = 3Δ.
        old = seq_i - state.L - 1
        preds = (seq_i, old, old, old)
        assert not state.validate(InstanceId(1, 0), cipher, preds)

    def test_rejects_far_future_sequence(self):
        sim, state, obf, _, _ = make_state(future_bound_us=1_000_000)
        advance(sim, 100_000)
        cipher = encrypt(obf)
        state.perceived.observe(cipher.cipher_id)
        seq_i = state.perceived.get(cipher.cipher_id)
        future = seq_i + 2_000_000
        preds = (seq_i, future, future, future)
        assert not state.validate(InstanceId(1, 0), cipher, preds)

    def test_rejects_wrong_prediction_count(self):
        sim, state, obf, _, _ = make_state()
        cipher = encrypt(obf)
        assert not state.validate(InstanceId(1, 0), cipher, (1, 2))

    def test_rejects_bad_dealing(self):
        sim, state, obf, _, _ = make_state()
        advance(sim, 100_000)
        cipher = encrypt(obf)
        tampered = type(cipher)(
            cipher.cipher_id,
            cipher.body,
            cipher.commitment,
            tuple(v ^ 1 for v in cipher.sealed_shares),
        )
        now = state.clock.read()
        assert not state.validate(InstanceId(1, 0), tampered, (now,) * 4)

    def test_min_pending_tracks_lowest(self):
        sim, state, obf, _, _ = make_state()
        advance(sim, 500_000)
        now = state.clock.read()
        c1, c2 = encrypt(obf, seed=1), encrypt(obf, seed=2)
        state.validate(InstanceId(1, 0), c1, (now + 400,) * 4)
        state.validate(InstanceId(2, 0), c2, (now + 100,) * 4)
        assert state.min_pending == now + 100
        state.on_reject(InstanceId(2, 0))
        assert state.min_pending == now + 400
        state.on_reject(InstanceId(1, 0))
        assert state.min_pending == NO_PENDING


class TestPrefixes:
    def test_locked_uses_min_of_top_quorum(self):
        sim, state, obf, _, _ = make_state()
        # Reports from 4 senders: [5, 100, 200, 300]; top 2f+1 = 3 highest
        # = [300, 200, 100]; locked = 100.  The Byzantine low-ball (5) is
        # excluded by the top-(2f+1) rule.
        for pid, locked in enumerate([5, 100, 200, 300]):
            state.on_status(pid, locked, NO_PENDING, ())
        assert state.locked == 100

    def test_locked_needs_quorum_of_reports(self):
        sim, state, obf, _, _ = make_state()
        state.on_status(0, 100, NO_PENDING, ())
        state.on_status(1, 100, NO_PENDING, ())
        assert state.locked == 0  # only 2 < 2f+1 reports

    def test_stable_bounded_by_min_pending_reports(self):
        sim, state, obf, _, _ = make_state()
        for pid in range(4):
            state.on_status(pid, 1000, 50 if pid == 3 else NO_PENDING, ())
        # top 2f+1 min-pending values = [NO_PENDING, NO_PENDING, NO_PENDING]
        # so stable = locked = 1000.
        assert state.stable == 1000

    def test_stable_held_back_by_quorum_pending(self):
        sim, state, obf, _, _ = make_state()
        for pid in range(4):
            state.on_status(pid, 1000, 50, ())
        assert state.stable == 50

    def test_prefix_values_monotone(self):
        sim, state, obf, _, _ = make_state()
        for pid in range(4):
            state.on_status(pid, 1000, NO_PENDING, ())
        assert state.locked == 1000
        # Regressing reports cannot pull the prefix back.
        for pid in range(4):
            state.on_status(pid, 10, NO_PENDING, ())
        assert state.locked == 1000


class TestCommitWaves:
    def _accept(self, state, obf, iid, seq, seed):
        cipher = encrypt(obf, seed=seed)
        preds = (seq,) * N
        state.on_accept(iid, cipher, preds)
        return cipher

    def test_commit_requires_stability(self):
        sim, state, obf, commits, _ = make_state()
        self._accept(state, obf, InstanceId(1, 0), 500, 1)
        assert not commits  # nothing stable yet
        for pid in range(4):
            state.on_status(pid, 1000, NO_PENDING, ())
        assert len(commits) == 1
        assert commits[0][0].seq == 500

    def test_commit_wave_ordered_by_seq(self):
        sim, state, obf, commits, _ = make_state()
        self._accept(state, obf, InstanceId(1, 0), 700, 1)
        self._accept(state, obf, InstanceId(2, 0), 300, 2)
        self._accept(state, obf, InstanceId(3, 0), 500, 3)
        for pid in range(4):
            state.on_status(pid, 1000, NO_PENDING, ())
        seqs = [e.seq for e in commits[0]]
        assert seqs == sorted(seqs) == [300, 500, 700]

    def test_wait_pending_blocks_commit(self):
        sim, state, obf, commits, _ = make_state()
        advance(sim, 100)
        # A pending instance with requested seq 400 gates commits >= 400.
        pending_cipher = encrypt(obf, seed=5)
        now = state.clock.read()
        state.perceived.observe(pending_cipher.cipher_id)
        # Manufacture a pending entry directly (validation path covered
        # elsewhere).
        state.pending[InstanceId(9, 0)] = 400
        state.min_pending = 400
        self._accept(state, obf, InstanceId(1, 0), 300, 1)
        self._accept(state, obf, InstanceId(2, 0), 500, 2)
        for pid in range(4):
            state.on_status(pid, 1000, NO_PENDING, ())
        committed_seqs = [e.seq for wave in commits for e in wave]
        assert committed_seqs == [300]  # 500 gated by pending 400
        state.on_reject(InstanceId(9, 0))
        committed_seqs = [e.seq for wave in commits for e in wave]
        assert committed_seqs == [300, 500]

    def test_no_double_commit(self):
        sim, state, obf, commits, _ = make_state()
        cipher = self._accept(state, obf, InstanceId(1, 0), 100, 1)
        for pid in range(4):
            state.on_status(pid, 1000, NO_PENDING, ())
        state.on_accept(InstanceId(1, 0), cipher, (100,) * N)  # replay
        for pid in range(4):
            state.on_status(pid, 2000, NO_PENDING, ())
        total = sum(len(w) for w in commits)
        assert total == 1

    def test_piggyback_learns_remote_accepts(self):
        sim, state, obf, commits, _ = make_state()
        entry = AcceptedEntry(InstanceId(2, 7), b"c" * 32, 250)
        state.on_status(1, 1000, NO_PENDING, (entry,))
        for pid in (0, 2, 3):
            state.on_status(pid, 1000, NO_PENDING, ())
        assert commits and commits[0][0].instance == InstanceId(2, 7)

    def test_output_log_globally_sorted(self):
        sim, state, obf, commits, _ = make_state()
        self._accept(state, obf, InstanceId(1, 0), 100, 1)
        for pid in range(4):
            state.on_status(pid, 150, NO_PENDING, ())
        self._accept(state, obf, InstanceId(2, 0), 200, 2)
        for pid in range(4):
            state.on_status(pid, 1000, NO_PENDING, ())
        from repro.core.smr import check_output_sorted

        assert check_output_sorted(state.output_sequence()) is None


class TestReveal:
    def test_executes_after_quorum_of_shares(self):
        sim, state, obf, commits, executions = make_state()
        payload = b"reveal-me" + b"\x00" * 23
        cipher = obf.encrypt(payload, RngRegistry(4).get("r"))
        iid = InstanceId(1, 0)
        state.on_accept(iid, cipher, (100,) * N)
        for pid in range(4):
            state.on_status(pid, 1000, NO_PENDING, ())
        assert commits  # committed but not yet revealed
        assert not executions
        for pid in range(2 * F + 1):
            share = obf.partial_decrypt(cipher, pid)
            state.on_decryption_share(iid, share, pid)
        assert executions
        entry, plaintext = executions[0]
        assert plaintext == payload

    def test_in_order_execution(self):
        sim, state, obf, commits, executions = make_state()
        p1, p2 = b"one" + b"\x00" * 29, b"two" + b"\x00" * 29
        c1 = obf.encrypt(p1, RngRegistry(5).get("r"))
        c2 = obf.encrypt(p2, RngRegistry(6).get("r"))
        state.on_accept(InstanceId(1, 0), c1, (100,) * N)
        state.on_accept(InstanceId(2, 0), c2, (200,) * N)
        for pid in range(4):
            state.on_status(pid, 1000, NO_PENDING, ())
        # Reveal the SECOND entry first: execution must wait for order.
        for pid in range(2 * F + 1):
            state.on_decryption_share(
                InstanceId(2, 0), obf.partial_decrypt(c2, pid), pid
            )
        assert not executions
        for pid in range(2 * F + 1):
            state.on_decryption_share(
                InstanceId(1, 0), obf.partial_decrypt(c1, pid), pid
            )
        assert [p for _, p in executions] == [p1, p2]

    def test_decryption_shares_for_skips_missing_cipher(self):
        sim, state, obf, _, _ = make_state()
        entry = AcceptedEntry(InstanceId(3, 3), b"z" * 32, 10)
        assert state.decryption_shares_for([entry]) == []

    def test_duplicate_shares_ignored(self):
        sim, state, obf, commits, executions = make_state()
        cipher = obf.encrypt(b"d" * 32, RngRegistry(7).get("r"))
        iid = InstanceId(1, 0)
        state.on_accept(iid, cipher, (100,) * N)
        for pid in range(4):
            state.on_status(pid, 1000, NO_PENDING, ())
        share = obf.partial_decrypt(cipher, 0)
        for _ in range(5):
            state.on_decryption_share(iid, share, 0)
        assert not executions  # one signer is not a quorum
