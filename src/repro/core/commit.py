"""The Commit protocol — Algorithm 4 of the paper.

BOC instances decide *accept/reject* per transaction, but partial synchrony
means a process can accept a transaction whose sequence number is lower
than transactions it already holds.  The Commit protocol turns the stream
of accepted transactions into a totally ordered, prefix-stable output:

- every process piggybacks on its broadcasts (line 74):
  * ``seq_i - L`` — its locally locked prefix (acceptance window; ``L = 3Δ``
    is the maximum good-case duration of a BOC instance),
  * ``min-pending`` — the lowest requested sequence number among
    transactions it has validated but whose instances are still running,
  * ``A`` — its accepted set (piggybacked incrementally; a Merkle root
    stands in for older prefixes, §V-C);
- from the 2f+1 *highest* received values (so Byzantine low-balling cannot
  stall progress, see the remark after Lemma 5) each process derives
  ``locked`` (Lemma 4), ``stable`` (Lemma 5) and ``committed`` (Lemma 6)
  prefix bounds;
- transactions in a committed prefix are output in sequence-number order,
  and a VSS decryption share is broadcast for each (commit-reveal,
  Lemma 7): payloads become readable only after the order is immutable.

The validation function (lines 62-69) — Equation 1 plus the acceptance
window — also lives here because it owns the pending set ``P``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.clocks import OrderingClock, PerceivedSequence
from repro.core.distance import requested_sequence
from repro.core.services import ProtocolServices
from repro.core.types import AcceptedEntry, InstanceId
from repro.crypto.vss_encryption import DecryptionShare, VssError, VssScheme

#: Sentinel for "no pending transaction" (min over the empty set).
NO_PENDING = 1 << 62

STATUS_KIND = "lyra.status"
DSHARE_KIND = "lyra.dshare"


class StatusReport(NamedTuple):
    """The Algorithm-4 report piggybacked on a broadcast (line 74): the
    sender's locked prefix ``seq_i - L``, its min-pending bound, and its
    live accepted set.  The receiver unpacks it in one step; a forging
    node rewrites fields with ``_replace``."""

    locked: int
    minp: int
    acc: Tuple[AcceptedEntry, ...]


@dataclass
class CommitConfig:
    """Tunables of the validation function and commit protocol."""

    #: Security parameter λ of Equation 1, in µs (§VI-B: 5 ms on AWS).
    lambda_us: int = 5_000
    #: Reject sequence numbers more than this far in the future — the
    #: §VI-D mitigation against memory-saturation attacks.  ``None`` = off.
    future_bound_us: Optional[int] = 30_000_000
    #: Verify the VSS dealing before validating (detects bad dealers early).
    check_dealing: bool = True
    #: §VI-D flooding mitigation ("allocate network resources fairly
    #: between processes"): refuse to validate more than this many
    #: instances per proposer per second.  ``None`` = off.
    max_proposer_rate_per_s: Optional[float] = None
    #: Report quorum k for the min-of-top-k locked/min-pending selection
    #: (Algorithm 4 lines 83-85).  ``None`` = the safe 2f+1, for which
    #: Lemmas 4-6 hold: at least f+1 of the top 2f+1 reports are honest,
    #: so f forged reports can never push the derived bounds past every
    #: honest one.  Any smaller value is a *deliberately weakened*
    #: validation knob used by the attack corpus to prove the invariant
    #: oracle catches the resulting ordering corruption — never set it in
    #: a real experiment.
    report_quorum: Optional[int] = None


class CommitState:
    """Algorithm 4 at one process.

    Callbacks:

    - ``on_commit(entries)`` — a new wave of entries entered the committed
      prefix, in output order.  The host broadcasts decryption shares.
    - ``on_execute(entry, plaintext)`` — an output-log entry has been
      decrypted *and* every earlier entry already executed.
    """

    def __init__(
        self,
        services: ProtocolServices,
        clock: OrderingClock,
        perceived: PerceivedSequence,
        vss: VssScheme,
        config: Optional[CommitConfig] = None,
        *,
        on_commit: Optional[Callable[[List[AcceptedEntry]], None]] = None,
        on_execute: Optional[Callable[[AcceptedEntry, bytes], None]] = None,
    ) -> None:
        self.services = services
        self.clock = clock
        self.perceived = perceived
        self.vss = vss
        self.config = config or CommitConfig()
        #: Maximum BOC latency L, the acceptance window: 3Δ (line 52).
        self.L = 3 * services.delta_us
        self._quorum_k = (
            self.config.report_quorum
            if self.config.report_quorum is not None
            else 2 * services.f + 1
        )
        if self._quorum_k < 1:
            raise ValueError("report_quorum must be >= 1")
        self.on_commit = on_commit
        self.on_execute = on_execute

        # Algorithm 4 state (lines 52-61).
        self.pending: Dict[InstanceId, int] = {}
        self.min_pending: int = NO_PENDING
        self.accepted: Dict[InstanceId, AcceptedEntry] = {}  # live (uncommitted) A
        self._accepted_ever: Set[InstanceId] = set()
        self.locked_reports: Dict[int, int] = {}  # R
        self.pending_reports: Dict[int, int] = {}  # S
        # Ascending sorted mirrors of the report values: selecting the
        # min-of-top-2f+1 becomes an O(log n) bisect update plus one index
        # instead of copying and sorting both dicts on every status message.
        self._locked_sorted: List[int] = []
        self._pending_sorted: List[int] = []
        self.locked: int = 0
        self.stable: int = 0
        self.committed: int = 0
        self.committed_ids: Set[InstanceId] = set()  # C
        # Dirty flags gating the committed-prefix rescan and try-commit:
        # both are pure functions of (stable, accepted, pending, committed),
        # so they only need to re-run after an input they read has changed.
        self._accepted_dirty = False
        self._commit_dirty = False

        # Sender-side memo of the ``acc`` tuple and its summed wire size:
        # the accepted set mutates far less often than the node
        # broadcasts, so consecutive piggybacks share one tuple object.
        # ``_acc_version`` counts mutations of the live accepted set and
        # keys the memo.
        self._acc_version = 0
        self._acc_cache: Tuple[AcceptedEntry, ...] = ()
        self._acc_size = 0
        self._acc_key: Optional[int] = None
        # Receiver-side twin: the exact accepted tuple last scanned per
        # sender.  Re-scanning the same object is a guaranteed no-op
        # (``_accepted_ever``/``committed_ids`` only grow between
        # restores), so identity lets us skip the loop entirely.
        self._seen_acc: Dict[int, Sequence[AcceptedEntry]] = {}

        # Commit-reveal machinery.
        self.ciphers: Dict[InstanceId, Any] = {}
        self._dshares: Dict[bytes, Dict[int, DecryptionShare]] = {}
        self._plaintexts: Dict[InstanceId, bytes] = {}

        # SMR output: the totally ordered committed log, and the execution
        # pointer enforcing in-order execution as decryptions complete.
        self.output_log: List[AcceptedEntry] = []
        self._executed_upto: int = 0

        # Crash recovery: while catching up from peers the commit rule is
        # suspended so gap-filling adoptions cannot interleave with new
        # out-of-order local commits.
        self.catching_up = False

        # Statistics for experiments.
        self.rejected_count = 0
        self.accepted_count = 0
        self.rate_limited_count = 0
        # Equation-1 failures: the broadcaster's prediction for our clock
        # missed by more than λ.  This is the precise downstream symptom
        # of distance-estimator error, scraped by the distance-error
        # ablation and the metrics registry.
        self.lambda_rejects = 0
        self.validations = 0
        # Reports refused for their shape (not a StatusReport, a bound that
        # is not an int, a junk accepted entry): Byzantine traffic, counted.
        self.malformed_reports = 0
        # Flooding mitigation: token bucket per proposer (tokens = spare
        # validation budget, refilled at max_proposer_rate_per_s).
        self._rate_tokens: Dict[int, float] = {}
        self._rate_last_us: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Validation function (lines 62-69)
    # ------------------------------------------------------------------
    def _rate_limit_ok(self, proposer: int) -> bool:
        """Token-bucket fairness check (§VI-D flooding mitigation)."""
        rate = self.config.max_proposer_rate_per_s
        if rate is None:
            return True
        now = self.services.sim.now
        last = self._rate_last_us.get(proposer, now)
        tokens = self._rate_tokens.get(proposer, 2.0)  # small initial burst
        tokens = min(2.0 * rate, tokens + (now - last) * rate / 1_000_000.0)
        self._rate_last_us[proposer] = now
        if tokens < 1.0:
            self._rate_tokens[proposer] = tokens
            self.rate_limited_count += 1
            return False
        self._rate_tokens[proposer] = tokens - 1.0
        return True

    def validate(self, iid: InstanceId, cipher: Any, preds: Tuple[int, ...]) -> bool:
        if len(preds) != self.services.n:
            return False
        # ``s`` below becomes a min-pending bound this process reports, and
        # peers refuse reports whose bounds are not ints.
        for pred in preds:
            if type(pred) is not int:
                return False
        if not self._rate_limit_ok(iid.proposer):
            return False
        s = requested_sequence(preds, self.services.f)
        seq_i = self.perceived.observe(cipher.cipher_id)
        self.validations += 1
        # Equation 1: the broadcaster predicted our clock within λ.
        if abs(seq_i - preds[self.services.pid]) > self.config.lambda_us:
            self.lambda_rejects += 1
            return False
        # Acceptance window: the prefix of s is not locally locked.
        if s <= seq_i - self.L:
            return False
        # §VI-D mitigation: refuse sequence numbers in the distant future.
        if (
            self.config.future_bound_us is not None
            and s > seq_i + self.config.future_bound_us
        ):
            return False
        if self.config.check_dealing and not self.vss.check_dealing(
            cipher, self.services.pid
        ):
            return False
        # Track as pending (line 65-66).
        self.pending[iid] = s
        if s < self.min_pending:
            self.min_pending = s
        return True

    def _recompute_min_pending(self) -> None:
        self.min_pending = min(self.pending.values()) if self.pending else NO_PENDING

    # ------------------------------------------------------------------
    # BOC outcomes (lines 70-73)
    # ------------------------------------------------------------------
    def on_accept(self, iid: InstanceId, cipher: Any, preds: Tuple[int, ...]) -> None:
        """The BOC instance for ``iid`` decided 1."""
        first_cipher = iid not in self.ciphers
        self.ciphers[iid] = cipher
        if self.pending.pop(iid, None) is not None:
            self._recompute_min_pending()
            self._commit_dirty = True
        if iid in self._accepted_ever or iid in self.committed_ids:
            # Already learned through a piggyback; we may still have been
            # missing the cipher for the reveal phase.
            if first_cipher:
                self._maybe_reveal(iid)
            self._try_commit()
            return
        s = requested_sequence(preds, self.services.f)
        entry = AcceptedEntry(iid, cipher.cipher_id, s)
        self._accepted_ever.add(iid)
        self.accepted[iid] = entry
        self._acc_version += 1
        self.accepted_count += 1
        self._accepted_dirty = True
        self._commit_dirty = True
        self._recompute_prefixes()

    def on_reject(self, iid: InstanceId) -> None:
        """The BOC instance for ``iid`` decided 0."""
        self.rejected_count += 1
        if self.pending.pop(iid, None) is not None:
            self._recompute_min_pending()
            self._commit_dirty = True
        self._try_commit()

    def learn_cipher(self, iid: InstanceId, cipher: Any) -> None:
        """A cipher recovered after the fact (fetch path / piggyback)."""
        if iid not in self.ciphers:
            self.ciphers[iid] = cipher
            self._maybe_reveal(iid)

    # ------------------------------------------------------------------
    # Piggybacking (lines 74-78)
    # ------------------------------------------------------------------
    def _acc_tuple(self) -> Tuple[AcceptedEntry, ...]:
        """``tuple(self.accepted.values())``, memoised until the set mutates."""
        if self._acc_key != self._acc_version:
            self._acc_cache = tuple(self.accepted.values())
            self._acc_size = sum(e.wire_size() for e in self._acc_cache)
            self._acc_key = self._acc_version
        return self._acc_cache

    def piggyback(self) -> StatusReport:
        """The report attached to every broadcast."""
        return StatusReport(
            self.clock.read() - self.L, self.min_pending, self._acc_tuple()
        )

    def piggyback_size(self) -> int:
        # locked + minp + Merkle root standing in for older prefixes +
        # the incremental accepted entries.
        self._acc_tuple()
        return 8 + 8 + 32 + self._acc_size

    # ------------------------------------------------------------------
    # Receiving piggybacked state (lines 79-88)
    # ------------------------------------------------------------------
    def on_status(
        self,
        sender: int,
        locked_j: int,
        min_j: int,
        accepted_j: Sequence[AcceptedEntry],
    ) -> None:
        # Fused report-update + prefix-recompute: the locked/stable bounds
        # are pure functions of the sorted report mirrors (and each other),
        # so they only need re-evaluating for the mirror a report actually
        # moved — this handler runs once per delivered broadcast, making it
        # the single hottest protocol function in a run.
        if type(locked_j) is not int or type(min_j) is not int:
            # Nothing below has run: a malformed report moves no mirror.
            self.malformed_reports += 1
            return
        changed = False
        reports = self.locked_reports
        old = reports.get(sender)
        if old != locked_j:
            ls = self._locked_sorted
            if old is not None:
                del ls[bisect_left(ls, old)]
            insort(ls, locked_j)
            reports[sender] = locked_j
            k = self._quorum_k
            if len(ls) >= k:
                locked = ls[-k]
                if locked > self.locked:
                    self.locked = locked
                    changed = True
        reports = self.pending_reports
        old = reports.get(sender)
        if old != min_j:
            ps = self._pending_sorted
            if old is not None:
                del ps[bisect_left(ps, old)]
            insort(ps, min_j)
            reports[sender] = min_j
            changed = True
        if accepted_j and self._seen_acc.get(sender) is not accepted_j:
            self._seen_acc[sender] = accepted_j
            accepted_ever = self._accepted_ever
            committed_ids = self.committed_ids
            try:
                for entry in accepted_j:
                    iid = entry.instance
                    if iid not in accepted_ever and iid not in committed_ids:
                        # Adoption is rare (once per instance), so the
                        # entry's shape is checked here, not per scan step.
                        if not _well_formed(entry):
                            self.malformed_reports += 1
                            break
                        accepted_ever.add(iid)
                        self.accepted[iid] = entry
                        self._acc_version += 1
                        self._accepted_dirty = True
                        self._commit_dirty = True
            except (AttributeError, TypeError):
                # Not a sequence of entries: the scan stops at the junk.
                self.malformed_reports += 1
        if changed or self._accepted_dirty:
            self._update_prefixes()
        elif self._commit_dirty:
            self._try_commit()

    @staticmethod
    def _min_of_top(values: List[int], k: int) -> Optional[int]:
        """``min`` of the ``k`` highest values, or None if fewer than k."""
        if len(values) < k:
            return None
        return sorted(values, reverse=True)[k - 1]

    def _recompute_prefixes(self) -> None:
        k = self._quorum_k
        # min of the k highest reports == k-th element from the top of the
        # ascending mirror; equivalent to _min_of_top over the dict values.
        ls = self._locked_sorted
        if len(ls) >= k:
            locked = ls[-k]
            if locked > self.locked:
                self.locked = locked
        self._update_prefixes()

    def _update_prefixes(self) -> None:
        """Re-derive stable/committed from the current locked bound and
        pending mirror, then run try-commit.  Callers must have already
        refreshed ``self.locked`` (or know it is current)."""
        k = self._quorum_k
        ps = self._pending_sorted
        if len(ps) >= k:
            pend = ps[-k]
            stable = self.locked if pend > self.locked else pend
            if stable > self.stable:
                self.stable = stable
                self._accepted_dirty = True
        # committed = max accepted sequence ≤ stable (line 87); monotone.
        # Pure in (stable, accepted): rescan only after either changed.
        if self._accepted_dirty:
            self._accepted_dirty = False
            best = self.committed
            stable_bound = self.stable
            for entry in self.accepted.values():
                seq = entry.seq
                if seq <= stable_bound and seq > best:
                    best = seq
            if best > self.committed:
                self.committed = best
                self._commit_dirty = True
        if self._commit_dirty:
            self._try_commit()

    # ------------------------------------------------------------------
    # try-commit (lines 89-95)
    # ------------------------------------------------------------------
    def _try_commit(self) -> None:
        if self.catching_up:
            # Suspended during recovery: adopting peers' log entries and
            # committing new ones concurrently could append out of order.
            # The dirty flag survives so end_catchup re-evaluates.
            return
        if not self._commit_dirty:
            # No input (accepted, committed, pending) changed since the
            # last evaluation, so the wave below would be empty again.
            return
        self._commit_dirty = False
        # wait-pending: never commit past a still-running local instance
        # whose requested sequence number is in the committed prefix.
        bound = self.committed
        if self.pending:
            bound = min(bound, min(self.pending.values()) - 1)
        wave = [
            entry
            for entry in self.accepted.values()
            if entry.seq <= bound
        ]
        if not wave:
            return
        wave.sort(key=AcceptedEntry.order_key)
        for entry in wave:
            del self.accepted[entry.instance]
            self.committed_ids.add(entry.instance)
            self.output_log.append(entry)
        self._acc_version += 1
        if self.on_commit is not None:
            self.on_commit(wave)
        for entry in wave:
            self._maybe_reveal(entry.instance)

    # ------------------------------------------------------------------
    # Commit-reveal (lines 93-95 + Lemma 7)
    # ------------------------------------------------------------------
    def decryption_shares_for(
        self, entries: Sequence[AcceptedEntry]
    ) -> List[Tuple[InstanceId, DecryptionShare]]:
        """Produce our decryption share for each committed cipher we hold."""
        out = []
        for entry in entries:
            cipher = self.ciphers.get(entry.instance)
            if cipher is None:
                continue
            try:
                share = self.vss.partial_decrypt(cipher, self.services.pid)
            except VssError:
                continue  # bad dealer: our share is unusable
            out.append((entry.instance, share))
        return out

    def on_decryption_share(
        self, iid: InstanceId, share: DecryptionShare, sender: int
    ) -> None:
        if iid in self._plaintexts:
            return
        bucket = self._dshares.setdefault(share.cipher_id, {})
        if sender in bucket:
            return
        bucket[sender] = share
        self._maybe_reveal(iid)

    def _maybe_reveal(self, iid: InstanceId) -> None:
        if iid in self._plaintexts or iid not in self.committed_ids:
            return
        cipher = self.ciphers.get(iid)
        if cipher is None:
            return
        bucket = self._dshares.get(cipher.cipher_id)
        if bucket is None or len(bucket) < self.vss.threshold:
            return
        try:
            plaintext = self.vss.decrypt(cipher, list(bucket.values()))
        except VssError:
            return  # wait for more (valid) shares
        self._plaintexts[iid] = plaintext
        self._drain_executions()

    def _drain_executions(self) -> None:
        """Execute output-log entries in order as plaintexts arrive."""
        while self._executed_upto < len(self.output_log):
            entry = self.output_log[self._executed_upto]
            plaintext = self._plaintexts.get(entry.instance)
            if plaintext is None:
                return
            self._executed_upto += 1
            if self.on_execute is not None:
                self.on_execute(entry, plaintext)

    # ------------------------------------------------------------------
    @property
    def executed_count(self) -> int:
        return self._executed_upto

    def output_sequence(self) -> List[Tuple[int, bytes]]:
        """The committed log as ``(seq, cipher_id)`` pairs (for checkers)."""
        return [(e.seq, e.cipher_id) for e in self.output_log]

    # ------------------------------------------------------------------
    # Crash recovery: snapshot / restore / catch-up (state transfer)
    # ------------------------------------------------------------------
    def snapshot(self) -> "CommitSnapshot":
        """The durable slice of this state: the committed log and its
        reveal material.  Everything else (pending instances, peer
        reports, the accepted set) is volatile and lost in a crash."""
        committed = self.committed_ids
        return CommitSnapshot(
            output_log=tuple(self.output_log),
            committed=self.committed,
            executed_upto=self._executed_upto,
            ciphers={i: c for i, c in self.ciphers.items() if i in committed},
            plaintexts={i: p for i, p in self._plaintexts.items() if i in committed},
        )

    def restore(self, snap: "CommitSnapshot") -> None:
        """Reset to the durable snapshot, wiping all volatile state."""
        self.pending.clear()
        self.min_pending = NO_PENDING
        self.accepted.clear()
        self.locked_reports.clear()
        self.pending_reports.clear()
        self._locked_sorted.clear()
        self._pending_sorted.clear()
        self._accepted_dirty = True
        self._commit_dirty = True
        self.locked = 0
        self.stable = 0
        self._dshares.clear()
        self._rate_tokens.clear()
        self._rate_last_us.clear()
        self.output_log = list(snap.output_log)
        self.committed = snap.committed
        self._executed_upto = snap.executed_upto
        self.ciphers = dict(snap.ciphers)
        self._plaintexts = dict(snap.plaintexts)
        self.committed_ids = {e.instance for e in self.output_log}
        self._accepted_ever = set(self.committed_ids)
        # ``accepted`` changed and ``_accepted_ever`` shrank: drop both
        # piggyback memos.
        self._acc_version += 1
        self._seen_acc.clear()

    def begin_catchup(self) -> None:
        self.catching_up = True

    def end_catchup(self) -> None:
        self.catching_up = False
        self._try_commit()
        self._drain_executions()

    def adopt_entry(
        self,
        entry: AcceptedEntry,
        cipher: Any = None,
        plaintext: Optional[bytes] = None,
    ) -> bool:
        """Append a peer-supplied committed-log entry during catch-up.

        The caller is responsible for ordering (entries must arrive in log
        order) and for quorum-validating the entry first.  Returns False
        when the instance is already in our committed prefix.
        """
        if entry.instance in self.committed_ids:
            return False
        self.committed_ids.add(entry.instance)
        self._accepted_ever.add(entry.instance)
        if self.accepted.pop(entry.instance, None) is not None:
            self._acc_version += 1
        if self.pending.pop(entry.instance, None) is not None:
            self._recompute_min_pending()
        self._commit_dirty = True
        self.output_log.append(entry)
        if entry.seq > self.committed:
            self.committed = entry.seq
        if cipher is not None and entry.instance not in self.ciphers:
            self.ciphers[entry.instance] = cipher
        if plaintext is not None:
            self._plaintexts.setdefault(entry.instance, plaintext)
        self._drain_executions()
        return True

    def install_plaintext(self, iid: InstanceId, plaintext: bytes) -> None:
        """Accept a quorum-validated plaintext for a committed instance."""
        if iid not in self.committed_ids or iid in self._plaintexts:
            return
        self._plaintexts[iid] = plaintext
        self._drain_executions()

    def catchup_items(
        self, have: int, limit: int
    ) -> Tuple[int, Tuple[Tuple[AcceptedEntry, Any, Optional[bytes]], ...]]:
        """Our committed-log suffix from position ``have``, with reveal
        material, for a recovering peer: ``(total_log_length, items)``."""
        items = tuple(
            (entry, self.ciphers.get(entry.instance), self._plaintexts.get(entry.instance))
            for entry in self.output_log[have : have + limit]
        )
        return len(self.output_log), items

    # ------------------------------------------------------------------
    # Prefix summaries ("hash trees are used in lieu of older prefixes to
    # reduce message size", §V-C): a 32-byte root stands in for the whole
    # committed prefix, and membership proofs let peers audit that a
    # specific transaction is part of a summarised prefix.
    # ------------------------------------------------------------------
    def committed_prefix_root(self) -> bytes:
        from repro.crypto.merkle import MerkleTree

        return MerkleTree([e.canonical() for e in self.output_log]).root

    def committed_prefix_proof(self, iid: InstanceId):
        """``(root, leaf, proof, leaf_count)`` for a committed instance, or
        None if it is not in the committed prefix."""
        from repro.crypto.merkle import MerkleTree

        for index, entry in enumerate(self.output_log):
            if entry.instance == iid:
                tree = MerkleTree([e.canonical() for e in self.output_log])
                return (
                    tree.root,
                    entry.canonical(),
                    tree.proof(index),
                    len(self.output_log),
                )
        return None


@dataclass(frozen=True)
class CommitSnapshot:
    """What survives a crash: the fsynced committed log plus the reveal
    material needed to finish executing it."""

    output_log: Tuple[AcceptedEntry, ...]
    committed: int
    executed_upto: int
    ciphers: Dict[InstanceId, Any]
    plaintexts: Dict[InstanceId, bytes]


def _well_formed(entry: Any) -> bool:
    """Shape check on a peer-reported accepted entry before adoption."""
    return (
        type(entry) is AcceptedEntry
        and type(entry.instance) is InstanceId
        and type(entry.cipher_id) is bytes
        and type(entry.seq) is int
    )


__all__ = [
    "CommitState",
    "CommitSnapshot",
    "CommitConfig",
    "StatusReport",
    "NO_PENDING",
    "STATUS_KIND",
    "DSHARE_KIND",
]
