"""Commit-reveal and piggyback attack corpus (ROADMAP item 3).

Production audits of commit-reveal ordering (the AELF findings quoted in
SNIPPETS.md) document two bug classes that map directly onto Lyra's
security argument:

- **selective reveal** — a participant withholds, delays, or per-victim
  targets its decryption shares, trying to read payloads before the order
  is fixed or to starve specific peers of reveal material.  Lemma 7's
  (2f+1, n) VSS threshold is the defence: fewer than 2f+1 shares reveal
  nothing, and the f withholdable shares are never needed.
- **validation-ordering forgery** — a participant lies in the Algorithm-4
  piggyback reports that drive locked/stable/committed prefix derivation:
  stale or equivocating locked/min-pending/accepted reports, forged
  delta-encoded "no change since seq k" markers, and ignored
  ``lyra.pb_pull`` recovery requests.  The min-of-top-2f+1 selection rule
  is the defence: with at most f liars, the derived bound never passes
  every honest report.

Each node class below layers exactly one such behaviour on
:class:`~repro.core.node.LyraNode` via the three protocol hooks
(``_attach_piggyback``, ``_broadcast_decryption_shares``, ``_on_pb_pull``)
so the commit protocol itself is never forked.  :data:`CORPUS` packages
them into named cases — each mapped to the audit finding / lemma it
stresses, with the expected oracle verdict — runnable via
``python -m repro fuzz --corpus`` or :func:`repro.attacks.fuzz.run_corpus`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.commit import DSHARE_KIND, NO_PENDING, StatusReport
from repro.core.node import LyraNode
from repro.core.types import InstanceId
from repro.core.vvb import INIT_KIND
from repro.net.message import Message


class SelectiveRevealNode(LyraNode):
    """Withholds, delays, or per-victim targets its decryption shares.

    Modes:

    - ``withhold`` — never broadcast our shares (the canonical
      reveal-withholding attack on commit-reveal schemes);
    - ``delay`` — hold every share batch back by ``delay_us`` before
      releasing it (timing the reveal);
    - ``targeted`` — broadcast to everyone *except* ``victims`` (per-victim
      share starvation).

    Independently of the mode, the node also *probes*: on every foreign
    INIT it attempts to decrypt the cipher pre-commit with every share it
    can mint or has eavesdropped so far.  ``probe_successes`` must stay 0
    against the (2f+1, n) VSS scheme — the fuzzer's secrecy oracle turns a
    non-zero count into an invariant violation.
    """

    def __init__(
        self,
        *args,
        mode: str = "withhold",
        victims: Tuple[int, ...] = (),
        delay_us: int = 400_000,
        probe: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if mode not in ("withhold", "delay", "targeted"):
            raise ValueError(f"unknown selective-reveal mode {mode!r}")
        self.mode = mode
        self.victims = tuple(int(v) for v in victims)
        self.delay_us = delay_us
        self.probe = probe
        self.withheld_batches = 0
        self.probe_attempts = 0
        self.probe_successes = 0

    def _broadcast_decryption_shares(self, items) -> None:
        if self.mode == "withhold":
            self.withheld_batches += 1
            return
        if self.mode == "delay":
            self.withheld_batches += 1
            epoch = self.incarnation
            self.sim.schedule(
                self.delay_us, lambda: self._release_shares(items, epoch)
            )
            return
        # targeted: everyone but the victims gets our shares.
        payload = {"items": tuple(items)}
        size = sum(s.wire_size() for _, s in items)
        for dst in self.network.pids():
            if dst in self.victims:
                self.withheld_batches += 1
                continue
            self.send(dst, Message(DSHARE_KIND, dict(payload), size))

    def _release_shares(self, items, epoch: int) -> None:
        if self.crashed or self.incarnation != epoch:
            return
        LyraNode._broadcast_decryption_shares(self, items)

    def _dispatch_instance(self, kind: str, payload: dict, sender: int) -> None:
        if self.probe and kind == INIT_KIND:
            iid = payload.get("iid")
            cipher = payload.get("cipher")
            if (
                isinstance(iid, InstanceId)
                and iid.proposer != self.pid
                and cipher is not None
            ):
                self._probe_cipher(iid, cipher)
        super()._dispatch_instance(kind, payload, sender)

    def _probe_cipher(self, iid: InstanceId, cipher: Any) -> None:
        """Lemma-7 probe: try to read the payload before it is committed,
        using our own mintable share plus any shares seen so far."""
        commit = self.commit
        if commit is None or iid in commit.committed_ids:
            return
        self.probe_attempts += 1
        shares: List[Any] = []
        try:
            shares.append(self.obf.partial_decrypt(cipher, self.pid))
        except Exception:
            pass
        bucket = commit._dshares.get(cipher.cipher_id)
        if bucket:
            shares.extend(bucket.values())
        try:
            plaintext = self.obf.decrypt(cipher, shares)
        except Exception:
            return
        if plaintext:
            self.probe_successes += 1


class PiggybackForgeryNode(LyraNode):
    """Forges the Algorithm-4 piggyback reports on every broadcast.

    Modes (full-report encoding, ``delta_piggyback=False``):

    - ``stale`` — freeze the first report ever sent and replay it forever;
    - ``inflate`` — report a far-future ``locked`` and ``minp=NO_PENDING``
      (the dual of :class:`~repro.attacks.byzantine.PrefixStallerNode`:
      instead of stalling, try to *rush* peers' stable/committed bounds);
    - ``equivocate`` — per-destination reports: even pids see inflated
      bounds, odd pids see stalling ones (broadcast fan-out is zero-copy,
      so this needs per-destination sends).

    Modes (delta encoding, ``delta_piggyback=True``):

    - ``stale-marker`` — send one genuine full report, then forever claim
      "no change since seq k" markers against it even as state changes;
    - ``bogus-marker`` — markers referencing a full-report sequence number
      that was never sent, forcing every peer down the ``lyra.pb_pull``
      recovery path;
    - ``inflate`` — forged full reports (far-future locked, no pending)
      with a fresh sequence number each time.

    ``answer_pulls=False`` additionally turns the node into a lying
    ``lyra.pb_pull`` responder: it counts and drops every pull request.
    """

    FULL_MODES = ("stale", "inflate", "equivocate")
    DELTA_MODES = ("stale-marker", "bogus-marker", "inflate")

    def __init__(
        self,
        *args,
        mode: str = "inflate",
        answer_pulls: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if mode not in set(self.FULL_MODES) | set(self.DELTA_MODES):
            raise ValueError(f"unknown piggyback-forgery mode {mode!r}")
        self.mode = mode
        self.answer_pulls = answer_pulls
        self.pulls_ignored = 0
        self.forged_reports = 0
        self._stale_pb: Optional[StatusReport] = None
        self._stale_marker_seq: Optional[int] = None
        self._forge_seq = 0

    # -- forged full reports ------------------------------------------
    def _forged_full(self, commit) -> StatusReport:
        report = commit.piggyback()
        if self.mode == "stale":
            if self._stale_pb is None:
                self._stale_pb = report
            return self._stale_pb
        if self.mode == "inflate":
            return report._replace(locked=report.locked + (1 << 40), minp=NO_PENDING)
        return report

    # -- forged delta reports -----------------------------------------
    def _forged_delta(self, commit) -> dict:
        locked = commit.clock.read() - commit.L
        if self.mode == "bogus-marker":
            # "No change since seq k" against a full report never sent.
            return {"l": locked, "k": 1 << 30}
        if self.mode == "stale-marker":
            if self._stale_marker_seq is None:
                commit.force_full_piggyback()
                pbd = commit.piggyback_delta()
                self._stale_marker_seq = pbd["s"]
                return pbd
            return {"l": locked, "k": self._stale_marker_seq}
        # inflate: a forged full report with a fresh sequence number.
        self._forge_seq += 1
        return {
            "l": locked + (1 << 40),
            "m": NO_PENDING,
            "a": tuple(commit.accepted.values()),
            "s": self._forge_seq,
        }

    def _attach_piggyback(self, message: Message, commit) -> None:
        self.forged_reports += 1
        if commit.config.delta_piggyback:
            pbd = self._forged_delta(commit)
            message.payload["pbd"] = pbd
            message.size += commit.piggyback_delta_size(pbd)
        else:
            message.payload["pb"] = self._forged_full(commit)
            message.size += commit.piggyback_size()

    def _proto_broadcast(self, message: Message) -> None:
        if self.mode != "equivocate" or self.commit is None:
            super()._proto_broadcast(message)
            return
        # Equivocation needs per-destination frames: the network's
        # broadcast fan-out shares one Message object across recipients.
        commit = self.commit
        report = commit.piggyback()
        size = commit.piggyback_size()
        self._charge_send_cost(message)
        self.forged_reports += 1
        for dst in self.network.pids():
            if dst % 2 == 0:
                forged = report._replace(
                    locked=report.locked + (1 << 40), minp=NO_PENDING
                )
            else:
                forged = report._replace(locked=-(1 << 50), minp=-(1 << 50))
            copy = Message(message.kind, dict(message.payload), message.size + size)
            copy.payload["pb"] = forged
            self.send(dst, copy)

    def _on_pb_pull(self, sender: int) -> None:
        if not self.answer_pulls:
            self.pulls_ignored += 1
            return
        super()._on_pb_pull(sender)


# ----------------------------------------------------------------------
# The corpus: named cases mapping each behaviour to the audit finding /
# lemma it stresses, with the oracle verdict Lyra must produce.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CorpusCase:
    """One named attack scenario with its expected oracle verdict."""

    name: str
    #: The audit finding / paper lemma this case stresses.
    target: str
    #: True when the invariant oracle *must* flag a violation (only the
    #: deliberately weakened-knob cases — they prove the oracle can catch
    #: the bug class the hardened default defends against).
    expect_violation: bool
    description: str
    #: The run's ``ExperimentConfig.attack_nodes``.
    attack_nodes: Dict[int, Any]
    #: The run's other :func:`~repro.attacks.fuzz.fuzz_config` settings.
    knobs: Dict[str, Any] = field(default_factory=dict)

    def schedule(self, seed: int = 1):
        """This case's run: an ``ExperimentConfig`` on the fuzz rig
        (imported lazily, because the fuzzer imports this module)."""
        from repro.attacks.fuzz import fuzz_config

        return fuzz_config(seed, attack_nodes=self.attack_nodes, **self.knobs)


def _build_corpus() -> Dict[str, CorpusCase]:
    cases = [
        CorpusCase(
            name="selective-reveal-withhold",
            target="AELF selective-reveal finding; Lemma 7 ((2f+1, n) VSS)",
            expect_violation=False,
            description=(
                "Replica 1 never broadcasts its decryption shares and "
                "probes every foreign cipher pre-commit; 2f+1 honest "
                "shares still reveal every committed payload and no probe "
                "may succeed."
            ),
            attack_nodes={
                1: {"name": "selective-reveal", "kwargs": {"mode": "withhold"}}
            },
        ),
        CorpusCase(
            name="selective-reveal-targeted",
            target="AELF selective-reveal finding (per-victim variant); Lemma 7",
            expect_violation=False,
            description=(
                "Replica 1 starves replica 0 of its shares specifically; "
                "the victim still reaches the threshold from the other "
                "honest replicas."
            ),
            attack_nodes={
                1: {
                    "name": "selective-reveal",
                    "kwargs": {"mode": "targeted", "victims": [0]},
                }
            },
        ),
        CorpusCase(
            name="selective-reveal-delay",
            target="Reveal-timing attack (SoK on fair ordering); Lemma 7",
            expect_violation=False,
            description=(
                "Replica 1 delays every share batch by 400 ms; commit "
                "order is already fixed, so timing the reveal gains "
                "nothing and execution merely lags."
            ),
            attack_nodes={1: {"name": "selective-reveal", "kwargs": {"mode": "delay"}}},
        ),
        CorpusCase(
            name="pb-forge-stale",
            target="Validation-ordering audit findings; Lemmas 4-6 (top-2f+1)",
            expect_violation=False,
            description=(
                "Replica 1 replays its first piggyback report forever; a "
                "single stale report cannot hold back min-of-top-2f+1 "
                "bounds."
            ),
            attack_nodes={
                1: {"name": "piggyback-forgery", "kwargs": {"mode": "stale"}}
            },
        ),
        CorpusCase(
            name="pb-forge-inflate",
            target="Validation-ordering audit findings; Lemmas 4-6 (top-2f+1)",
            expect_violation=False,
            description=(
                "Replica 1 reports a far-future locked bound and an empty "
                "pending set, trying to rush peers into premature "
                "commits; min-of-top-2f+1 keeps the derived bound at an "
                "honest report."
            ),
            attack_nodes={
                1: {"name": "piggyback-forgery", "kwargs": {"mode": "inflate"}}
            },
        ),
        CorpusCase(
            name="pb-forge-equivocate",
            target="Report equivocation (Quick Order Fairness stress); Lemmas 4-6",
            expect_violation=False,
            description=(
                "Replica 1 tells even pids inflated bounds and odd pids "
                "stalling ones; both forgeries are single reports inside "
                "each peer's top-2f+1 selection."
            ),
            attack_nodes={
                1: {"name": "piggyback-forgery", "kwargs": {"mode": "equivocate"}}
            },
        ),
        CorpusCase(
            name="pbd-forge-marker",
            target="Delta-piggyback staleness (§V-C); pb_pull recovery path",
            expect_violation=False,
            description=(
                "Replica 1 sends one genuine full report then lies 'no "
                "change since seq k' forever; peers keep a stale "
                "min-pending for it, which degrades freshness but never "
                "safety."
            ),
            attack_nodes={
                1: {"name": "piggyback-forgery", "kwargs": {"mode": "stale-marker"}}
            },
            knobs={"delta_piggyback": True},
        ),
        CorpusCase(
            name="pbd-forge-bogus",
            target="Forged pbd markers + lying pb_pull responder (§V-C)",
            expect_violation=False,
            description=(
                "Replica 1 sends markers referencing a full report that "
                "never existed and drops every pb_pull request; peers "
                "fall back to locked-only updates for it and stay safe."
            ),
            attack_nodes={
                1: {
                    "name": "piggyback-forgery",
                    "kwargs": {"mode": "bogus-marker", "answer_pulls": False},
                }
            },
            knobs={"delta_piggyback": True},
        ),
        CorpusCase(
            name="pb-forge-inflate-weakened",
            target=(
                "Oracle calibration: report_quorum=1 reproduces the "
                "unvalidated-single-report bug class the audits flag"
            ),
            expect_violation=True,
            description=(
                "Same inflating forger, but the report quorum is "
                "deliberately weakened from 2f+1 to 1 (trust any single "
                "report).  The forged locked bound is adopted verbatim, "
                "replicas commit accepted entries instantly in divergent "
                "orders, and the watchdog must flag ordered-output / "
                "prefix-agreement violations — proving the oracle catches "
                "the bug class the hardened default defends against.  The "
                "load is raised (smaller batches, larger windows) so "
                "concurrent instances actually overlap: with one instance "
                "in flight at a time the premature commits stay accidentally "
                "ordered and the bug hides."
            ),
            attack_nodes={
                1: {"name": "piggyback-forgery", "kwargs": {"mode": "inflate"}}
            },
            knobs={"report_quorum": 1, "batch_size": 2, "window": 16},
        ),
    ]
    return {case.name: case for case in cases}


#: name -> CorpusCase, in taxonomy order.
CORPUS: Dict[str, CorpusCase] = _build_corpus()


__all__ = [
    "SelectiveRevealNode",
    "PiggybackForgeryNode",
    "CorpusCase",
    "CORPUS",
]
