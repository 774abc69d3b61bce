"""The Fig. 1 front-running scenario.

Alice (Tokyo) broadcasts a market transaction ``t1``.  Mallory (Singapore)
observes it in flight and immediately issues her own ``t2``.  Because
``ping(A, M) + ping(M, C) < ping(A, C)`` for the validators "on the far
side" (São Paulo — Carole in the paper's figure), ``t2`` *arrives before*
``t1`` at a majority of validators.

- Against **Pompē-style ordering** (timestamps = clear-text arrival times,
  median of 2f+1): when a quorum of validators sits on violating paths,
  Mallory's median timestamp undercuts Alice's even though she reacted
  strictly later → the front-run lands (``run_fig1_pompe``).
- Against **Lyra**: the payload is VSS-encrypted, so observing ``c_t``
  carries no information to react to; by the time the payload is revealed
  the transaction sits in a committed (locked) prefix, and any transaction
  requesting a backdated sequence number is rejected by the acceptance
  window (``run_fig1_lyra``).

Both entry points build full message-level clusters through
:func:`~repro.harness.factory.build_cluster`, watchdog on; the scenario
object also exposes a closed-form arrival analysis used by tests and the
quickstart example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.attacks.pompe_attacks import (
    ATTACK_MARKER,
    VICTIM_MARKER,
    CherryPickingOrdererNode,
    batch_contains,
)
from repro.core.node import LyraNode
from repro.core.types import Batch, InstanceId, Transaction
from repro.harness.config import ExperimentConfig
from repro.harness.factory import build_cluster
from repro.net.latency import region_latency_ms
from repro.sim.engine import MILLISECONDS
from repro.workload.clients import OpenLoopClient
from repro.workload.spec import WorkloadSpec


@dataclass
class Fig1Scenario:
    """Topology of the motivating example.

    ``n_far`` validators sit in Carole's region (São Paulo); one correct
    validator serves Alice (Tokyo); Mallory runs the Singapore validator.
    """

    victim_region: str = "tokyo"
    attacker_region: str = "singapore"
    far_region: str = "saopaulo"
    n_far: int = 5  # with tokyo + singapore replicas: n = 7, f = 2

    @property
    def n(self) -> int:
        return self.n_far + 2

    @property
    def f(self) -> int:
        return (self.n - 1) // 3

    def regions(self) -> List[str]:
        """Replica placement, round-robin-compatible ordering: pid 0 is the
        victim's home, pid 1 is Mallory, the rest are far validators."""
        return [self.victim_region, self.attacker_region] + [
            self.far_region
        ] * self.n_far

    # ------------------------------------------------------------------
    # Closed-form arrival analysis (no simulation; used by tests/examples)
    # ------------------------------------------------------------------
    def arrival_times_ms(self) -> Tuple[List[float], List[float]]:
        """Per-validator arrival times of t1 (from the victim) and t2
        (from the attacker, who reacts upon observing t1)."""
        regions = self.regions()
        observe_delay = region_latency_ms(self.victim_region, self.attacker_region)
        victim = [region_latency_ms(self.victim_region, r) for r in regions]
        attacker = [
            observe_delay + region_latency_ms(self.attacker_region, r)
            for r in regions
        ]
        return victim, attacker

    def median_timestamps_ms(self) -> Tuple[float, float]:
        """Pompē-style assigned timestamps: the victim collects the first
        2f+1 replies; the attacker cherry-picks the lowest 2f+1."""
        victim_arrivals, attacker_arrivals = self.arrival_times_ms()
        q = 2 * self.f + 1
        # The victim's replies return fastest from the nearest validators:
        # reply return time = arrival + return latency; collect first q.
        regions = self.regions()
        victim_return = sorted(
            range(self.n),
            key=lambda i: victim_arrivals[i]
            + region_latency_ms(regions[i], self.victim_region),
        )[:q]
        victim_ts = sorted(victim_arrivals[i] for i in victim_return)[self.f]
        attacker_ts = sorted(attacker_arrivals)[:q][self.f]
        return victim_ts, attacker_ts

    def analytic_attack_wins(self) -> bool:
        victim_ts, attacker_ts = self.median_timestamps_ms()
        return attacker_ts < victim_ts


@dataclass
class Fig1Outcome:
    """Result of one full-cluster attack run."""

    attack_succeeded: Optional[bool]
    victim_position: Optional[int]
    attacker_position: Optional[int]
    attacker_observed_plaintext: bool = False
    attacker_rejected: bool = False
    detail: str = ""
    #: The cluster watchdog's findings over the run.
    invariant_violations: List[str] = field(default_factory=list)


class LyraBackdatingAttacker(LyraNode):
    """The strongest Mallory against Lyra: she cannot read ciphertexts, so
    she waits for the reveal and then tries to inject a front-running
    transaction with a *backdated* sequence-number prediction set.  The
    validation function (Equation 1) rejects it at every correct replica.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.observed_plaintext_at: Optional[int] = None
        self.attacked_at: Optional[int] = None
        self.attack_iid: Optional[InstanceId] = None
        self.attack_decision: Optional[int] = None
        self.victim_seq: Optional[int] = None
        self._attack_nonce = 0

    def _on_execute(self, entry, plaintext: bytes) -> None:
        super()._on_execute(entry, plaintext)
        if self.observed_plaintext_at is not None:
            return
        try:
            batch = Batch.deserialize(
                entry.instance.proposer, entry.instance.batch_no, plaintext
            )
        except ValueError:
            return
        if not batch_contains(batch, VICTIM_MARKER):
            return
        # First moment Mallory can READ the victim's payload: post-commit.
        self.observed_plaintext_at = self.sim.now
        self.victim_seq = entry.seq
        self._launch_backdated(entry.seq)

    def _launch_backdated(self, victim_seq: int) -> None:
        self.attacked_at = self.sim.now
        tx = Transaction(self.pid, self._attack_nonce, ATTACK_MARKER)
        self._attack_nonce += 1
        iid = InstanceId(self.pid, self._batch_counter)
        self._batch_counter += 1
        self.attack_iid = iid
        batch = Batch(self.pid, iid.batch_no, (tx,))
        cipher = self.obf.encrypt(batch.serialize(), self.rng, self.pid)
        # Claim every replica perceived the transaction just before the
        # victim's sequence number — a lie by now, hence rejected.
        preds = tuple(victim_seq - 1_000 for _ in range(self.n))
        self._s_ref[iid] = victim_seq - 1_000
        self._instance(iid).propose(cipher, preds)

    def _on_decide(self, iid, v, m) -> None:
        if iid == self.attack_iid:
            self.attack_decision = v
        super()._on_decide(iid, v, m)


def _run_fig1(
    scenario: Optional[Fig1Scenario],
    protocol: str,
    attacker_cls: type,
    *,
    seed: int,
    duration_us: int,
    victim_start_us: int,
):
    """Run one Fig. 1 deployment: a jitter-free, skew-free WAN on the
    scenario's regions, one-transaction batches, Mallory at pid 1, and
    Alice — one marker-bodied transaction from the victim's region, homed
    at pid 0.  Returns the cluster and an outcome carrying the positions of
    the first victim and attacker batches in pid 0's executed order.

    Alice is registered after the build: no :class:`ClientGroup` field
    carries a literal transaction body.
    """
    scenario = scenario or Fig1Scenario()
    config = ExperimentConfig(
        n_nodes=scenario.n,
        regions=scenario.regions(),
        seed=seed,
        jitter=0.0,
        clock_skew_max_us=0,
        delta_us=200 * MILLISECONDS,
        batch_size=1,
        batch_timeout_us=20 * MILLISECONDS,
        warmup_rounds=3,
        warmup_spacing_us=200 * MILLISECONDS,
        workload=WorkloadSpec(fairness=False),
        duration_us=duration_us,
    )
    cluster = build_cluster(config, protocol=protocol, node_classes={1: attacker_cls})
    alice = OpenLoopClient(
        cluster.topology.place(scenario.victim_region),
        cluster.sim,
        0,
        interval_us=1_000_000,
        start_at_us=victim_start_us,
        count=1,
        body=VICTIM_MARKER,
    )
    cluster.clients.append(alice)
    cluster.network.register(alice, replica=False)

    executed: List[Batch] = []
    home = cluster.nodes[0]
    tap = home.on_executed
    if protocol == "pompe":

        def record(cert) -> None:
            tap(cert)
            executed.append(cert.batch)

    else:

        def record(entry, batch) -> None:
            tap(entry, batch)
            executed.append(batch)

    home.on_executed = record
    result = cluster.run()

    def first(marker: bytes) -> Optional[int]:
        return next(
            (i for i, batch in enumerate(executed) if batch_contains(batch, marker)),
            None,
        )

    victim_pos, attacker_pos = first(VICTIM_MARKER), first(ATTACK_MARKER)
    if victim_pos is None:
        succeeded = None
    else:
        succeeded = attacker_pos is not None and attacker_pos < victim_pos
    return cluster, Fig1Outcome(
        attack_succeeded=succeeded,
        victim_position=victim_pos,
        attacker_position=attacker_pos,
        invariant_violations=result.invariant_violations,
    )


def run_fig1_pompe(
    scenario: Optional[Fig1Scenario] = None,
    *,
    seed: int = 7,
    duration_us: int = 12_000_000,
) -> Fig1Outcome:
    """Run Fig. 1 against a Pompē cluster with a Byzantine observer.

    pid 1 (Singapore) runs :class:`CherryPickingOrdererNode`: on observing
    a batch whose payload matches the victim marker, it immediately orders
    its own front-running transaction and cherry-picks the lowest 2f+1
    timestamp endorsements.
    """
    cluster, outcome = _run_fig1(
        scenario,
        "pompe",
        CherryPickingOrdererNode,
        seed=seed,
        duration_us=duration_us,
        victim_start_us=1_000_000,
    )
    attack = cluster.nodes[1].attack
    outcome.attacker_observed_plaintext = attack.observed_at_us is not None
    outcome.detail = (
        f"observed at {attack.observed_at_us}us, "
        f"attacked at {attack.attacked_at_us}us, executed order: "
        f"victim@{outcome.victim_position} attacker@{outcome.attacker_position}"
    )
    return outcome


def run_fig1_lyra(
    scenario: Optional[Fig1Scenario] = None,
    *,
    seed: int = 7,
    duration_us: int = 12_000_000,
) -> Fig1Outcome:
    """Run Fig. 1 against a Lyra cluster.

    The attacker (:class:`LyraBackdatingAttacker`) can only react to
    *content* after the reveal, at which point it attempts a backdated
    sequence number — rejected by the acceptance window (locked prefix).
    """
    cluster, outcome = _run_fig1(
        scenario,
        "lyra",
        LyraBackdatingAttacker,
        seed=seed,
        duration_us=duration_us,
        victim_start_us=1_500_000,  # after warm-up
    )
    attacker: LyraBackdatingAttacker = cluster.nodes[1]
    outcome.attacker_observed_plaintext = attacker.observed_plaintext_at is not None
    outcome.attacker_rejected = attacker.attack_decision == 0
    outcome.detail = (
        f"plaintext visible at {attacker.observed_plaintext_at}us "
        f"(post-commit), backdated attack decision={attacker.attack_decision}, "
        f"victim@{outcome.victim_position} attacker@{outcome.attacker_position}"
    )
    return outcome


__all__ = [
    "Fig1Scenario",
    "Fig1Outcome",
    "LyraBackdatingAttacker",
    "run_fig1_pompe",
    "run_fig1_lyra",
]
