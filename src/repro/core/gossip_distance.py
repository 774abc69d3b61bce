"""Epidemic distance estimation for open-membership scale (ROADMAP item 5).

The probe warm-up of §IV-B1 is all-to-all: every node broadcasts a probe
per round, so one round costs O(n²) messages — fine at n=32, a production
blocker at thousands of nodes.  :class:`GossipDistanceEstimator` replaces
it with flow-updating-style epidemic averaging: each round, every node
exchanges a compact (distance-vector, weight) summary with ``fanout``
seeded-random peers, so a round costs O(n·fanout) messages while estimates
of *every* ``d_ij`` still converge network-wide.

Direct samples stay exactly what they are in the probe design — node ``i``
pairs its reference clock value with the peer's sequence reading and folds
``d_ij = seq_j - s_ref`` into the median window (the parent class).  What
gossip adds is a second, relayed layer: when ``i`` has a direct estimate
to relay ``j`` and ``j``'s summary carries ``d_jk``, then

    d_ik = lat(i,k) + skew_k - skew_i
         ≈ (lat(i,j) + skew_j - skew_i) + (lat(j,k) + skew_k - skew_j)
         = d_ij + d_jk

— the clock-offset components compose *exactly* (they telescope), and the
latency component over-estimates by the triangle-inequality slack of the
detour through ``j``.  That slack is the estimator's intrinsic error, the
quantity the ``ablation_distance_error`` experiment sweeps against
λ-validation failures.  Relayed entries carry a weight that decays per
hop; weighted averaging across independently-routed copies pulls the
estimate toward the best available path, and a direct sample (weight 1.0,
no slack) always supersedes the gossip layer.

Peer choice per round is a pure function of ``(seed, pid, incarnation,
round)`` via :func:`seeded_sample` — no shared RNG stream is consumed, so
peer sets never depend on global event interleaving and gossip runs stay
bit-deterministic.

Churn: crash/recovery bumps a node's incarnation.  Peers that see a
higher incarnation in a gossip exchange drop their (possibly stale)
entries for that node and re-converge from the recovering node's fresh
re-estimation burst — no operator action, no global restart.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.distance import DEFAULT_WINDOW, DistanceEstimator

#: Default peers contacted per gossip round (constant, NOT a function of n).
DEFAULT_GOSSIP_FANOUT = 3

#: Default number of scheduled warm-up gossip rounds.
DEFAULT_GOSSIP_ROUNDS = 6

#: Weight multiplier per relay hop: a relayed estimate is worth half the
#: relay's own confidence in it, so multi-hop detours fade geometrically.
HOP_DECAY = 0.5

#: Gossip-layer weights saturate here; direct medians implicitly carry 1.0.
MAX_WEIGHT = 1.0


def seeded_sample(token: bytes, pool: List[int], k: int) -> List[int]:
    """``k`` distinct elements of ``pool``, a pure function of ``token``.

    sha256 of the token seeds a 64-bit LCG walk over the shrinking pool:
    deterministic, cheap, and unbiased enough for peer sampling.  Because
    the draw consumes no shared RNG stream, the sample never depends on how
    other consumers' draws interleave, which is what keeps gossip runs
    bit-deterministic.  ``pool`` is consumed in place.
    """
    if len(pool) <= k:
        return pool
    x = int.from_bytes(hashlib.sha256(token).digest()[:8], "big")
    chosen: List[int] = []
    for _ in range(k):
        x = (x * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        chosen.append(pool.pop(x % len(pool)))
    return chosen


class GossipDistanceEstimator(DistanceEstimator):
    """Constant-fan-out epidemic ``d_ij`` estimation.

    Drop-in replacement for :class:`DistanceEstimator`: ``record`` /
    ``predict`` / ``distance`` keep their contracts (vote piggybacks keep
    refreshing direct samples unchanged), so ``requested_sequence`` and
    λ-validation never see the difference.  The node drives the epidemic
    part: :meth:`begin_round` names this round's peers, :meth:`summary`
    builds the wire vector, :meth:`merge` folds a peer's vector in.
    """

    def __init__(
        self,
        n: int,
        self_pid: int,
        *,
        window: int = DEFAULT_WINDOW,
        fanout: int = DEFAULT_GOSSIP_FANOUT,
        seed: int = 0,
    ) -> None:
        super().__init__(n, self_pid, window=window)
        if fanout < 1:
            raise ValueError("gossip fanout must be >= 1")
        self.fanout = fanout
        self.seed = seed
        #: Relayed estimates: peer -> (estimate_us, weight in (0, 1]).
        self._gossip: Dict[int, Tuple[float, float]] = {}
        #: Highest incarnation seen per peer (crash/recovery epochs).
        self._incarnations: Dict[int, int] = {}
        # Wire accounting for the O(n·fanout) bound and convergence metric.
        self.rounds_started = 0
        self.requests_sent = 0
        self.max_requests_per_round = 0
        self.samples_recorded = 0
        self.vectors_merged = 0
        self.entries_merged = 0
        self.stale_entries_dropped = 0
        #: Number of rounds this node had started when it first reached
        #: full coverage (every peer estimated); ``None`` until then.
        self.converged_round: Optional[int] = None

    # ------------------------------------------------------------------
    # Round-driving surface (called by the node)
    # ------------------------------------------------------------------
    def peers_for_round(self, round_no: int, incarnation: int = 0) -> List[int]:
        """The ``fanout`` peers this node contacts in ``round_no``.

        A pure function of (seed, pid, incarnation, round): no shared RNG
        stream is consumed, and a recovered incarnation walks a fresh peer
        sequence.
        """
        pool = [p for p in range(self.n) if p != self.self_pid]
        token = f"gdist|{self.seed}|{self.self_pid}|{incarnation}|{round_no}"
        return seeded_sample(token.encode(), pool, self.fanout)

    def begin_round(self, round_no: int, incarnation: int = 0) -> List[int]:
        """Account one round and return its peer set."""
        peers = self.peers_for_round(round_no, incarnation)
        self.rounds_started += 1
        self.requests_sent += len(peers)
        if len(peers) > self.max_requests_per_round:
            self.max_requests_per_round = len(peers)
        return peers

    # ------------------------------------------------------------------
    # Wire vector
    # ------------------------------------------------------------------
    def summary(self) -> Tuple[Tuple[int, float, float], ...]:
        """This node's (peer, estimate, weight) vector for the wire.

        Direct medians ship at full weight; gossip-layer entries ship at
        their decayed weight.  The self entry (0.0 anchor) is omitted —
        the receiver adds its own distance to us when composing.
        """
        out: List[Tuple[int, float, float]] = []
        for peer in range(self.n):
            if peer == self.self_pid:
                continue
            history = self._history.get(peer)
            if history:
                out.append((peer, self._median(history), MAX_WEIGHT))
            else:
                entry = self._gossip.get(peer)
                if entry is not None:
                    out.append((peer, entry[0], entry[1]))
        return tuple(out)

    def merge(
        self, via: int, vector: Iterable[Sequence], incarnation: int = 0
    ) -> int:
        """Fold ``via``'s summary in; returns the number of entries used.

        Every relayed ``d_{via,k}`` composes with our ``d_{self,via}``
        into a candidate ``d_{self,k}`` (offsets telescope; latency picks
        up the triangle slack of the detour) and is averaged into the
        gossip layer under its hop-decayed weight.  Entries for peers we
        measure directly are skipped — a direct median is strictly better.
        """
        self.note_incarnation(via, incarnation)
        d_via = self.distance(via)
        if d_via is None:
            return 0
        merged = 0
        for item in vector:
            try:
                peer, est, weight = item
            except (TypeError, ValueError):
                continue
            if (
                not isinstance(peer, int)
                or peer == self.self_pid
                or peer == via
                or not (0 <= peer < self.n)
                or not isinstance(est, (int, float))
                or not isinstance(weight, (int, float))
                or not weight > 0.0
            ):
                continue
            if self._history.get(peer):
                continue
            cand_v = d_via + float(est)
            cand_w = min(float(weight), MAX_WEIGHT) * HOP_DECAY
            old = self._gossip.get(peer)
            if old is None:
                self._gossip[peer] = (cand_v, cand_w)
            else:
                old_v, old_w = old
                total = old_w + cand_w
                self._gossip[peer] = (
                    (old_v * old_w + cand_v * cand_w) / total,
                    min(total, MAX_WEIGHT),
                )
            merged += 1
        if merged:
            self.vectors_merged += 1
            self.entries_merged += merged
            self._check_converged()
        return merged

    def note_incarnation(self, peer: int, incarnation: int) -> None:
        """Churn handling: a peer speaking with a higher incarnation just
        recovered from a crash — drop our stale direct and relayed
        estimates for it so its re-estimation burst rebuilds them fresh."""
        if peer == self.self_pid or not (0 <= peer < self.n):
            return
        seen = self._incarnations.get(peer, 0)
        if incarnation <= seen:
            return
        self._incarnations[peer] = incarnation
        dropped = False
        if self._history.pop(peer, None) is not None:
            self._samples.pop(peer, None)
            dropped = True
        if self._gossip.pop(peer, None) is not None:
            dropped = True
        if dropped:
            self.stale_entries_dropped += 1

    # ------------------------------------------------------------------
    # DistanceEstimator surface, extended with the gossip fallback
    # ------------------------------------------------------------------
    def record(self, peer: int, s_ref: int, seq_j: int) -> None:
        super().record(peer, s_ref, seq_j)
        self.samples_recorded += 1
        self._check_converged()

    def distance(self, peer: int) -> Optional[float]:
        direct = super().distance(peer)
        if direct is not None:
            return direct
        entry = self._gossip.get(peer)
        if entry is not None:
            return entry[0]
        return None

    def peers_measured(self) -> int:
        """Peers with *any* estimate — direct median or relayed."""
        covered = {
            pid
            for pid, history in self._history.items()
            if pid != self.self_pid and history
        }
        covered.update(self._gossip)
        covered.discard(self.self_pid)
        return len(covered)

    def _check_converged(self) -> None:
        if self.converged_round is None and self.peers_measured() >= self.n - 1:
            self.converged_round = self.rounds_started

    # ------------------------------------------------------------------
    # Introspection for metrics / wire-stat assertions
    # ------------------------------------------------------------------
    def gossip_stats(self) -> Dict[str, float]:
        return {
            "fanout": self.fanout,
            "rounds_started": self.rounds_started,
            "requests_sent": self.requests_sent,
            "max_requests_per_round": self.max_requests_per_round,
            "samples_recorded": self.samples_recorded,
            "vectors_merged": self.vectors_merged,
            "entries_merged": self.entries_merged,
            "stale_entries_dropped": self.stale_entries_dropped,
            "converged_round": (
                -1 if self.converged_round is None else self.converged_round
            ),
            "coverage": self.coverage(),
        }


__all__ = [
    "GossipDistanceEstimator",
    "DEFAULT_GOSSIP_FANOUT",
    "DEFAULT_GOSSIP_ROUNDS",
    "HOP_DECAY",
    "MAX_WEIGHT",
]
