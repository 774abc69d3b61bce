"""Distance estimation and sequence-number prediction (§IV-B).

When a broadcaster ``p_i`` sends a cipher it remembers the reference value
``s_ref`` of its ordering clock; every peer ``p_j`` piggybacks its perceived
sequence number ``seq_j(t)`` on its votes, letting ``p_i`` maintain
``d_ij = seq_j(t) - s_ref`` — one-way latency *plus* the clock offset
between the two nodes.  After a warm-up period the broadcaster predicts the
sequence number each peer will perceive for a fresh transaction:

    S_t = { s_ref + d_ij } for every j

and requests the ``(n-f)``-th smallest value of ``S_t`` (§IV-B1, Lemma 2).

Each peer's estimate is the median of its last ``window`` observations —
the standard robust RTT estimator: a single outlier (one queueing spike,
one adversarially delayed probe) cannot move it, yet after a genuine
regime change (routes shifting, or adversarial delays ending at GST) it
re-converges within ``window/2`` fresh samples.  A Byzantine peer can only
poison its *own* entry of ``S_t``, which Lemma 2 tolerates.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Sequence, Tuple

DEFAULT_WINDOW = 5


class DistanceEstimator:
    """Median-of-recent-samples estimates of ``d_ij`` to every peer."""

    def __init__(self, n: int, self_pid: int, *, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.n = n
        self.self_pid = self_pid
        self.window = window
        self._history: Dict[int, Deque[float]] = {
            self_pid: deque([0.0], maxlen=window)
        }
        self._samples: Dict[int, int] = {self_pid: 1}

    @staticmethod
    def _median(values: Sequence[float]) -> float:
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2 == 1:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    def record(self, peer: int, s_ref: int, seq_j: int) -> None:
        """Fold in one observation ``d = seq_j - s_ref`` for ``peer``.

        Samples claiming to be from ourselves are dropped: the self entry
        is the 0.0 anchor seeded at construction (``d_ii = 0`` by
        definition) and a spoofed or reflected sample must not displace it.
        """
        if peer == self.self_pid or not (0 <= peer < self.n):
            return
        sample = float(seq_j - s_ref)
        history = self._history.get(peer)
        if history is None:
            history = deque(maxlen=self.window)
            self._history[peer] = history
        history.append(sample)
        self._samples[peer] = self._samples.get(peer, 0) + 1

    def distance(self, peer: int) -> Optional[float]:
        history = self._history.get(peer)
        if not history:
            return None
        return self._median(history)

    def samples(self, peer: int) -> int:
        return self._samples.get(peer, 0)

    def peers_measured(self) -> int:
        """Number of *peers* (self excluded) with at least one sample."""
        return sum(
            1
            for pid, history in self._history.items()
            if pid != self.self_pid and history
        )

    def coverage(self) -> float:
        """Fraction of peers (self excluded) with at least one sample.

        The self entry is seeded at construction and carries no
        measurement information, so it must not contribute: a node that
        has heard from nobody reports 0.0, not ``1/n``.
        """
        if self.n <= 1:
            return 1.0
        return self.peers_measured() / (self.n - 1)

    def ready(self, quorum: int) -> bool:
        """Enough peers measured to predict a quorum of sequence numbers?

        Counts measured peers only — the free self anchor does not make a
        node "ready" before any probe reply has arrived.
        """
        return self.peers_measured() >= quorum

    def _blank_value(self) -> float:
        """Fill-in for unmeasured (possibly Byzantine-silent) peers: the
        median of known distances, the least-biased neutral guess."""
        known = [self._median(h) for h in self._history.values() if h]
        if not known:
            return 0.0
        return self._median(known)

    def predict(self, s_ref: int) -> Tuple[int, ...]:
        """The prediction set ``S_t`` indexed by pid.

        Missing peers get the blank value (§IV-B1: "values that may be
        missing from Byzantine processes are filled with a blank value").
        """
        blank = self._blank_value()
        out = []
        for j in range(self.n):
            d = self.distance(j)
            out.append(int(round(s_ref + (d if d is not None else blank))))
        return tuple(out)


def requested_sequence(predictions: Sequence[int], f: int) -> int:
    """The sequence number a broadcaster requests: the ``(n-f)``-th smallest
    value of ``S_t`` (1-based), per §IV-B1.

    With ``n = 3f+1`` this is the ``(2f+1)``-th smallest: at most ``f``
    predictions exceed it, so it is lower bounded by the perception of at
    least one correct process (Lemma 2).
    """
    n = len(predictions)
    if not (0 <= f < n):
        raise ValueError(f"invalid f={f} for n={n}")
    rank = n - f  # 1-based rank
    return sorted(predictions)[rank - 1]


__all__ = ["DistanceEstimator", "requested_sequence"]
