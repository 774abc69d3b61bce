"""SMR correctness oracles (Definition 1 and Definition 6).

These checkers run over finished simulations and verify the paper's
guarantees hold *in the implementation*, not just in the proofs:

- **SMR-Safety**: every pair of correct replicas' committed logs are
  prefix-ordered (one is a prefix of the other).
- **Lower-boundedness** (BOC-Validity / Lemma 2): every decided sequence
  number ``s`` satisfies ``s ≥ MIN_seq(t) - λ`` where ``MIN_seq`` ranges
  over the *correct* processes' perceived sequence numbers.
- **Order-fairness oracle** for attack experiments: given a causal pair
  (victim transaction ``t1`` observed by the attacker before issuing
  ``t2``), check whether ``t2`` was sequenced before ``t1``.
"""

from __future__ import annotations

from itertools import islice
from operator import eq, gt
from typing import Dict, List, Optional, Sequence, Tuple


def is_prefix(shorter: Sequence, longer: Sequence) -> bool:
    """True iff ``shorter`` is a prefix of ``longer``."""
    if len(shorter) > len(longer):
        return False
    # The element loop stays in C: the watchdog runs this over every
    # replica's whole log at every sample.
    return all(map(eq, shorter, longer))


def check_prefix_consistency(
    outputs: Dict[int, List[Tuple[int, bytes]]],
) -> Optional[str]:
    """Verify SMR-Safety over the committed logs of correct replicas.

    ``outputs`` maps pid -> ordered list of ``(seq, cipher_id)``.
    Returns ``None`` when safe, else a human-readable violation report.
    """
    # Safe iff every log is a prefix of the longest one: n list compares
    # instead of n²/2 element-by-element scans.  Only a violation pays for
    # the pairwise pass below, which names the first diverging pair.
    if outputs:
        longest = max(outputs.values(), key=len)
        if all(longest[: len(log)] == log for log in outputs.values()):
            return None
    pids = sorted(outputs)
    for i in range(len(pids)):
        for j in range(i + 1, len(pids)):
            a, b = outputs[pids[i]], outputs[pids[j]]
            shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
            if not is_prefix(shorter, longer):
                diverge = next(
                    idx
                    for idx, (x, y) in enumerate(zip(shorter, longer))
                    if x != y
                )
                return (
                    f"SMR-Safety violated between pid {pids[i]} and pid "
                    f"{pids[j]}: logs diverge at position {diverge}: "
                    f"{shorter[diverge]} vs {longer[diverge]}"
                )
    return None


def check_output_sorted(output: Sequence[Tuple[int, bytes]]) -> Optional[str]:
    """The committed log must be ordered by decided sequence number
    (Definition 5), ties broken by cipher id."""
    if not any(map(gt, output, islice(output, 1, None))):
        return None  # the common case, with the element loop in C
    for idx in range(1, len(output)):
        if output[idx - 1] > output[idx]:
            return (
                f"committed log out of order at position {idx}: "
                f"{output[idx - 1]} > {output[idx]}"
            )
    return None


def check_lower_bounded(
    decided: Dict[bytes, int],
    perceived_by_correct: Dict[int, Dict[bytes, int]],
    lambda_us: int,
) -> List[str]:
    """Definition 6: for every decided ``(cipher_id, s)``, verify
    ``s ≥ min over correct processes of seq_i(t) - λ``.

    ``perceived_by_correct`` maps pid -> {cipher_id -> perceived seq}.
    Returns a list of violation descriptions (empty when the property holds).
    """
    violations: List[str] = []
    for cipher_id, s in decided.items():
        seqs = [
            seqs_of_i[cipher_id]
            for seqs_of_i in perceived_by_correct.values()
            if cipher_id in seqs_of_i
        ]
        if not seqs:
            continue
        min_seq = min(seqs)
        if s < min_seq - lambda_us:
            violations.append(
                f"cipher {cipher_id.hex()[:12]}: decided s={s} below "
                f"MIN_seq - lambda = {min_seq - lambda_us}"
            )
    return violations


def ordering_of(
    output: Sequence[Tuple[int, bytes]], cipher_id: bytes
) -> Optional[int]:
    """Position of a cipher in a committed log, or None."""
    for idx, (_, cid) in enumerate(output):
        if cid == cipher_id:
            return idx
    return None


def front_running_succeeded(
    output: Sequence[Tuple[int, bytes]],
    victim_cipher: bytes,
    attacker_cipher: bytes,
) -> Optional[bool]:
    """Did the attacker's (causally later) transaction get sequenced before
    the victim's?  None when either transaction is not committed yet."""
    v = ordering_of(output, victim_cipher)
    a = ordering_of(output, attacker_cipher)
    if v is None or a is None:
        return None
    return a < v


__all__ = [
    "is_prefix",
    "check_prefix_consistency",
    "check_output_sorted",
    "check_lower_bounded",
    "ordering_of",
    "front_running_succeeded",
]
