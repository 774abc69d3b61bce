"""Feldman verifiable secret sharing (the VSS of §II-B, reference [6]).

Shamir sharing alone lets a Byzantine dealer hand out inconsistent shares.
Feldman's scheme publishes commitments ``C_j = g^{a_j} (mod q)`` to the
polynomial coefficients; everyone can then check its share ``(i, y_i)``
against::

    g^{y_i}  ==  prod_j C_j^{i^j}   (mod q)

The group is the order-``p`` subgroup of ``Z_q*`` where ``q = k*p + 1`` is
prime and ``p`` is the secret-sharing field modulus — computed once at
import by a Miller–Rabin search over ``k``.  Parameters are demo-grade
(127-bit field); the verification algebra is the real thing.

The exponentiation kernel
-------------------------
Every full-width modexp in this scheme has the same base: a dealing
commits to its coefficients with ``g^{a_j}``, a verifier computes
``g^{y_i}``, and decryption checks ``g^K`` against ``C_0``.  The base never
changes, so :meth:`FeldmanVSS.g_pow` does not square-and-multiply: it reads
``g^e`` out of a fixed-base table ``T[i][d] = g^(d * 256^i) mod q`` — one
row per byte of the exponent, one lookup and one modular multiplication per
byte (16 for the default field) where ``pow(g, e, q)`` spends ~127
squarings and ~64 multiplications.

- *8-bit windows.*  ``int.to_bytes`` cuts the exponent into table indices
  in one C call, so a byte is the window that needs no shifting or
  masking in Python.  Narrower windows double the multiplications, wider
  ones blow the table up: 4 / 6 / 8 bits read 9.8 / 6.8 / 4.6 µs against
  ``pow``'s 36.7, and 16 bits would be 26 MiB (EXPERIMENTS.md
  "Constants measured, not knobs").  The 8-bit table is 16 x 256
  residues, ~0.2 MiB, built in ~1.2 ms.
- *``e mod p`` first.*  ``g`` has order ``p``, so ``g^e`` depends only on
  ``e mod p``.  Reducing first bounds the exponent to the table's row
  count and makes negative and oversized exponents agree with
  ``pow(g, e, q)`` — same integer for every ``e``.
- *Lazy, and once per group.*  The table is built on the first ``g_pow``
  call, never at import, and shared by every ``FeldmanVSS`` over the same
  ``(g, q)``.  It holds powers of ``g`` and nothing about any exponent,
  share or secret.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.crypto.field import DEFAULT_FIELD, PrimeField
from repro.crypto.memo import MemoCache
from repro.crypto.polynomial import Polynomial
from repro.crypto.shamir import ShamirShare

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Share verification is referentially transparent — the verdict depends only
# on (group, commitment, share) — so it is memoized globally.  Every replica
# checks the same 2f+1 decryption shares for every revealed cipher; without
# the memo that is 1+threshold modexps apiece at every replica, with it each
# distinct share is verified once per cluster.  Invalid shares cache False
# just as honestly as valid ones cache True.
_verify_cache = MemoCache(capacity=1 << 16)


def verify_cache_stats():
    """Hit/miss counters for the global Feldman share-verification memo."""
    return _verify_cache.stats()


def _is_probable_prime(n: int) -> bool:
    """Miller–Rabin with fixed bases (deterministic for our ~134-bit range
    with overwhelming probability; q is fixed at import so one check)."""
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_group(p: int) -> Tuple[int, int]:
    """Find ``(q, g)``: prime ``q = k*p + 1`` and a generator ``g`` of the
    order-``p`` subgroup of ``Z_q*``."""
    k = 2
    while True:
        q = k * p + 1
        if _is_probable_prime(q):
            for h in range(2, 100):
                g = pow(h, k, q)
                if g != 1:
                    return q, g
        k += 2


# Group parameters for the default field, computed once.
_DEFAULT_Q, _DEFAULT_G = find_group(DEFAULT_FIELD.p)

#: Window width of the fixed-base table, in bits: one exponent byte per
#: row (see the module docstring for the 4/6/8/16-bit sweep).
_WINDOW_BITS = 8

#: ``(g, q) -> T`` with ``T[i][d] = g^(d * 2^(_WINDOW_BITS * i)) mod q``.
_fixed_base_tables: Dict[Tuple[int, int], Tuple[Tuple[int, ...], ...]] = {}


def _fixed_base_table(g: int, q: int, exponent_bits: int):
    """The table for base ``g`` covering exponents below ``2^exponent_bits``
    (built on first request for a group, then shared)."""
    table = _fixed_base_tables.get((g, q))
    if table is None:
        rows = []
        base = g
        for _ in range(-(-exponent_bits // _WINDOW_BITS)):
            row = [1]
            for _ in range((1 << _WINDOW_BITS) - 1):
                row.append(row[-1] * base % q)
            rows.append(tuple(row))
            base = row[-1] * base % q
        table = _fixed_base_tables[(g, q)] = tuple(rows)
    return table


@dataclass(frozen=True)
class FeldmanCommitment:
    """Public commitment vector ``(C_0, ..., C_{k-1})`` to a sharing."""

    values: Tuple[int, ...]

    @property
    def threshold(self) -> int:
        return len(self.values)

    def wire_size(self) -> int:
        return 17 * len(self.values)


@dataclass(frozen=True)
class VerifiedShare:
    """A Shamir share bundled with the commitment it verifies against."""

    share: ShamirShare
    commitment: FeldmanCommitment


class FeldmanVSS:
    """Dealer/verifier operations of Feldman VSS over the default group."""

    def __init__(self, field: PrimeField = DEFAULT_FIELD) -> None:
        self.field = field
        if field == DEFAULT_FIELD:
            self.q, self.g = _DEFAULT_Q, _DEFAULT_G
        else:
            self.q, self.g = find_group(field.p)
        self._g_table = None  # built by the first g_pow()

    # ------------------------------------------------------------------
    def g_pow(self, e: int) -> int:
        """``g^e mod q`` — the same integer as ``pow(g, e, q)``
        for every ``int`` ``e`` — through the fixed-base table."""
        table = self._g_table
        if table is None:
            table = self._g_table = _fixed_base_table(
                self.g, self.q, self.field.p.bit_length()
            )
        q = self.q
        acc = 1
        for row, digit in zip(table, (e % self.field.p).to_bytes(len(table), "little")):
            acc = acc * row[digit] % q
        return acc

    # ------------------------------------------------------------------
    def deal(
        self,
        secret: int,
        threshold: int,
        n_shares: int,
        rng,
    ) -> Tuple[List[ShamirShare], FeldmanCommitment]:
        """Share ``secret`` and publish coefficient commitments."""
        if threshold < 1 or n_shares < threshold:
            raise ValueError("invalid (threshold, n_shares)")
        poly = Polynomial.random_with_secret(secret, threshold - 1, rng, self.field)
        shares = [ShamirShare(i, poly.evaluate(i)) for i in range(1, n_shares + 1)]
        commitment = FeldmanCommitment(
            tuple(self.g_pow(c) for c in poly.coefficients)
        )
        return shares, commitment

    def verify_share(self, share: ShamirShare, commitment: FeldmanCommitment) -> bool:
        """Check ``g^{y_i} == prod C_j^{i^j}`` — i.e. the share lies on the
        committed polynomial.  A share whose index or value is not exactly
        an ``int`` lies on no polynomial: ``False``, uncached."""
        i = share.index
        value = share.value
        if type(i) is not int or type(value) is not int:
            return False
        key = (self.q, commitment.values, i, value)
        verdict = _verify_cache.get(key)
        if verdict is not None:
            return verdict
        lhs = self.g_pow(value)
        # Horner in the exponent: prod C_j^{i^j} = (..(C_{k-1}^i * C_{k-2})^i
        # ..)^i * C_0.  Exponents stay the (tiny) share index instead of a
        # field-width i^j, so each step is a ~log2(n)-squaring pow rather
        # than a full 127-bit modexp — the verification verdict (and hence
        # every cached value) is identical.
        q = self.q
        rhs = 1
        for c in reversed(commitment.values):
            rhs = (pow(rhs, i, q) * c) % q
        return _verify_cache.put(key, lhs == rhs)

    def commitment_to_secret(self, commitment: FeldmanCommitment) -> int:
        """``g^secret`` — binds the dealer to the secret without revealing it."""
        return commitment.values[0]


__all__ = [
    "FeldmanVSS",
    "FeldmanCommitment",
    "VerifiedShare",
    "find_group",
    "verify_cache_stats",
]
