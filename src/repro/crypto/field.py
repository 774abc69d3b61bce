"""Prime-field arithmetic GF(p).

The default field uses the Mersenne prime ``p = 2^127 - 1``: large enough
that random collisions never occur in simulation, small enough that Python
integer arithmetic stays fast.  All secret-sharing algebra in this package
(Shamir, Feldman, VSS encryption) is exact arithmetic in this field.
"""

from __future__ import annotations

from typing import Iterable, List

#: 2**127 - 1, a Mersenne prime.
MERSENNE_127 = (1 << 127) - 1


class PrimeField:
    """Arithmetic modulo a prime ``p`` on plain Python ints.

    Elements are canonical representatives in ``[0, p)``.  The class is
    stateless apart from ``p``; methods validate inputs so protocol bugs
    surface as exceptions rather than silent wrap-around.
    """

    def __init__(self, p: int = MERSENNE_127) -> None:
        if p < 3:
            raise ValueError("field modulus must be an odd prime >= 3")
        self.p = int(p)

    # ------------------------------------------------------------------
    def element(self, x: int) -> int:
        """Canonicalise an integer into the field."""
        return int(x) % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises on zero."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(p)")
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def sum(self, xs: Iterable[int]) -> int:
        total = 0
        for x in xs:
            total += x
        return total % self.p

    def prod(self, xs: Iterable[int]) -> int:
        total = 1
        for x in xs:
            total = (total * x) % self.p
        return total

    # ------------------------------------------------------------------
    def random_element(self, rng) -> int:
        """Uniform element of the field drawn from a numpy Generator."""
        # Draw 128 bits from two 64-bit words; rejection-free because we
        # reduce mod p (bias is 2^-127, irrelevant for simulation).
        hi = int(rng.integers(0, 1 << 63, dtype="int64"))
        lo = int(rng.integers(0, 1 << 63, dtype="int64"))
        return ((hi << 64) | lo) % self.p

    def random_elements(self, rng, count: int) -> List[int]:
        return [self.random_element(rng) for _ in range(count)]

    def encode_bytes(self, data: bytes) -> int:
        """Pack at most 15 bytes into a field element (for small secrets)."""
        if len(data) > 15:
            raise ValueError("at most 15 bytes fit into a GF(2^127-1) element")
        return int.from_bytes(data, "big") % self.p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrimeField(p={self.p})"


#: Shared default field for the whole library.
DEFAULT_FIELD = PrimeField(MERSENNE_127)

__all__ = ["PrimeField", "DEFAULT_FIELD", "MERSENNE_127"]
