"""Unit and property tests for GF(p), polynomials, and Lagrange
interpolation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import DEFAULT_FIELD, MERSENNE_127, PrimeField
from repro.crypto.polynomial import Polynomial, lagrange_interpolate_at
from repro.sim.rng import RngRegistry

F = DEFAULT_FIELD
elements = st.integers(min_value=0, max_value=F.p - 1)
nonzero = st.integers(min_value=1, max_value=F.p - 1)


class TestFieldBasics:
    def test_modulus_is_mersenne_127(self):
        assert F.p == MERSENNE_127 == (1 << 127) - 1

    def test_canonicalisation(self):
        assert F.element(F.p) == 0
        assert F.element(-1) == F.p - 1

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            F.inv(0)

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(2)

    def test_sum_prod(self):
        assert F.sum([F.p - 1, 1]) == 0
        assert F.prod([2, 3, 5]) == 30

    def test_random_element_in_range(self):
        rng = RngRegistry(1).get("f")
        for _ in range(50):
            assert 0 <= F.random_element(rng) < F.p

    def test_encode_bytes(self):
        assert F.encode_bytes(b"\x01") == 1
        with pytest.raises(ValueError):
            F.encode_bytes(b"x" * 16)

    def test_equality_and_hash(self):
        assert PrimeField(F.p) == F
        assert hash(PrimeField(F.p)) == hash(F)


class TestFieldProperties:
    @given(elements, elements)
    def test_add_commutes(self, a, b):
        assert F.add(a, b) == F.add(b, a)

    @given(elements, elements, elements)
    def test_mul_distributes(self, a, b, c):
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))

    @given(nonzero)
    def test_inverse_property(self, a):
        assert F.mul(a, F.inv(a)) == 1

    @given(nonzero, st.integers(-3, 3))
    def test_inverse_equals_fermat_exponent(self, a, wraps):
        # ``pow(a, -1, p)`` and the Fermat form a^(p-2) agree, also for
        # representatives outside [0, p).
        assert F.inv(a + wraps * F.p) == pow(a, F.p - 2, F.p)
        small = PrimeField(101)
        if a % 101:
            assert small.inv(a) == pow(a, 99, 101)

    @given(elements)
    def test_neg_property(self, a):
        assert F.add(a, F.neg(a)) == 0

    @given(elements, nonzero)
    def test_div_is_mul_by_inverse(self, a, b):
        assert F.mul(F.div(a, b), b) == a


class TestPolynomial:
    def test_horner_matches_naive(self):
        poly = Polynomial([3, 1, 4, 1, 5])
        x = 123456789
        naive = sum(c * x**i for i, c in enumerate([3, 1, 4, 1, 5])) % F.p
        assert poly.evaluate(x) == naive

    def test_secret_is_constant_term(self):
        rng = RngRegistry(2).get("p")
        poly = Polynomial.random_with_secret(42, 3, rng)
        assert poly.secret == 42
        assert poly.evaluate(0) == 42
        assert poly.degree == 3

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([])

    def test_negative_degree_rejected(self):
        rng = RngRegistry(2).get("p")
        with pytest.raises(ValueError):
            Polynomial.random_with_secret(1, -1, rng)

    def test_evaluate_many(self):
        poly = Polynomial([7])
        assert poly.evaluate_many([1, 2, 3]) == [7, 7, 7]


class TestLagrange:
    def test_reconstructs_constant_term(self):
        rng = RngRegistry(3).get("p")
        poly = Polynomial.random_with_secret(777, 4, rng)
        points = [(i, poly.evaluate(i)) for i in range(1, 6)]
        assert lagrange_interpolate_at(points, 0) == 777

    def test_reconstructs_arbitrary_point(self):
        poly = Polynomial([5, 3, 2])
        points = [(i, poly.evaluate(i)) for i in (2, 7, 11)]
        assert lagrange_interpolate_at(points, 20) == poly.evaluate(20)

    def test_duplicate_abscissae_rejected(self):
        with pytest.raises(ValueError):
            lagrange_interpolate_at([(1, 2), (1, 3)], 0)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            lagrange_interpolate_at([], 0)

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=F.p - 1), st.integers(1, 6))
    def test_property_roundtrip(self, secret, degree):
        rng = RngRegistry(secret % 1000).get("lag")
        poly = Polynomial.random_with_secret(secret, degree, rng)
        pts = [(i, poly.evaluate(i)) for i in range(1, degree + 2)]
        assert lagrange_interpolate_at(pts, 0) == secret
