"""Tests for the dense polynomial ring."""

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference.poly import Polynomial

from repro.field.prime import BN254_R as R

coeff_lists = st.lists(st.integers(min_value=0, max_value=R - 1), max_size=10)


class TestConstruction:
    def test_zero(self):
        assert Polynomial.zero().is_zero()
        assert Polynomial([0, 0, 0]).is_zero()

    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1

    def test_degree_of_zero_is_minus_one(self):
        assert Polynomial.zero().degree == -1

    def test_monomial(self):
        p = Polynomial.monomial(3, 5)
        assert p.degree == 3
        assert p(2) == 5 * 8

    def test_x(self):
        assert Polynomial.x()(7) == 7


class TestRingOps:
    @given(a=coeff_lists, b=coeff_lists)
    def test_add_commutes(self, a, b):
        assert Polynomial(a) + Polynomial(b) == Polynomial(b) + Polynomial(a)

    @given(a=coeff_lists, b=coeff_lists)
    def test_mul_commutes(self, a, b):
        assert Polynomial(a) * Polynomial(b) == Polynomial(b) * Polynomial(a)

    @given(a=coeff_lists, b=coeff_lists, c=coeff_lists)
    def test_distributive(self, a, b, c):
        pa, pb, pc = Polynomial(a), Polynomial(b), Polynomial(c)
        assert pa * (pb + pc) == pa * pb + pa * pc

    @given(a=coeff_lists)
    def test_sub_self_is_zero(self, a):
        assert (Polynomial(a) - Polynomial(a)).is_zero()

    def test_scale(self):
        assert Polynomial([1, 2]).scale(3) == Polynomial([3, 6])

    @given(a=coeff_lists, point=st.integers(min_value=0, max_value=R - 1))
    def test_evaluation_is_ring_homomorphism(self, a, point):
        p = Polynomial(a)
        q = Polynomial([1, 1])
        assert (p * q)(point) == p(point) * q(point) % R
        assert (p + q)(point) == (p(point) + q(point)) % R


class TestDivision:
    def test_divmod_identity(self):
        a = Polynomial([1, 2, 3, 4, 5])
        b = Polynomial([7, 1, 2])
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_exact_division(self):
        b = Polynomial([1, 1])
        q = Polynomial([2, 3, 4])
        a = b * q
        quotient, remainder = a.divmod(b)
        assert quotient == q
        assert remainder.is_zero()

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Polynomial([1]).divmod(Polynomial.zero())

    def test_floordiv_and_mod_operators(self):
        a = Polynomial([1, 0, 1])
        b = Polynomial([1, 1])
        assert (a // b) * b + (a % b) == a

    def test_vanishing_polynomial_division(self):
        # (x^4 - 1) / (x - 1) = x^3 + x^2 + x + 1
        t = Polynomial([-1, 0, 0, 0, 1])
        d = Polynomial([-1, 1])
        q, r = t.divmod(d)
        assert r.is_zero()
        assert q == Polynomial([1, 1, 1, 1])


class TestInterpolation:
    def test_through_points(self):
        xs = [1, 2, 3, 4]
        ys = [10, 20, 37, 99]
        p = Polynomial.interpolate(xs, ys)
        for x, y in zip(xs, ys):
            assert p(x) == y
        assert p.degree <= 3

    def test_constant(self):
        p = Polynomial.interpolate([5], [42])
        assert p(0) == 42

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Polynomial.interpolate([1, 2], [1])

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.interpolate([1, 1], [2, 3])

    def test_repr(self):
        assert "x^1" in repr(Polynomial([0, 2]))
        assert repr(Polynomial.zero()) == "Polynomial(0)"
