"""Unit and property tests for the Fp2/Fp6/Fp12 tower."""

import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from reference import fp12 as ref
from test_field_backend import gmpy2_or_stub  # noqa: F401 -- fixture

from repro.curves.pairing import _easy_part
from repro.field.backend import get_field_ops, set_field_backend
from repro.field.prime import BN254_P as P
from repro.field.tower import (
    FROB_GAMMA,
    XI,
    Fp2Element,
    Fp6Element,
    Fp12Element,
    fp2_wrap,
)

fp_ints = st.integers(min_value=0, max_value=P - 1)


def fp2(rng: random.Random) -> Fp2Element:
    return Fp2Element(rng.randrange(P), rng.randrange(P))


def fp6(rng: random.Random) -> Fp6Element:
    return Fp6Element(fp2(rng), fp2(rng), fp2(rng))


def fp12(rng: random.Random) -> Fp12Element:
    return Fp12Element(fp6(rng), fp6(rng))


class TestFp2:
    def test_u_squared_is_minus_one(self):
        u = Fp2Element(0, 1)
        assert u * u == Fp2Element(P - 1, 0)

    @given(a0=fp_ints, a1=fp_ints, b0=fp_ints, b1=fp_ints)
    def test_mul_matches_schoolbook(self, a0, a1, b0, b1):
        a, b = Fp2Element(a0, a1), Fp2Element(b0, b1)
        expected = Fp2Element(a0 * b0 - a1 * b1, a0 * b1 + a1 * b0)
        assert a * b == expected

    @given(a0=fp_ints, a1=fp_ints)
    def test_square_matches_mul(self, a0, a1):
        a = Fp2Element(a0, a1)
        assert a.square() == a * a

    def test_inverse(self, rng):
        a = fp2(rng)
        assert a * a.inverse() == Fp2Element.one()

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Fp2Element.zero().inverse()

    def test_conjugate_is_frobenius(self, rng):
        a = fp2(rng)
        assert a.conjugate() == a.pow(P)

    def test_mul_by_xi_matches_mul(self, rng):
        a = fp2(rng)
        assert a.mul_by_xi() == a * XI

    def test_scale(self, rng):
        a = fp2(rng)
        assert a.scale(3) == a + a + a

    def test_pow_zero_is_one(self, rng):
        assert fp2(rng).pow(0) == Fp2Element.one()

    def test_add_neg_cancels(self, rng):
        a = fp2(rng)
        assert (a + (-a)).is_zero()

    def test_hash_and_eq(self):
        assert hash(Fp2Element(1, 2)) == hash(Fp2Element(1, 2))
        assert Fp2Element(1, 2) != Fp2Element(2, 1)


class TestFp6:
    def test_v_cubed_is_xi(self):
        v = Fp6Element(Fp2Element.zero(), Fp2Element.one(), Fp2Element.zero())
        v3 = v * v * v
        assert v3 == Fp6Element(XI, Fp2Element.zero(), Fp2Element.zero())

    def test_mul_associative(self, rng):
        a, b, c = fp6(rng), fp6(rng), fp6(rng)
        assert (a * b) * c == a * (b * c)

    def test_mul_distributive(self, rng):
        a, b, c = fp6(rng), fp6(rng), fp6(rng)
        assert a * (b + c) == a * b + a * c

    def test_inverse(self, rng):
        a = fp6(rng)
        assert a * a.inverse() == Fp6Element.one()

    def test_mul_by_v_matches_explicit(self, rng):
        a = fp6(rng)
        v = Fp6Element(Fp2Element.zero(), Fp2Element.one(), Fp2Element.zero())
        assert a.mul_by_v() == a * v

    def test_frobenius_is_pth_power_on_basis(self, rng):
        # phi is additive and multiplicative; verifying on random elements
        # against x -> x^p via Fp12 embedding is done in TestFp12.
        a = fp6(rng)
        b = fp6(rng)
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()

    def test_scale_fp2(self, rng):
        a = fp6(rng)
        k = fp2(rng)
        scaled = a.scale_fp2(k)
        assert scaled.a0 == a.a0 * k
        assert scaled.a1 == a.a1 * k


class TestFp12:
    def test_w_squared_is_v(self):
        w = Fp12Element(Fp6Element.zero(), Fp6Element.one())
        w2 = w * w
        v = Fp6Element(Fp2Element.zero(), Fp2Element.one(), Fp2Element.zero())
        assert w2 == Fp12Element(v, Fp6Element.zero())

    def test_w_to_the_sixth_is_xi(self):
        w = Fp12Element(Fp6Element.zero(), Fp6Element.one())
        w6 = w.pow(6)
        xi6 = Fp6Element(XI, Fp2Element.zero(), Fp2Element.zero())
        assert w6 == Fp12Element(xi6, Fp6Element.zero())

    def test_mul_associative(self, rng):
        a, b, c = fp12(rng), fp12(rng), fp12(rng)
        assert (a * b) * c == a * (b * c)

    def test_square_matches_mul(self, rng):
        a = fp12(rng)
        assert a.square() == a * a

    def test_inverse(self, rng):
        a = fp12(rng)
        assert a * a.inverse() == Fp12Element.one()

    def test_pow_negative_exponent(self, rng):
        a = fp12(rng)
        assert a.pow(-3) == a.inverse().pow(3)

    def test_frobenius_is_pth_power(self, rng):
        a = fp12(rng)
        assert a.frobenius() == a.pow(P)

    def test_frobenius_n_composition(self, rng):
        a = fp12(rng)
        assert a.frobenius_n(2) == a.frobenius().frobenius()

    def test_frobenius_order_twelve(self, rng):
        a = fp12(rng)
        assert a.frobenius_n(12) == a

    def test_conjugate_is_p6_frobenius(self, rng):
        a = fp12(rng)
        assert a.conjugate() == a.frobenius_n(6)

    def test_mul_by_line_matches_general(self, rng):
        a = fp12(rng)
        c0, c3, c4 = fp2(rng), fp2(rng), fp2(rng)
        zero = Fp2Element.zero()
        line = Fp12Element(
            Fp6Element(c0, zero, zero),
            Fp6Element(c3, c4, zero),
        )
        assert a.mul_by_line(c0, c3, c4) == a * line

    def test_is_one(self):
        assert Fp12Element.one().is_one()
        assert not Fp12Element.zero().is_one()


class TestFrobeniusConstants:
    def test_gamma_zero_is_one(self):
        assert FROB_GAMMA[0] == Fp2Element.one()

    def test_gamma_multiplicativity(self):
        # gamma_i * gamma_j == gamma_{i+j} whenever i + j <= 5.
        for i in range(3):
            for j in range(3):
                assert FROB_GAMMA[i] * FROB_GAMMA[j] == FROB_GAMMA[i + j]

    def test_gamma_one_is_sixth_root_factor(self):
        assert FROB_GAMMA[1].pow(6) == XI.pow(P - 1)


# -- the optimised kernels against tests/reference/fp12.py ---------------------
#
# Each ``_holds_*`` states one property against the textbook Fp12; the
# hypothesis tests feed them edge-heavy coefficients, and the backend test
# feeds them elements whose coefficients are the gmpy2 backend's natives.

_coefficient = st.one_of(st.sampled_from([0, 1, P - 1]), fp_ints)
_fp2s = st.builds(Fp2Element, _coefficient, _coefficient)
_fp6s = st.builds(Fp6Element, _fp2s, _fp2s, _fp2s)
_fp12s = st.builds(Fp12Element, _fp6s, _fp6s)


def _holds_mul(x, y):
    assert ref.from_tower(x * y) == ref.mul(ref.from_tower(x), ref.from_tower(y))


def _holds_square(x):
    assert ref.from_tower(x.square()) == ref.mul(ref.from_tower(x), ref.from_tower(x))


def _holds_mul_by_line(x, c0, c3, c4):
    zero = Fp2Element.zero()
    dense = Fp12Element(Fp6Element(c0, zero, zero), Fp6Element(c3, c4, zero))
    assert ref.from_tower(x.mul_by_line(c0, c3, c4)) == ref.mul(
        ref.from_tower(x), ref.from_tower(dense)
    )


def _holds_inverse(x):
    assert ref.mul(ref.from_tower(x.inverse()), ref.from_tower(x)) == ref.ONE


def _holds_conjugate(x):
    assert ref.from_tower(x.conjugate()) == ref.conjugate(ref.from_tower(x))


def _holds_frobenius(x):
    assert ref.from_tower(x.frobenius()) == ref.power(ref.from_tower(x), P)


def _holds_fp6_mul(a, b):
    assert ref.from_fp6(a * b) == ref.mul(ref.from_fp6(a), ref.from_fp6(b))


def _holds_cyclotomic_square(f):
    e = _easy_part(f)
    squared = e.cyclotomic_square()
    assert squared == e.square()
    assert ref.from_tower(squared) == ref.mul(ref.from_tower(e), ref.from_tower(e))


class TestAgainstReferenceFp12:
    """``repro.field.tower`` against ``tests/reference/fp12.py``.

    The tower's own tests above compare one optimised method with another
    (``square`` with ``*``, ``mul_by_line`` with ``*``); these compare each
    with schoolbook arithmetic in a different representation of the field.
    """

    @given(x=_fp12s)
    def test_basis_map_round_trips(self, x):
        assert ref.to_tower(ref.from_tower(x)) == x

    def test_basis_map_sends_generators_to_their_definitions(self):
        zero2, one2, zero6 = Fp2Element.zero(), Fp2Element.one(), Fp6Element.zero()
        u = Fp12Element(Fp6Element(Fp2Element(0, 1), zero2, zero2), zero6)
        v = Fp12Element(Fp6Element(zero2, one2, zero2), zero6)
        w = Fp12Element(zero6, Fp6Element.one())
        w_poly = [0, 1] + [0] * 10
        assert ref.from_tower(w) == w_poly
        assert ref.from_tower(v) == ref.mul(w_poly, w_poly)
        nine = [9] + [0] * 11
        w6 = ref.power(w_poly, 6)
        assert ref.from_tower(u) == [(a - b) % P for a, b in zip(w6, nine)]
        assert ref.mul(ref.from_tower(u), ref.from_tower(u)) == [P - 1] + [0] * 11

    @given(x=_fp12s, y=_fp12s)
    def test_mul(self, x, y):
        _holds_mul(x, y)

    @given(x=_fp12s)
    def test_square(self, x):
        _holds_square(x)

    @given(x=_fp12s, c0=_fp2s, c3=_fp2s, c4=_fp2s)
    def test_mul_by_line(self, x, c0, c3, c4):
        _holds_mul_by_line(x, c0, c3, c4)

    @given(x=_fp12s)
    def test_inverse(self, x):
        assume(not x.is_zero())
        _holds_inverse(x)

    @given(x=_fp12s)
    def test_conjugate(self, x):
        _holds_conjugate(x)

    @given(x=_fp12s)
    def test_frobenius(self, x):
        _holds_frobenius(x)

    @given(a=_fp6s, b=_fp6s)
    def test_fp6_mul(self, a, b):
        _holds_fp6_mul(a, b)

    @given(f=_fp12s)
    def test_cyclotomic_square_after_the_easy_part(self, f):
        assume(not f.is_zero())
        _holds_cyclotomic_square(f)

    def test_cyclotomic_square_of_one(self):
        assert Fp12Element.one().cyclotomic_square().is_one()

    def test_cyclotomic_square_is_wrong_before_the_easy_part(self, rng):
        # Not a faster square(): it is only a squaring on the cyclotomic
        # subgroup, so it must stay behind _easy_part.
        generic = fp12(rng)
        assert generic.cyclotomic_square() != generic.square()

    def test_same_properties_on_backend_native_coefficients(
        self, rng, gmpy2_or_stub  # noqa: F811
    ):
        set_field_backend(gmpy2_or_stub)
        try:
            ops = get_field_ops(P)

            def coefficient():
                return rng.choice([0, 1, P - 1, rng.randrange(P), rng.randrange(P)])

            def native2():
                return fp2_wrap(Fp2Element(coefficient(), coefficient()), ops)

            def native6():
                return Fp6Element(native2(), native2(), native2())

            def native12():
                return Fp12Element(native6(), native6())

            for _ in range(6):
                x, y = native12(), native12()
                _holds_mul(x, y)
                _holds_square(x)
                _holds_mul_by_line(x, native2(), native2(), native2())
                _holds_inverse(x)
                _holds_conjugate(x)
                _holds_fp6_mul(native6(), native6())
                _holds_cyclotomic_square(x)
            _holds_frobenius(native12())
        finally:
            set_field_backend(None)
