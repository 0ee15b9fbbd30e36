"""Unit and property tests for prime-field arithmetic."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.field.prime import (
    BN254_P,
    BN254_R,
    FieldElement,
    Fp,
    Fr,
    PrimeField,
    batch_inverse,
    batch_inverse_ints,
    tonelli_shanks,
)

fr_ints = st.integers(min_value=0, max_value=BN254_R - 1)
nonzero_fr = st.integers(min_value=1, max_value=BN254_R - 1)


class TestFieldElementBasics:
    def test_construction_reduces_mod_p(self):
        assert Fr(BN254_R + 5).value == 5

    def test_negative_values_wrap(self):
        assert Fr(-1).value == BN254_R - 1

    def test_equality_with_int(self):
        assert Fr(7) == 7
        assert Fr(7) == 7 + BN254_R

    def test_equality_between_elements(self):
        assert Fr(3) == Fr(3)
        assert Fr(3) != Fr(4)

    def test_cross_field_mixing_rejected(self):
        with pytest.raises(ValueError):
            Fr(1) + Fp(1)

    def test_repr_contains_field_name(self):
        assert "Fr" in repr(Fr(12))

    def test_int_conversion(self):
        assert int(Fr(9)) == 9

    def test_bool(self):
        assert Fr(1)
        assert not Fr(0)

    def test_hash_consistent_with_eq(self):
        assert hash(Fr(5)) == hash(Fr(5 + BN254_R))


class TestArithmetic:
    def test_add_sub(self):
        assert Fr(10) + Fr(20) == 30
        assert Fr(10) - Fr(20) == Fr(-10)

    def test_radd_rsub(self):
        assert 5 + Fr(3) == 8
        assert 5 - Fr(3) == 2

    def test_mul_and_rmul(self):
        assert Fr(6) * Fr(7) == 42
        assert 6 * Fr(7) == 42

    def test_neg(self):
        assert -Fr(1) == BN254_R - 1

    def test_division(self):
        assert (Fr(10) / Fr(5)) == 2
        assert (10 / Fr(5)) == 2

    def test_pow(self):
        assert Fr(2) ** 10 == 1024

    def test_fermat_little_theorem(self):
        a = Fr(123456789)
        assert a ** (BN254_R - 1) == 1

    def test_inverse(self):
        a = Fr(987654321)
        assert a * a.inverse() == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Fr(0).inverse()

    @pytest.mark.parametrize(
        "divide",
        [
            lambda: Fr(1) / Fr(0),
            lambda: 1 / Fr(0),
            lambda: Fr(1) / 0,
            lambda: Fr(1) / BN254_R,
        ],
        ids=["elem_by_elem", "int_by_elem", "elem_by_int", "elem_by_modulus"],
    )
    def test_division_by_zero_raises_like_inverse(self, divide):
        with pytest.raises(ZeroDivisionError):
            divide()

    def test_square(self):
        assert Fr(11).square() == 121

    def test_signed_lift(self):
        assert Fr(-5).signed() == -5
        assert Fr(5).signed() == 5


class TestFieldProperties:
    @given(a=fr_ints, b=fr_ints)
    def test_commutative_add(self, a, b):
        assert Fr(a) + Fr(b) == Fr(b) + Fr(a)

    @given(a=fr_ints, b=fr_ints)
    def test_commutative_mul(self, a, b):
        assert Fr(a) * Fr(b) == Fr(b) * Fr(a)

    @given(a=fr_ints, b=fr_ints, c=fr_ints)
    def test_associative(self, a, b, c):
        assert (Fr(a) + Fr(b)) + Fr(c) == Fr(a) + (Fr(b) + Fr(c))
        assert (Fr(a) * Fr(b)) * Fr(c) == Fr(a) * (Fr(b) * Fr(c))

    @given(a=fr_ints, b=fr_ints, c=fr_ints)
    def test_distributive(self, a, b, c):
        assert Fr(a) * (Fr(b) + Fr(c)) == Fr(a) * Fr(b) + Fr(a) * Fr(c)

    @given(a=nonzero_fr)
    def test_inverse_roundtrip(self, a):
        assert Fr(a).inverse().inverse() == Fr(a)

    @given(a=fr_ints)
    def test_additive_identity(self, a):
        assert Fr(a) + Fr(0) == Fr(a)

    @given(a=fr_ints)
    def test_signed_roundtrip(self, a):
        assert Fr(Fr(a).signed()) == Fr(a)

    @given(a=nonzero_fr)
    def test_legendre_of_square_is_one(self, a):
        assert Fr(a).square().legendre() == 1


class TestSqrt:
    def test_sqrt_of_square(self):
        a = Fr(123456)
        root = a.square().sqrt()
        assert root == a or root == -a

    def test_sqrt_non_residue_raises(self):
        # Find a non-residue deterministically.
        for candidate in range(2, 100):
            if Fr(candidate).legendre() == -1:
                with pytest.raises(ValueError):
                    Fr(candidate).sqrt()
                return
        pytest.fail("no non-residue found in range")

    def test_tonelli_shanks_zero(self):
        assert tonelli_shanks(0, BN254_R) == 0

    def test_tonelli_shanks_none_for_non_residue(self):
        for candidate in range(2, 100):
            if pow(candidate, (BN254_P - 1) // 2, BN254_P) == BN254_P - 1:
                assert tonelli_shanks(candidate, BN254_P) is None
                return
        pytest.fail("no non-residue found in range")

    def test_tonelli_shanks_p_equals_3_mod_4(self):
        p = 23  # 23 % 4 == 3
        for n in range(1, p):
            root = tonelli_shanks(n, p)
            if root is not None:
                assert root * root % p == n


class TestBatchInverse:
    def test_matches_individual_inverses(self, rng):
        elements = [Fr(rng.randrange(1, BN254_R)) for _ in range(20)]
        batched = batch_inverse(elements)
        for e, inv in zip(elements, batched):
            assert e * inv == 1

    def test_empty(self):
        assert batch_inverse([]) == []

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            batch_inverse([Fr(1), Fr(0)])

    def test_single(self):
        assert batch_inverse([Fr(2)])[0] == Fr(2).inverse()

    def test_ints_agree_with_pow_and_reject_any_zero_residue(self):
        rng = random.Random(5)
        values = [rng.randrange(1, BN254_P) for _ in range(50)]
        assert batch_inverse_ints(values, BN254_P) == [
            pow(v, -1, BN254_P) for v in values
        ]
        assert batch_inverse_ints([], BN254_P) == []
        for bad in ([0], [BN254_P], [1, 2 * BN254_P], values + [0]):
            with pytest.raises(ZeroDivisionError):
                batch_inverse_ints(bad, BN254_P)


class TestPrimeFieldStructure:
    def test_two_adicity_of_fr(self):
        # BN254's scalar field famously has 2-adicity 28.
        assert Fr.two_adicity() == 28

    def test_root_of_unity_has_exact_order(self):
        for order in (2, 4, 256, 1024):
            w = Fr.root_of_unity(order)
            assert w**order == 1
            assert w ** (order // 2) != 1

    def test_root_of_unity_non_power_rejected(self):
        with pytest.raises(ValueError):
            Fr.root_of_unity(3)

    def test_root_of_unity_too_large_rejected(self):
        with pytest.raises(ValueError):
            Fr.root_of_unity(1 << 60)

    def test_multiplicative_generator_is_non_residue(self):
        g = Fr.multiplicative_generator()
        assert g.legendre() == -1

    def test_random_in_range(self, rng):
        for _ in range(10):
            assert 0 <= Fr.random(rng).value < BN254_R

    def test_random_nonzero(self, rng):
        assert not Fr.random_nonzero(rng).is_zero()

    def test_hash_to_field_deterministic(self):
        assert Fr.hash_to_field(b"abc") == Fr.hash_to_field(b"abc")
        assert Fr.hash_to_field(b"abc") != Fr.hash_to_field(b"abd")

    def test_element_byte_length(self):
        assert Fr.element_byte_length() == 32

    def test_contains(self):
        assert Fr(1) in Fr
        assert Fp(1) not in Fr

    def test_call_coerces_own_elements(self):
        e = Fr(5)
        assert Fr(e) is e

    def test_call_rejects_foreign_elements(self):
        with pytest.raises(ValueError):
            Fr(Fp(5))

    def test_from_bytes(self):
        assert Fr.from_bytes((42).to_bytes(32, "big")) == 42
