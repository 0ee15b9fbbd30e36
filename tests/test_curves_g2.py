"""Tests for G2 arithmetic, the psi endomorphism, and the Jacobian path."""

import random

import pytest
from reference.g2 import in_subgroup_naive

from repro.curves.bn254 import G2_COFACTOR, TWIST_B, P, R
from repro.curves.g2 import (
    G2_INFINITY_JAC,
    G2Point,
    g2_from_jacobian,
    g2_jac_add,
    g2_jac_double,
    g2_jac_is_infinity,
    g2_jac_scalar_mul,
    g2_to_jacobian,
    psi,
)
from repro.curves.serialize import PointDecodingError, _fp2_sqrt
from repro.field.tower import Fp2Element

H = G2Point.generator()


class TestGroupLaw:
    def test_generator_on_curve(self):
        assert H.is_on_curve()

    def test_generator_in_subgroup(self):
        assert H.in_subgroup()

    def test_identity(self):
        inf = G2Point.infinity()
        assert H + inf == H
        assert inf + H == H

    def test_add_commutes(self):
        assert H * 3 + H * 5 == H * 5 + H * 3

    def test_add_associative(self):
        a, b, c = H * 2, H * 3, H * 7
        assert (a + b) + c == a + (b + c)

    def test_double(self):
        assert H.double() == H + H

    def test_neg_cancels(self):
        assert (H * 4 + (-(H * 4))).is_infinity()

    def test_sub(self):
        assert H * 9 - H * 2 == H * 7

    def test_order_annihilates(self):
        assert (H * R).is_infinity()

    def test_negative_scalar(self):
        assert H * (-3) == -(H * 3)

    def test_small_multiples(self):
        acc = G2Point.infinity()
        for k in range(1, 8):
            acc = acc + H
            assert H * k == acc


class TestPsi:
    def test_psi_stays_on_curve(self):
        assert psi(H).is_on_curve()

    def test_psi_of_infinity(self):
        assert psi(G2Point.infinity()).is_infinity()

    def test_psi_commutes_with_scalar(self):
        # psi is an endomorphism: psi(kQ) == k psi(Q).
        assert psi(H * 17) == psi(H) * 17

    def test_psi_eigenvalue_is_p_on_subgroup(self):
        # On the order-r subgroup, psi acts as multiplication by p mod r.
        from repro.curves.bn254 import P

        assert psi(H) == H * (P % R)


class TestCofactor:
    def test_clear_cofactor_lands_in_subgroup(self):
        # Take a curve point NOT in the subgroup: scale x until on-curve.
        from repro.curves.bn254 import TWIST_B
        from repro.field.prime import BN254_P as p
        from repro.field.prime import tonelli_shanks

        # Deterministic search for an off-subgroup point.
        x = Fp2Element(1, 1)
        point = None
        for offset in range(50):
            candidate_x = Fp2Element(1 + offset, 1)
            rhs = candidate_x.square() * candidate_x + TWIST_B
            # Try to take an Fp2 sqrt via the serializer's helper.
            from repro.curves.serialize import _fp2_sqrt, PointDecodingError

            try:
                y = _fp2_sqrt(rhs)
            except (PointDecodingError, ValueError):
                continue
            point = G2Point(candidate_x, y)
            break
        assert point is not None, "no twist point found"
        assert point.is_on_curve()
        cleared = point.clear_cofactor()
        assert cleared.in_subgroup()


def _random_twist_points(count, seed):
    """Points of the twist curve E'(Fp2) by square root from a random x.

    The curve has ``r * (2p - r)`` points, so one of these lies in the
    order-r subgroup with probability ~2^-254.
    """
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        x = Fp2Element(rng.randrange(P), rng.randrange(P))
        try:
            y = _fp2_sqrt(x.square() * x + TWIST_B)
        except PointDecodingError:
            continue
        points.append(G2Point(x, y))
    return points


class TestSubgroupCheckAgainstDefinition:
    """``G2Point.in_subgroup`` (endomorphism identity) against ``r * Q == O``
    (``tests/reference/g2.py``), on members and on every kind of non-member:
    a generic twist point ``Q = S + C`` (subgroup part S, cofactor part C),
    its pure cofactor part ``[r]Q`` -- the case an endomorphism test is most
    likely to wave through -- and a subgroup point plus a cofactor point."""

    @pytest.mark.parametrize("k", [1, 2, 3, 0xC0FFEE, R // 2, R - 1])
    def test_generator_multiples_are_members(self, k):
        q = H * k
        assert in_subgroup_naive(q)
        assert q.in_subgroup()

    def test_identity_is_a_member(self):
        assert in_subgroup_naive(G2Point.infinity())
        assert G2Point.infinity().in_subgroup()

    @pytest.mark.parametrize("q", _random_twist_points(10, seed=2022348))
    def test_agrees_on_and_around_random_twist_points(self, q):
        assert q.is_on_curve()
        cofactor_part = q * R
        cleared = q.clear_cofactor()
        assert not cofactor_part.is_infinity() and not cleared.is_infinity()
        for point, member in [
            (q, False),
            (cofactor_part, False),
            (cleared, True),
            (cleared + cofactor_part, False),
            (-cofactor_part, False),
        ]:
            assert in_subgroup_naive(point) is member
            assert point.in_subgroup() is member

    def test_off_curve_is_not_a_member(self):
        bad = G2Point(H.x, H.y + Fp2Element.one())
        assert not bad.is_on_curve()
        assert not bad.in_subgroup()
        assert not in_subgroup_naive(bad)


class TestJacobianFastPath:
    def test_round_trip(self):
        assert g2_from_jacobian(g2_to_jacobian(H * 5)) == H * 5

    def test_add_matches_affine(self):
        got = g2_from_jacobian(
            g2_jac_add(g2_to_jacobian(H * 3), g2_to_jacobian(H * 4))
        )
        assert got == H * 7

    def test_double_matches_affine(self):
        got = g2_from_jacobian(g2_jac_double(g2_to_jacobian(H * 6)))
        assert got == H * 12

    def test_add_with_infinity(self):
        assert g2_from_jacobian(
            g2_jac_add(G2_INFINITY_JAC, g2_to_jacobian(H))
        ) == H

    def test_add_inverse_is_infinity(self):
        a = g2_to_jacobian(H * 2)
        b = g2_to_jacobian(-(H * 2))
        assert g2_jac_is_infinity(g2_jac_add(a, b))

    def test_add_equal_doubles(self):
        a = g2_to_jacobian(H * 5)
        assert g2_from_jacobian(g2_jac_add(a, a)) == H * 10

    def test_scalar_mul_matches_class(self):
        for k in (1, 2, 100, 987654321):
            assert g2_from_jacobian(
                g2_jac_scalar_mul(g2_to_jacobian(H), k)
            ) == H * k

    def test_scalar_zero(self):
        assert g2_jac_is_infinity(g2_jac_scalar_mul(g2_to_jacobian(H), 0))


class TestValidation:
    def test_off_curve_detected(self):
        bad = G2Point(Fp2Element(1, 0), Fp2Element(1, 0))
        assert not bad.is_on_curve()
        assert not bad.in_subgroup()

    def test_repr(self):
        assert "G2Point" in repr(H)
        assert "infinity" in repr(G2Point.infinity())
