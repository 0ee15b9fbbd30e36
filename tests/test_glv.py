"""Tests for the GLV endomorphism decomposition and the fast G1 MSM kernel."""

import random

import pytest

from repro.curves.bn254 import P, R
from repro.curves.g1 import G1Point, jac_scalar_mul, jac_to_affine
from repro.curves.glv import (
    GLV_BETA,
    GLV_LAMBDA,
    glv_decompose,
    glv_endomorphism,
)
from repro.curves.msm import msm_g1, naive_msm_g1

G = G1Point.generator()


def _affine(p: G1Point):
    return None if p.is_infinity() else (p.x, p.y)


class TestGlvConstants:
    def test_lambda_is_primitive_cube_root(self):
        assert GLV_LAMBDA != 1
        assert pow(GLV_LAMBDA, 3, R) == 1
        assert (GLV_LAMBDA * GLV_LAMBDA + GLV_LAMBDA + 1) % R == 0

    def test_beta_is_primitive_cube_root(self):
        assert GLV_BETA != 1
        assert pow(GLV_BETA, 3, P) == 1

    def test_endomorphism_is_lambda_on_generator(self):
        phi_g = glv_endomorphism((G.x, G.y))
        assert phi_g == jac_to_affine(jac_scalar_mul((G.x, G.y, 1), GLV_LAMBDA))

    def test_endomorphism_is_lambda_on_random_points(self, rng):
        for _ in range(5):
            p = G * rng.randrange(2, R)
            expected = p * GLV_LAMBDA
            x, y = glv_endomorphism((p.x, p.y))
            assert G1Point(x, y) == expected

    def test_endomorphism_image_on_curve(self, rng):
        p = G * rng.randrange(2, R)
        x, y = glv_endomorphism((p.x, p.y))
        assert G1Point(x, y).is_on_curve()


class TestGlvDecompose:
    @pytest.mark.parametrize(
        "k", [0, 1, 2, 3, R - 1, R - 2, (R - 1) // 2, R // 3, 2**127, 2**200]
    )
    def test_identity_fixed(self, k):
        k1, k2 = glv_decompose(k)
        assert (k1 + k2 * GLV_LAMBDA) % R == k % R

    def test_identity_random_and_halves_short(self, rng):
        for _ in range(200):
            k = rng.randrange(R)
            k1, k2 = glv_decompose(k)
            assert (k1 + k2 * GLV_LAMBDA) % R == k
            assert abs(k1).bit_length() <= 130
            assert abs(k2).bit_length() <= 130

    def test_scalar_above_order_reduced(self):
        k1, k2 = glv_decompose(R + 5)
        assert (k1 + k2 * GLV_LAMBDA) % R == 5


class TestGlvMsmAgainstNaive:
    """The satellite edge-case matrix: every kernel agrees with naive."""

    @pytest.mark.parametrize("n", [1, 2, 3, 30, 130])
    def test_random_inputs(self, n, rng):
        points = [_affine(G * rng.randrange(1, 5000)) for _ in range(n)]
        scalars = [rng.randrange(2 * R) for _ in range(n)]
        expected = G1Point.from_jacobian(naive_msm_g1(points, scalars))
        assert G1Point.from_jacobian(msm_g1(points, scalars)) == expected

    def test_empty(self):
        assert G1Point.from_jacobian(msm_g1([], [])).is_infinity()

    def test_length_one(self):
        assert G1Point.from_jacobian(msm_g1([_affine(G)], [7])) == G * 7

    def test_zero_scalars(self):
        points = [_affine(G), _affine(G * 2)]
        assert G1Point.from_jacobian(msm_g1(points, [0, 0])).is_infinity()

    def test_scalar_order_minus_one(self):
        assert G1Point.from_jacobian(msm_g1([_affine(G)], [R - 1])) == -G

    def test_scalars_at_and_above_order(self):
        points = [_affine(G)] * 3
        scalars = [R, R + 1, 3 * R + 7]
        expected = G1Point.from_jacobian(naive_msm_g1(points, scalars))
        assert G1Point.from_jacobian(msm_g1(points, scalars)) == expected

    def test_infinity_points_skipped(self):
        points = [None, _affine(G), None]
        got = G1Point.from_jacobian(msm_g1(points, [5, 7, 9]))
        assert got == G * 7

    def test_duplicated_points(self):
        points = [_affine(G * 5)] * 6
        scalars = [1, 2, 3, 4, 5, 6]
        expected = G1Point.from_jacobian(naive_msm_g1(points, scalars))
        assert G1Point.from_jacobian(msm_g1(points, scalars)) == expected

    def test_opposite_points_cancel(self):
        p = G * 11
        points = [_affine(p), _affine(-p)]
        assert G1Point.from_jacobian(msm_g1(points, [9, 9])).is_infinity()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            msm_g1([_affine(G)], [1, 2])

    def test_carry_into_top_window(self):
        # Scalars recoding to all-maximal digits exercise the carry that
        # spills past bit_length // c windows.
        for k in (2**21 - 1, 2**127 - 1, 2**130 - 1):
            expected = G1Point.from_jacobian(naive_msm_g1([_affine(G)], [k]))
            assert G1Point.from_jacobian(msm_g1([_affine(G)], [k])) == expected


@pytest.mark.usefixtures("g1_msm_path")
@pytest.mark.parametrize("g1_msm_path", ["python"], indirect=True)
class TestGlvMsmAgainstNaivePure(TestGlvMsmAgainstNaive):
    """:class:`TestGlvMsmAgainstNaive` on the pure-Python G1 path (the class
    itself runs on whichever path the process has)."""
