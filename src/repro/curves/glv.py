"""GLV endomorphism decomposition for BN254 G1.

BN254 has j-invariant 0 (``y^2 = x^3 + 3``), so Fp contains a primitive
cube root of unity ``beta`` and the map ``phi(x, y) = (beta * x, y)`` is a
curve endomorphism.  On the order-r subgroup it acts as multiplication by a
scalar ``lam`` with ``lam^2 + lam + 1 = 0 (mod r)``, which enables the
Gallant-Lambert-Vanstone trick: split any 254-bit scalar ``k`` into
``k = k1 + k2 * lam (mod r)`` with ``|k1|, |k2| ~ sqrt(r)`` (~128 bits), and
replace one full-length scalar mul by two half-length ones sharing the
doubling chain -- or, in a Pippenger MSM, halve the number of digit windows.

Constants are *derived at import time* rather than hard-coded: ``beta`` and
``lam`` are computed as roots of ``z^2 + z + 1`` via Tonelli-Shanks, matched
against each other on the group generator, and the short lattice basis for
the decomposition comes from the classic truncated extended-Euclid run on
``(r, lam)`` (Guide to ECC, Alg. 3.74).  A corrupted constant cannot
survive import: the pairing check below raises.
"""

from __future__ import annotations

from typing import Tuple

from ..field.prime import tonelli_shanks
from .bn254 import G1_GENERATOR, P, R
from .g1 import jac_scalar_mul, jac_to_affine

__all__ = ["GLV_BETA", "GLV_LAMBDA", "glv_decompose", "glv_endomorphism"]


def _cube_roots_of_unity(modulus: int) -> Tuple[int, int]:
    """The two primitive cube roots of unity mod ``modulus``.

    Roots of ``z^2 + z + 1``: ``(-1 +- sqrt(-3)) / 2``.
    """
    s = tonelli_shanks(modulus - 3, modulus)
    if s is None:  # pragma: no cover - both BN254 fields have sqrt(-3)
        raise ArithmeticError("field has no primitive cube root of unity")
    inv2 = pow(2, -1, modulus)
    r1 = (s - 1) * inv2 % modulus
    r2 = (-s - 1) * inv2 % modulus
    return r1, r2


def _match_beta_to_lambda(lam: int) -> int:
    """Pick the ``beta`` for which ``phi = [lam]`` (not ``[lam^2]``) on G1."""
    gx, gy = G1_GENERATOR
    target = jac_to_affine(jac_scalar_mul((gx, gy, 1), lam))
    for beta in _cube_roots_of_unity(P):
        if (beta * gx % P, gy) == target:
            return beta
    raise ArithmeticError("no cube root of unity matches lambda on G1")


#: Eigenvalue of the endomorphism on the r-order subgroup.
GLV_LAMBDA = _cube_roots_of_unity(R)[0]

#: Cube root of unity in Fp with phi(x, y) = (GLV_BETA * x, y) == [GLV_LAMBDA].
GLV_BETA = _match_beta_to_lambda(GLV_LAMBDA)


def _short_basis(lam: int, order: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Two short vectors spanning the lattice ``{(a, b) : a + b*lam = 0 mod r}``.

    Truncated extended Euclid on ``(order, lam)``: every remainder step gives
    a lattice vector ``(r_i, -t_i)``; stopping around ``sqrt(order)`` yields
    vectors of length ~``sqrt(order)``.
    """
    sqrt_order = 1 << ((order.bit_length() + 1) // 2)
    r0, r1 = order, lam
    t0, t1 = 0, 1
    while r1 >= sqrt_order:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    # Here r0 >= sqrt_order > r1: candidates are (r1, -t1) and the shorter
    # of (r0, -t0), (r2, -t2).
    q = r0 // r1
    r2 = r0 - q * r1
    t2 = t0 - q * t1
    v1 = (r1, -t1)
    if r0 * r0 + t0 * t0 <= r2 * r2 + t2 * t2:
        v2 = (r0, -t0)
    else:
        v2 = (r2, -t2)
    return v1, v2


_V1, _V2 = _short_basis(GLV_LAMBDA, R)


def glv_decompose(k: int) -> Tuple[int, int]:
    """Split ``k`` into ``(k1, k2)`` with ``k1 + k2 * lam = k (mod r)``.

    Both halves are ~128 bits (possibly negative).  Round the coordinates of
    ``k`` in the short basis to the nearest lattice vector and subtract.
    """
    k %= R
    a1, b1 = _V1
    a2, b2 = _V2
    # round(x / r) as floor((2x + r) / 2r); Python floordiv floors negatives.
    c1 = (2 * b2 * k + R) // (2 * R)
    c2 = (-2 * b1 * k + R) // (2 * R)
    k1 = k - c1 * a1 - c2 * a2
    k2 = -c1 * b1 - c2 * b2
    return k1, k2


def glv_endomorphism(affine: Tuple[int, int]) -> Tuple[int, int]:
    """``phi(P)``: one Fp multiplication, acts as ``[lam]`` on the subgroup."""
    return (GLV_BETA * affine[0] % P, affine[1])


def _self_check() -> None:
    gx, gy = G1_GENERATOR
    for k in (1, 2, 0xDEADBEEF, R - 1, (R - 1) // 2):
        k1, k2 = glv_decompose(k)
        if (k1 + k2 * GLV_LAMBDA) % R != k % R:
            raise AssertionError("GLV decomposition identity failed")
        if max(abs(k1), abs(k2)).bit_length() > 130:
            raise AssertionError("GLV decomposition produced oversized halves")
    phi_g = glv_endomorphism((gx, gy))
    if jac_to_affine(jac_scalar_mul((gx, gy, 1), GLV_LAMBDA)) != phi_g:
        raise AssertionError("endomorphism does not act as lambda on G1")


_self_check()
