"""G1 arithmetic for BN254: y^2 = x^3 + 3 over Fp.

G1 operations dominate Groth16 proving (three large multi-scalar
multiplications), so this module works on raw integer Jacobian triples
``(X, Y, Z)`` -- ``Z == 0`` encodes the point at infinity -- with plain
``%``-arithmetic, which is several times faster in CPython than wrapping
coordinates in field-element objects.  G2 (used far less) keeps the readable
class-based style in :mod:`repro.curves.g2`.

The public, hashable, immutable view is :class:`G1Point` (affine).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..field.prime import batch_inverse_ints
from .bn254 import CURVE_B, G1_GENERATOR, P, R

__all__ = [
    "G1Point",
    "JacobianPoint",
    "G1_INFINITY_JAC",
    "jac_double",
    "jac_add",
    "jac_add_mixed",
    "jac_neg",
    "jac_scalar_mul",
    "jac_is_infinity",
    "jac_to_affine",
    "jac_to_affine_many",
    "affine_to_jac",
]

JacobianPoint = Tuple[int, int, int]

#: The point at infinity in Jacobian form.
G1_INFINITY_JAC: JacobianPoint = (1, 1, 0)


def jac_is_infinity(pt: JacobianPoint) -> bool:
    return pt[2] == 0


def jac_neg(pt: JacobianPoint) -> JacobianPoint:
    x, y, z = pt
    return (x, -y % P, z)


def jac_double(pt: JacobianPoint) -> JacobianPoint:
    """Point doubling (dbl-2009-l formulas, a = 0)."""
    x, y, z = pt
    if z == 0 or y == 0:
        return G1_INFINITY_JAC
    a = x * x % P
    b = y * y % P
    c = b * b % P
    t = x + b
    d = 2 * (t * t - a - c) % P
    e = 3 * a % P
    f = e * e % P
    x3 = (f - 2 * d) % P
    y3 = (e * (d - x3) - 8 * c) % P
    z3 = 2 * y * z % P
    return (x3, y3, z3)


def jac_add(p: JacobianPoint, q: JacobianPoint) -> JacobianPoint:
    """General Jacobian addition (add-2007-bl formulas)."""
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2 * z2z2 % P
    s2 = y2 * z1 * z1z1 % P
    h = (u2 - u1) % P
    rr = (s2 - s1) % P
    if h == 0:
        if rr == 0:
            return jac_double(p)
        return G1_INFINITY_JAC
    i = 4 * h * h % P
    j = h * i % P
    rr2 = 2 * rr % P
    v = u1 * i % P
    x3 = (rr2 * rr2 - j - 2 * v) % P
    y3 = (rr2 * (v - x3) - 2 * s1 * j) % P
    zs = z1 + z2
    z3 = (zs * zs - z1z1 - z2z2) * h % P
    return (x3, y3, z3)


def jac_add_mixed(p: JacobianPoint, q_affine: Tuple[int, int]) -> JacobianPoint:
    """Mixed addition: Jacobian ``p`` plus affine ``q`` (madd-2007-bl)."""
    if p[2] == 0:
        return (q_affine[0], q_affine[1], 1)
    x1, y1, z1 = p
    x2, y2 = q_affine
    z1z1 = z1 * z1 % P
    u2 = x2 * z1z1 % P
    s2 = y2 * z1 * z1z1 % P
    h = (u2 - x1) % P
    rr = (s2 - y1) % P
    if h == 0:
        if rr == 0:
            return jac_double(p)
        return G1_INFINITY_JAC
    hh = h * h % P
    i = 4 * hh % P
    j = h * i % P
    rr2 = 2 * rr % P
    v = x1 * i % P
    x3 = (rr2 * rr2 - j - 2 * v) % P
    y3 = (rr2 * (v - x3) - 2 * y1 * j) % P
    zh = z1 + h
    z3 = (zh * zh - z1z1 - hh) % P
    return (x3, y3, z3)


def jac_scalar_mul(pt: JacobianPoint, k: int) -> JacobianPoint:
    """Left-to-right double-and-add scalar multiplication."""
    k %= R
    if k == 0 or pt[2] == 0:
        return G1_INFINITY_JAC
    acc = G1_INFINITY_JAC
    for bit in bin(k)[2:]:
        acc = jac_double(acc)
        if bit == "1":
            acc = jac_add(acc, pt)
    return acc


def jac_to_affine(pt: JacobianPoint) -> Optional[Tuple[int, int]]:
    """Convert to affine coordinates; ``None`` for the point at infinity."""
    x, y, z = pt
    if z == 0:
        return None
    z_inv = pow(z, -1, P)
    z2 = z_inv * z_inv % P
    return (x * z2 % P, y * z2 * z_inv % P)


def jac_to_affine_many(
    pts: Sequence[JacobianPoint],
) -> List[Optional[Tuple[int, int]]]:
    """Normalize many Jacobian points with a single modular inversion.

    The per-point :func:`jac_to_affine` costs one ``pow(z, -1, P)`` each;
    Montgomery's trick turns N inversions into one plus ~3N multiplications.
    Used by the trusted setup (thousands of key points), fixed-base table
    construction, and proof-point normalization.
    """
    zs = [pt[2] for pt in pts if pt[2] != 0]
    invs = iter(batch_inverse_ints(zs, P))
    out: List[Optional[Tuple[int, int]]] = []
    for x, y, z in pts:
        if z == 0:
            out.append(None)
            continue
        z_inv = next(invs)
        z2 = z_inv * z_inv % P
        out.append((x * z2 % P, y * z2 * z_inv % P))
    return out


def affine_to_jac(affine: Optional[Tuple[int, int]]) -> JacobianPoint:
    if affine is None:
        return G1_INFINITY_JAC
    return (affine[0], affine[1], 1)


class G1Point:
    """An immutable affine G1 point; ``G1Point.infinity()`` is the identity."""

    __slots__ = ("x", "y", "_infinity")

    def __init__(self, x: int, y: int, *, _infinity: bool = False):
        self._infinity = _infinity
        if _infinity:
            self.x = 0
            self.y = 0
        else:
            self.x = x % P
            self.y = y % P

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def infinity() -> "G1Point":
        return G1Point(0, 0, _infinity=True)

    @staticmethod
    def generator() -> "G1Point":
        return G1Point(*G1_GENERATOR)

    @staticmethod
    def from_jacobian(pt: JacobianPoint) -> "G1Point":
        affine = jac_to_affine(pt)
        if affine is None:
            return G1Point.infinity()
        return G1Point(*affine)

    # -- predicates ---------------------------------------------------------------

    def is_infinity(self) -> bool:
        return self._infinity

    def is_on_curve(self) -> bool:
        if self._infinity:
            return True
        return (self.y * self.y - self.x**3 - CURVE_B) % P == 0

    def in_subgroup(self) -> bool:
        """G1 has cofactor 1: on-curve membership is subgroup membership."""
        return self.is_on_curve()

    # -- group law ------------------------------------------------------------------

    def to_jacobian(self) -> JacobianPoint:
        if self._infinity:
            return G1_INFINITY_JAC
        return (self.x, self.y, 1)

    def __add__(self, other: "G1Point") -> "G1Point":
        return G1Point.from_jacobian(jac_add(self.to_jacobian(), other.to_jacobian()))

    def __sub__(self, other: "G1Point") -> "G1Point":
        return self + (-other)

    def __neg__(self) -> "G1Point":
        if self._infinity:
            return self
        return G1Point(self.x, -self.y)

    def __mul__(self, scalar: int) -> "G1Point":
        return G1Point.from_jacobian(jac_scalar_mul(self.to_jacobian(), int(scalar)))

    __rmul__ = __mul__

    def double(self) -> "G1Point":
        return G1Point.from_jacobian(jac_double(self.to_jacobian()))

    # -- plumbing ----------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, G1Point):
            return NotImplemented
        if self._infinity or other._infinity:
            return self._infinity and other._infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self._infinity, self.x, self.y))

    def __repr__(self) -> str:
        if self._infinity:
            return "G1Point(infinity)"
        return f"G1Point({self.x}, {self.y})"
