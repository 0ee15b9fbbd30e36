"""G2 arithmetic for BN254: y^2 = x^3 + 3/xi over Fp2 (D-type sextic twist).

G2 points appear only a handful of times per proof (one MSM for the B
commitment, a few fixed points in the keys), so unlike
:mod:`repro.curves.g1` this module keeps the readable class-based style with
:class:`~repro.field.tower.Fp2Element` coordinates.

Includes the untwist-Frobenius-twist endomorphism ``psi`` needed by the
optimal-Ate Miller loop and by :meth:`G2Point.in_subgroup`, which checks
order-r membership through a ``psi`` identity instead of multiplying by r
(every G2 point of an untrusted proof goes through it).  Importing the
module verifies that the generator passes that check.
"""

from __future__ import annotations

from typing import Tuple

from ..field.tower import FROB_GAMMA, Fp2Element, fp2_batch_inverse
from .bn254 import G2_COFACTOR, G2_GENERATOR, R, TWIST_B, X

__all__ = [
    "G2Point",
    "psi",
    "G2Jacobian",
    "G2_INFINITY_JAC",
    "g2_jac_double",
    "g2_jac_add",
    "g2_jac_add_mixed",
    "g2_jac_scalar_mul",
    "g2_jac_is_infinity",
    "g2_to_jacobian",
    "g2_from_jacobian",
    "g2_jac_to_affine_many",
    "g2_batch_affine_add",
]

# Frobenius constants for psi: x -> conj(x) * xi^((p-1)/3),
#                              y -> conj(y) * xi^((p-1)/2).
_PSI_X = FROB_GAMMA[2]
_PSI_Y = FROB_GAMMA[3]


class G2Point:
    """An immutable affine G2 point; ``G2Point.infinity()`` is the identity."""

    __slots__ = ("x", "y", "_infinity")

    def __init__(self, x: Fp2Element, y: Fp2Element, *, _infinity: bool = False):
        self._infinity = _infinity
        zero = Fp2Element.zero()
        self.x = zero if _infinity else x
        self.y = zero if _infinity else y

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def infinity() -> "G2Point":
        zero = Fp2Element.zero()
        return G2Point(zero, zero, _infinity=True)

    @staticmethod
    def generator() -> "G2Point":
        return G2Point(*G2_GENERATOR)

    # -- predicates ----------------------------------------------------------------

    def is_infinity(self) -> bool:
        return self._infinity

    def is_on_curve(self) -> bool:
        if self._infinity:
            return True
        return self.y.square() == self.x.square() * self.x + TWIST_B

    def in_subgroup(self) -> bool:
        """Membership in the order-r subgroup (``r * Q == O``).

        Decided without the 254-bit multiplication: on the whole twist
        curve of a BN curve, ``Q`` has order dividing r exactly when
        ``[x+1]Q + psi([x]Q) + psi^2([x]Q) == psi^3([2x]Q)`` (Dai, Lin,
        Zhao, Zhou, ePrint 2022/348, the test gnark-crypto runs) -- one
        63-bit Jacobian multiplication by the curve parameter, three
        applications of :func:`psi` and four affine additions.
        ``tests/reference/g2.py`` keeps the definition as the oracle.
        """
        if not self.is_on_curve():
            return False
        xq = g2_from_jacobian(g2_jac_scalar_mul(g2_to_jacobian(self), X))
        psi_xq = psi(xq)
        psi2_xq = psi(psi_xq)
        return xq + self + psi_xq + psi2_xq == psi(psi2_xq.double())

    def clear_cofactor(self) -> "G2Point":
        """Map an arbitrary twist-curve point into the order-r subgroup."""
        return self * G2_COFACTOR

    # -- group law --------------------------------------------------------------------

    def __add__(self, other: "G2Point") -> "G2Point":
        if self._infinity:
            return other
        if other._infinity:
            return self
        if self.x == other.x:
            if self.y == other.y:
                return self.double()
            return G2Point.infinity()
        slope = (other.y - self.y) * (other.x - self.x).inverse()
        x3 = slope.square() - self.x - other.x
        y3 = slope * (self.x - x3) - self.y
        return G2Point(x3, y3)

    def double(self) -> "G2Point":
        if self._infinity or self.y.is_zero():
            return G2Point.infinity()
        slope = self.x.square().scale(3) * (self.y + self.y).inverse()
        x3 = slope.square() - self.x - self.x
        y3 = slope * (self.x - x3) - self.y
        return G2Point(x3, y3)

    def __sub__(self, other: "G2Point") -> "G2Point":
        return self + (-other)

    def __neg__(self) -> "G2Point":
        if self._infinity:
            return self
        return G2Point(self.x, -self.y)

    def __mul__(self, scalar: int) -> "G2Point":
        k = int(scalar)
        if k < 0:
            return (-self) * (-k)
        if k == 0 or self._infinity:
            return G2Point.infinity()
        acc = G2Point.infinity()
        for bit in bin(k)[2:]:
            acc = acc.double()
            if bit == "1":
                acc = acc + self
        return acc

    __rmul__ = __mul__

    # -- plumbing ------------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, G2Point):
            return NotImplemented
        if self._infinity or other._infinity:
            return self._infinity and other._infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self._infinity, self.x, self.y))

    def __repr__(self) -> str:
        if self._infinity:
            return "G2Point(infinity)"
        return f"G2Point({self.x!r}, {self.y!r})"


# -- Jacobian fast path ---------------------------------------------------------
#
# Affine G2 addition costs an Fp2 inversion per step, which dominates large
# fixed-base/multi-scalar workloads in the trusted setup and prover.  These
# helpers mirror the raw-integer Jacobian formulas of repro.curves.g1 with
# Fp2 coordinates; ``z == 0`` encodes infinity.

G2Jacobian = Tuple[Fp2Element, Fp2Element, Fp2Element]

_ZERO = Fp2Element.zero()
_ONE = Fp2Element.one()

G2_INFINITY_JAC: G2Jacobian = (_ONE, _ONE, _ZERO)


def g2_jac_is_infinity(pt: G2Jacobian) -> bool:
    return pt[2].is_zero()


def g2_jac_double(pt: G2Jacobian) -> G2Jacobian:
    x, y, z = pt
    if z.is_zero() or y.is_zero():
        return G2_INFINITY_JAC
    a = x.square()
    b = y.square()
    c = b.square()
    t = x + b
    d = (t.square() - a - c)
    d = d + d
    e = a + a + a
    f = e.square()
    x3 = f - d - d
    c8 = c + c
    c8 = c8 + c8
    c8 = c8 + c8
    y3 = e * (d - x3) - c8
    yz = y * z
    z3 = yz + yz
    return (x3, y3, z3)


def g2_jac_add(p: G2Jacobian, q: G2Jacobian) -> G2Jacobian:
    if p[2].is_zero():
        return q
    if q[2].is_zero():
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1z1 = z1.square()
    z2z2 = z2.square()
    u1 = x1 * z2z2
    u2 = x2 * z1z1
    s1 = y1 * z2 * z2z2
    s2 = y2 * z1 * z1z1
    h = u2 - u1
    rr = s2 - s1
    if h.is_zero():
        if rr.is_zero():
            return g2_jac_double(p)
        return G2_INFINITY_JAC
    h2 = h + h
    i = h2.square()
    j = h * i
    rr2 = rr + rr
    v = u1 * i
    x3 = rr2.square() - j - v - v
    s1j = s1 * j
    y3 = rr2 * (v - x3) - s1j - s1j
    zs = z1 + z2
    z3 = (zs.square() - z1z1 - z2z2) * h
    return (x3, y3, z3)


def g2_jac_add_mixed(
    p: G2Jacobian, q_affine: Tuple[Fp2Element, Fp2Element]
) -> G2Jacobian:
    """Mixed addition: Jacobian ``p`` plus affine ``q`` (madd-2007-bl)."""
    if p[2].is_zero():
        return (q_affine[0], q_affine[1], _ONE)
    x1, y1, z1 = p
    x2, y2 = q_affine
    z1z1 = z1.square()
    u2 = x2 * z1z1
    s2 = y2 * z1 * z1z1
    h = u2 - x1
    rr = s2 - y1
    if h.is_zero():
        if rr.is_zero():
            return g2_jac_double(p)
        return G2_INFINITY_JAC
    hh = h.square()
    i = hh + hh
    i = i + i
    j = h * i
    rr2 = rr + rr
    v = x1 * i
    x3 = rr2.square() - j - v - v
    y1j = y1 * j
    y3 = rr2 * (v - x3) - y1j - y1j
    zh = z1 + h
    z3 = zh.square() - z1z1 - hh
    return (x3, y3, z3)


def g2_jac_to_affine_many(pts) -> list:
    """Normalize many Jacobian G2 points with one base-field inversion.

    Returns affine ``(x, y)`` Fp2 pairs (``None`` for infinity); the G2
    analogue of :func:`repro.curves.g1.jac_to_affine_many`.
    """
    zs = [pt[2] for pt in pts if not pt[2].is_zero()]
    invs = iter(fp2_batch_inverse(zs))
    out = []
    for x, y, z in pts:
        if z.is_zero():
            out.append(None)
            continue
        z_inv = next(invs)
        z2 = z_inv.square()
        out.append((x * z2, y * z2 * z_inv))
    return out


def g2_batch_affine_add(ps, qs) -> list:
    """Element-wise affine G2 addition with one shared inversion.

    ``ps`` and ``qs`` are parallel lists of affine ``(x, y)`` Fp2 pairs;
    returns the affine sums (``None`` where ``P + Q`` is infinity).  Handles
    the doubling case (``P == Q``) via the tangent slope.
    """
    n = len(ps)
    dens = [None] * n
    kinds = [0] * n  # 0 = add, 1 = double, 2 = infinity result
    for i in range(n):
        x1, y1 = ps[i]
        x2, y2 = qs[i]
        if x1 != x2:
            dens[i] = x2 - x1
        elif (y1 + y2).is_zero():
            kinds[i] = 2
            dens[i] = _ONE
        else:
            kinds[i] = 1
            dens[i] = y1 + y1
    invs = fp2_batch_inverse(dens)
    out = [None] * n
    for i in range(n):
        if kinds[i] == 2:
            continue
        x1, y1 = ps[i]
        if kinds[i] == 1:
            x2 = x1
            slope = x1.square().scale(3) * invs[i]
        else:
            x2, y2 = qs[i]
            slope = (y2 - y1) * invs[i]
        x3 = slope.square() - x1 - x2
        out[i] = (x3, slope * (x1 - x3) - y1)
    return out


def g2_jac_scalar_mul(pt: G2Jacobian, k: int) -> G2Jacobian:
    k %= R
    if k == 0 or pt[2].is_zero():
        return G2_INFINITY_JAC
    acc = G2_INFINITY_JAC
    for bit in bin(k)[2:]:
        acc = g2_jac_double(acc)
        if bit == "1":
            acc = g2_jac_add(acc, pt)
    return acc


def g2_to_jacobian(q: G2Point) -> G2Jacobian:
    if q.is_infinity():
        return G2_INFINITY_JAC
    return (q.x, q.y, _ONE)


def g2_from_jacobian(pt: G2Jacobian) -> G2Point:
    x, y, z = pt
    if z.is_zero():
        return G2Point.infinity()
    z_inv = z.inverse()
    z2 = z_inv.square()
    return G2Point(x * z2, y * z2 * z_inv)


def psi(q: G2Point) -> G2Point:
    """Untwist-Frobenius-twist endomorphism on twisted coordinates.

    Applying the p-power Frobenius to the untwisted point on E(Fp12) and
    twisting back yields ``(conj(x) * xi^((p-1)/3), conj(y) * xi^((p-1)/2))``.
    Used by the optimal-Ate pairing's two correction steps.
    """
    if q.is_infinity():
        return q
    return G2Point(q.x.conjugate() * _PSI_X, q.y.conjugate() * _PSI_Y)


# The import-time self-check repro.curves.bn254 cannot make itself (it sits
# below this module): the standard generator has order r.
if not G2Point.generator().in_subgroup():  # pragma: no cover
    raise AssertionError("G2 generator is not in the order-r subgroup")
