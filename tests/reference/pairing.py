"""Textbook BN254 Ate pairings: the oracle for ``repro.curves.pairing``.

Shares nothing with the production Miller walk but the field tower and
``final_exponentiation_naive``:

* Q is untwisted into E(Fp12): ``(x, y) -> (x w^2, y w^3)``, a point of
  ``y^2 = x^3 + 3`` itself, so no twist-specific formula appears below.
* The loop is generic affine chord-and-tangent arithmetic over Fp12, one
  full Fp12 inversion per step; no precomputation, no shared chain.
* Each line ``l(P) = (yP - yT) - lambda (xP - xT)`` is a dense Fp12 element
  multiplied in with the general product (no ``mul_by_line``).
* The optimal-Ate correction points are p-power Frobenius images taken
  coordinate-wise in Fp12 (no ``psi``, no twist constants).

Vertical lines are dropped as usual (they lie in a proper subfield and die
in the final exponentiation); for the same reason a raw Miller value here
differs from production's by a subfield factor, and only reduced pairings
are comparable.
"""

from repro.curves.bn254 import ATE_LOOP_COUNT, OPTIMAL_ATE_LOOP_COUNT
from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point
from repro.curves.pairing import final_exponentiation_naive
from repro.field.tower import Fp2Element, Fp6Element, Fp12Element

_ZERO2 = Fp2Element(0, 0)


def _from_fp(value):
    """Embed a base-field element into Fp12."""
    return Fp12Element(
        Fp6Element(Fp2Element(int(value), 0), _ZERO2, _ZERO2), Fp6Element.zero()
    )


def untwist(q: G2Point):
    """``(x, y)`` on the twist to ``(x w^2, y w^3)`` on E(Fp12).

    Fp12 is ``Fp6[w]/(w^2 - v)``, so ``w^2 = v`` and ``w^3 = v w``.
    """
    x = Fp12Element(Fp6Element(_ZERO2, q.x, _ZERO2), Fp6Element.zero())
    y = Fp12Element(Fp6Element.zero(), Fp6Element(_ZERO2, q.y, _ZERO2))
    return x, y


def _line_and_sum(t, q, p):
    """The chord through ``t`` and ``q`` (tangent when equal) on
    ``y^2 = x^3 + 3``: returns ``(line evaluated at p, t + q)``."""
    (x1, y1), (x2, y2) = t, q
    if x1 == x2:
        if y1 != y2:
            raise ValueError("vertical line: t = -q cannot occur in a Miller loop")
        lam = (x1 * x1 * _from_fp(3)) * (y1 + y1).inverse()
    else:
        lam = (y2 - y1) * (x2 - x1).inverse()
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    xp, yp = p
    return (yp - y1) - lam * (xp - x1), (x3, y3)


def reference_pairing(p: G1Point, q: G2Point, variant: str = "optimal"):
    """The reduced pairing ``e(P, Q)``, by the book."""
    loop_count = {"optimal": OPTIMAL_ATE_LOOP_COUNT, "ate": ATE_LOOP_COUNT}[variant]
    if p.is_infinity() or q.is_infinity():
        return Fp12Element.one()
    p12 = (_from_fp(p.x), _from_fp(p.y))
    q12 = untwist(q)
    f, t = Fp12Element.one(), q12
    for bit in bin(loop_count)[3:]:
        line, t = _line_and_sum(t, t, p12)
        f = f * f * line
        if bit == "1":
            line, t = _line_and_sum(t, q12, p12)
            f = f * line
    if variant == "optimal":
        q1 = (q12[0].frobenius(), q12[1].frobenius())
        q2 = (q1[0].frobenius(), -q1[1].frobenius())
        for addend in (q1, q2):
            line, t = _line_and_sum(t, addend, p12)
            f = f * line
    return final_exponentiation_naive(f)
