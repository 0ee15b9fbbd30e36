"""The BN254 Ate pairing: e(G1, G2) -> Fp12.

Two Miller-loop variants are implemented:

* ``"optimal"`` -- the optimal-Ate pairing with loop count ``6x + 2`` plus
  the two Frobenius correction steps (what libsnark runs; the default).
* ``"ate"`` -- the plain Ate pairing with loop count ``t - 1 = 6x^2``, no
  correction steps.  Slower but simpler; kept as an independent reference
  implementation and as the subject of the pairing ablation benchmark.

Both share the same final exponentiation and the same Miller machinery,
which is two functions: :func:`_g2_lines` is the G2 side (the only place the
tangent/chord slopes are computed) and :func:`multi_miller_loop` is the walk
(the only place a line meets the accumulator).  :func:`precompute_g2` is
``list()`` of the former; :func:`pairing`, :func:`multi_pairing` and
:func:`pairing_check` are adapters over the latter.  The textbook pairing
this one is checked against lives in ``tests/reference/pairing.py``.

Line functions: for the D-type twist, the line through (untwisted) points of
G2 evaluated at ``P = (xP, yP)`` in G1 is the sparse element
``yP - (lambda * xP) w + (lambda * x_T - y_T) v w`` with all coefficients in
Fp2, consumed by :meth:`Fp12Element.mul_by_line`.

Final exponentiation: :func:`_easy_part` (one inversion, Frobenius maps)
lands in the cyclotomic subgroup; from there on -- and only from there on --
every squaring is :meth:`Fp12Element.cyclotomic_square` and every inverse a
conjugation.  The hard part is three runs of one chain, :func:`_exp_by_neg_x`,
plus a dozen small powers.  :func:`final_exponentiation_naive` (generic
``pow`` with the full 1016-bit exponent) is the oracle it is tested against.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from ..field.prime import BN254_P as P
from ..field.prime import BN254_R as R
from ..field.prime import BN254_X as X
from ..field.tower import Fp2Element, Fp12Element
from .bn254 import ATE_LOOP_COUNT, OPTIMAL_ATE_LOOP_COUNT
from .g1 import G1Point
from .g2 import G2Point, psi

__all__ = [
    "pairing",
    "multi_pairing",
    "multi_miller_loop",
    "pairing_check",
    "precompute_g2",
    "G2Precomputed",
    "final_exponentiation",
    "final_exponentiation_naive",
]

# (p^4 - p^2 + 1) / r: the hard-part exponent of the final exponentiation.
_HARD_EXPONENT, _rem = divmod(P**4 - P**2 + 1, R)
if _rem:  # pragma: no cover - would indicate corrupted curve constants
    raise AssertionError("BN254 invariant violated: r does not divide p^4 - p^2 + 1")


def _easy_part(f: Fp12Element) -> Fp12Element:
    """``f^((p^6 - 1)(p^2 + 1))`` via conjugation and Frobenius maps.

    The result lies in the cyclotomic subgroup, where inversion is just
    conjugation -- the property the fast hard part exploits.
    """
    if f.is_zero():
        raise ZeroDivisionError("final exponentiation of zero")
    f1 = f.conjugate() * f.inverse()
    return f1.frobenius_n(2) * f1


def _exp_by_neg_x(f: Fp12Element) -> Fp12Element:
    """``f^(-x)`` for a cyclotomic-subgroup element (x = BN parameter).

    The one x-power chain of the hard part: square-and-multiply over the
    63 bits of x on Granger-Scott squarings, then the inverse by
    conjugation.  Only valid on :func:`_easy_part` outputs and their powers.
    """
    acc = f
    for bit in bin(X)[3:]:
        acc = acc.cyclotomic_square()
        if bit == "1":
            acc = acc * f
    return acc.conjugate()


class G2Precomputed:
    """Precomputed Miller-loop line coefficients for a fixed G2 point.

    The line through T (doubling) or T,Q (addition) evaluated at
    ``P = (xP, yP)`` is ``yP - (lambda xP) w + (lambda x_T - y_T) v w``;
    only the slope-dependent pieces involve Q's side of the computation.
    Storing ``(-lambda, lambda x - y)`` per Miller step removes all G2
    arithmetic (including the per-step Fp2 inversions) from pairing time
    -- libsnark's "G2 precomputation", used for the three fixed G2 points
    of a Groth16 verification key.
    """

    __slots__ = ("coeffs", "loop_count", "with_corrections")

    def __init__(self, coeffs, loop_count: int, with_corrections: bool):
        self.coeffs = coeffs
        self.loop_count = loop_count
        self.with_corrections = with_corrections


def _miller_steps(variant: str) -> Tuple[int, bool, str]:
    """``(loop_count, corrections, steps)`` of a pairing variant.

    ``steps`` is the Miller loop as one letter per line function: ``D``
    squares the accumulator and doubles T, ``A`` adds Q, and the
    optimal-Ate tail ``1``, ``2`` adds ``psi(Q)`` then ``-psi^2(Q)``.  Both
    sides of the loop read this one schedule.
    """
    if variant == "optimal":
        loop_count, corrections = OPTIMAL_ATE_LOOP_COUNT, True
    elif variant == "ate":
        loop_count, corrections = ATE_LOOP_COUNT, False
    else:
        raise ValueError(f"unknown pairing variant: {variant!r}")
    steps = "".join("DA" if bit == "1" else "D" for bit in bin(loop_count)[3:])
    return loop_count, corrections, steps + ("12" if corrections else "")


def _g2_lines(q: G2Point, steps: str) -> Iterator[Tuple[Fp2Element, Fp2Element]]:
    """The G2 side of the Miller loop: ``(-lambda, lambda*x - y)`` per step.

    Walks T from Q through ``steps`` in affine twist coordinates, yielding
    the slope-dependent line coefficients as it goes; everything that
    depends on the G1 argument is applied by :func:`multi_miller_loop`.
    """
    q1 = psi(q)
    q2 = -psi(q1)
    addend = {"A": (q.x, q.y), "1": (q1.x, q1.y), "2": (q2.x, q2.y)}
    x1, y1 = q.x, q.y
    for step in steps:
        x2, y2 = (x1, y1) if step == "D" else addend[step]
        if x1 == x2 and y1 == y2:
            lam = x1.square().scale(3) * (y1 + y1).inverse()
        else:
            lam = (y2 - y1) * (x2 - x1).inverse()
        yield -lam, lam * x2 - y2
        x3 = lam.square() - x1 - x2
        y1 = lam * (x1 - x3) - y1
        x1 = x3


def precompute_g2(q: G2Point, variant: str = "optimal") -> G2Precomputed:
    """Run the G2 side of the Miller loop once, capturing line coefficients."""
    if q.is_infinity():
        raise ValueError("cannot precompute the point at infinity")
    loop_count, corrections, steps = _miller_steps(variant)
    return G2Precomputed(list(_g2_lines(q, steps)), loop_count, corrections)


def multi_miller_loop(
    pairs: Iterable[Tuple[G1Point, object]], variant: str = "optimal"
) -> Fp12Element:
    """Shared Miller loop: ``prod_i f_{c, Q_i}(P_i)`` with ONE squaring chain.

    Because squaring distributes over the product
    (``(prod f_i)^2 = prod f_i^2``), the per-bit ``square()`` of the
    accumulator is shared across all pairs; each step then multiplies in
    every pair's sparse line evaluation.  n pairs cost roughly one squaring
    chain plus n line-evaluation chains, versus n full Miller loops one
    pair at a time -- the kernel behind batch verification, and the only
    Miller walk in the package.

    Each Q may be a live :class:`~repro.curves.g2.G2Point` (its lines are
    computed as the walk consumes them) or a :class:`G2Precomputed`
    (key-fixed points with captured line coefficients); mixing both in one
    call is the Groth16-verify shape.  Precomputations made for a different
    variant are rejected.  Pairs with a point at infinity contribute the
    factor 1 and are skipped.
    """
    loop_count, corrections, steps = _miller_steps(variant)
    lanes: List[Tuple[int, Fp2Element, Iterator]] = []
    for p, q in pairs:
        if isinstance(q, G2Precomputed):
            if q.loop_count != loop_count or q.with_corrections != corrections:
                raise ValueError(
                    "G2 precomputation was made for a different pairing "
                    f"variant (want {variant!r})"
                )
            lines = iter(q.coeffs)
        elif q.is_infinity():
            continue
        else:
            lines = _g2_lines(q, steps)
        if not p.is_infinity():
            lanes.append((p.x, Fp2Element(p.y, 0), lines))

    f = Fp12Element.one()
    if not lanes:
        return f
    for step in steps:
        if step == "D":
            f = f.square()
        for xp, yp, lines in lanes:
            neg_lam, c4 = next(lines)
            f = f.mul_by_line(yp, neg_lam.scale(xp), c4)
    return f


def final_exponentiation_naive(f: Fp12Element) -> Fp12Element:
    """Reference final exponentiation: hard part by direct square-and-
    multiply with the 1016-bit exponent ``(p^4 - p^2 + 1)/r``.

    Correct by construction (the exponent identity is asserted at import);
    the optimized chain below is property-tested against this.
    """
    return _easy_part(f).pow(_HARD_EXPONENT)


def final_exponentiation(f: Fp12Element) -> Fp12Element:
    """Raise ``f`` to ``(p^12 - 1) / r``.

    Easy part via Frobenius; hard part using the Devegili et al. base-p
    decomposition of ``(p^4 - p^2 + 1)/r`` for BN curves::

        lambda_3 = 1
        lambda_2 = 6x^2 + 1
        lambda_1 = 1 - (36x^3 + 18x^2 + 12x)
        lambda_0 =   - (36x^3 + 30x^2 + 18x + 2)

    (identity asserted at import).  Three 63-bit exponentiations by the
    curve parameter x replace the naive 1016-bit power, and every squaring
    after the easy part is a cyclotomic one (:func:`_exp_by_neg_x`) -- ~4-5x
    faster than :func:`final_exponentiation_naive`, which it is
    property-tested against.
    """
    elt = _easy_part(f)
    csq = Fp12Element.cyclotomic_square  # elt and its powers only
    f_nx = _exp_by_neg_x(elt)  # elt^(-x)
    f_x2 = _exp_by_neg_x(f_nx)  # elt^(x^2)
    f_nx3 = _exp_by_neg_x(f_x2)  # elt^(-x^3)

    # Shared small powers (exponents in the comments).
    f_nx6 = csq(csq(f_nx) * f_nx)  # -6x
    f_nx12 = csq(f_nx6)  # -12x
    f_nx18 = f_nx12 * f_nx6  # -18x
    f_x2_6 = csq(csq(f_x2) * f_x2)  # 6x^2
    f_x2_12 = csq(f_x2_6)  # 12x^2
    f_x2_18 = f_x2_12 * f_x2_6  # 18x^2
    f_x2_30 = f_x2_18 * f_x2_12  # 30x^2
    f_nx3_6 = csq(csq(f_nx3) * f_nx3)  # -6x^3
    f_nx3_36 = csq(f_nx3_6 * csq(f_nx3_6))  # -36x^3

    y2 = f_x2_6 * elt  # elt^lambda_2
    y1 = f_nx3_36 * f_x2_18.conjugate() * f_nx12 * elt  # elt^lambda_1
    y0 = f_nx3_36 * (f_x2_30 * csq(elt)).conjugate() * f_nx18  # elt^lambda_0

    return (
        y0
        * y1.frobenius()
        * y2.frobenius_n(2)
        * elt.frobenius_n(3)
    )


def pairing(p: G1Point, q: G2Point, variant: str = "optimal") -> Fp12Element:
    """The reduced pairing ``e(P, Q)``.

    ``variant`` selects the Miller loop: ``"optimal"`` (6x+2, with
    corrections) or ``"ate"`` (t-1, plain).  Both are bilinear and
    non-degenerate; they differ by a fixed exponent, so mixing variants in
    one product is not meaningful.
    """
    return multi_pairing([(p, q)], variant)


def multi_pairing(
    pairs: Iterable[Tuple[G1Point, G2Point]], variant: str = "optimal"
) -> Fp12Element:
    """Product of pairings, sharing one final exponentiation.

    ``prod_i e(P_i, Q_i)`` -- the workhorse of Groth16 verification, where a
    four-term product comparison reduces to one multi-pairing == 1 check.

    Runs on the shared :func:`multi_miller_loop` (one squaring chain for
    all pairs), so each Q may also be a :class:`G2Precomputed`.
    """
    return final_exponentiation(multi_miller_loop(pairs, variant))


def pairing_check(
    pairs: Sequence[Tuple[G1Point, G2Point]], variant: str = "optimal"
) -> bool:
    """True iff ``prod_i e(P_i, Q_i) == 1``."""
    return multi_pairing(pairs, variant).is_one()
