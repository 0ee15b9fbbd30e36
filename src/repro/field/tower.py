"""BN254 extension-field tower: Fp2 -> Fp6 -> Fp12.

The optimal-Ate pairing used by Groth16 takes values in Fp12, built as the
standard tower for BN curves:

* ``Fp2  = Fp[u]  / (u^2 + 1)``
* ``Fp6  = Fp2[v] / (v^3 - xi)`` with the non-residue ``xi = 9 + u``
* ``Fp12 = Fp6[w] / (w^2 - v)``

Layout: an :class:`Fp2Element` holds two residues, reduced into ``[0, p)``
by its constructor and nowhere else; :class:`Fp6Element` and
:class:`Fp12Element` nest those (``b0/b1`` -> ``a0..a2`` -> ``c0/c1``) and
are treated as immutable.

Where reduction happens: the products that pairings spend their time in
(:meth:`Fp6Element.__mul__` and :class:`Fp12Element`'s ``*``, ``square``,
``mul_by_line`` and ``cyclotomic_square``) unpack their operands to raw
coefficients, run the Karatsuba formulas and the ``xi`` twist on plain
unreduced integers (the ``_fp*_raw`` helpers below, where those formulas are
written once), and reduce each output coefficient exactly once, when the
result's ``Fp2Element``s are built.  Everything else (additions, inverses,
Frobenius maps) works element by element.  ``tests/reference/fp12.py`` is
the oracle these kernels are held to; it shares no code with this module.

Frobenius-map coefficients are *computed at import time* from first
principles (powers of ``xi``) rather than hard-coded, which keeps the module
self-verifying: a typo in a constant would break the bilinearity property
tests immediately.
"""

from __future__ import annotations

from operator import add
from typing import Tuple

from .prime import BN254_P as P

__all__ = [
    "Fp2Element",
    "Fp6Element",
    "Fp12Element",
    "XI",
    "FROB_GAMMA",
    "fp2_batch_inverse",
]


class Fp2Element:
    """Element ``c0 + c1*u`` of Fp2 with ``u^2 = -1``."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: int, c1: int):
        self.c0 = c0 % P
        self.c1 = c1 % P

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Fp2Element":
        return Fp2Element(0, 0)

    @staticmethod
    def one() -> "Fp2Element":
        return Fp2Element(1, 0)

    @staticmethod
    def from_int(n: int) -> "Fp2Element":
        return Fp2Element(n, 0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Fp2Element") -> "Fp2Element":
        return Fp2Element(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "Fp2Element") -> "Fp2Element":
        return Fp2Element(self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self) -> "Fp2Element":
        return Fp2Element(-self.c0, -self.c1)

    def __mul__(self, other: "Fp2Element") -> "Fp2Element":
        # Karatsuba: 3 base-field multiplications.
        a0, a1, b0, b1 = self.c0, self.c1, other.c0, other.c1
        t0 = a0 * b0
        t1 = a1 * b1
        t2 = (a0 + a1) * (b0 + b1)
        return Fp2Element(t0 - t1, t2 - t0 - t1)

    def scale(self, k: int) -> "Fp2Element":
        """Multiply by a base-field integer."""
        return Fp2Element(self.c0 * k, self.c1 * k)

    def square(self) -> "Fp2Element":
        # (a0 + a1 u)^2 = (a0+a1)(a0-a1) + 2 a0 a1 u
        a0, a1 = self.c0, self.c1
        return Fp2Element((a0 + a1) * (a0 - a1), 2 * a0 * a1)

    def inverse(self) -> "Fp2Element":
        a0, a1 = self.c0, self.c1
        norm = (a0 * a0 + a1 * a1) % P
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Fp2")
        inv = pow(norm, -1, P)
        return Fp2Element(a0 * inv, -a1 * inv)

    def conjugate(self) -> "Fp2Element":
        """Frobenius on Fp2 (p-th power): ``c0 - c1*u``."""
        return Fp2Element(self.c0, -self.c1)

    def mul_by_xi(self) -> "Fp2Element":
        """Multiply by the Fp6 non-residue ``xi = 9 + u``."""
        a0, a1 = self.c0, self.c1
        return Fp2Element(9 * a0 - a1, 9 * a1 + a0)

    def pow(self, exponent: int) -> "Fp2Element":
        result = Fp2Element.one()
        base = self
        e = exponent
        while e > 0:
            if e & 1:
                result = result * base
            base = base.square()
            e >>= 1
        return result

    # -- plumbing --------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Fp2Element)
            and self.c0 == other.c0
            and self.c1 == other.c1
        )

    def __hash__(self) -> int:
        return hash((self.c0, self.c1))

    def __repr__(self) -> str:
        return f"Fp2({self.c0}, {self.c1})"


def fp2_batch_inverse(elements) -> list:
    """Invert many Fp2 elements with one base-field inversion.

    Montgomery's trick works over any field; here each product step costs
    one Fp2 multiplication and the single inversion at the end is an
    :meth:`Fp2Element.inverse`.  Used by batch-affine G2 table building.
    """
    n = len(elements)
    if n == 0:
        return []
    prefix = [None] * n
    acc = Fp2Element.one()
    for i, e in enumerate(elements):
        prefix[i] = acc
        acc = acc * e
    inv = acc.inverse()
    out = [None] * n
    for i in range(n - 1, -1, -1):
        out[i] = inv * prefix[i]
        inv = inv * elements[i]
    return out


#: The Fp6/Fp12 tower non-residue.
XI = Fp2Element(9, 1)


# -- lazy-reduction helpers ---------------------------------------------------
#
# An Fp6 element is passed around here as its six coefficients
# ``(a0.c0, a0.c1, a1.c0, a1.c1, a2.c0, a2.c1)``; inputs may be unreduced
# sums, outputs are unreduced integers (possibly negative) for the caller to
# combine further and finally hand to ``_fp6_reduce``.


def _fp2_mul_raw(a0, a1, b0, b1):
    """``(a0 + a1 u)(b0 + b1 u)`` by Karatsuba, unreduced."""
    t0 = a0 * b0
    t1 = a1 * b1
    return t0 - t1, (a0 + a1) * (b0 + b1) - t0 - t1


def _fp6_raw(e: "Fp6Element"):
    a0, a1, a2 = e.a0, e.a1, e.a2
    return a0.c0, a0.c1, a1.c0, a1.c1, a2.c0, a2.c1


def _fp6_reduce(c00, c01, c10, c11, c20, c21) -> "Fp6Element":
    """The one place a raw product is reduced: once per coefficient."""
    return Fp6Element(
        Fp2Element(c00, c01), Fp2Element(c10, c11), Fp2Element(c20, c21)
    )


def _fp6_mul_raw(a, b):
    """Karatsuba product of two Fp6 coefficient sextuples (6 Fp2 products)."""
    a00, a01, a10, a11, a20, a21 = a
    b00, b01, b10, b11, b20, b21 = b
    t00, t01 = _fp2_mul_raw(a00, a01, b00, b01)
    t10, t11 = _fp2_mul_raw(a10, a11, b10, b11)
    t20, t21 = _fp2_mul_raw(a20, a21, b20, b21)
    # (a1 + a2)(b1 + b2) - t1 - t2, (a0 + a1)(b0 + b1) and (a0 + a2)(b0 + b2)
    m0, m1 = _fp2_mul_raw(a10 + a20, a11 + a21, b10 + b20, b11 + b21)
    m0 -= t10 + t20
    m1 -= t11 + t21
    n0, n1 = _fp2_mul_raw(a00 + a10, a01 + a11, b00 + b10, b01 + b11)
    k0, k1 = _fp2_mul_raw(a00 + a20, a01 + a21, b00 + b20, b01 + b21)
    return (
        9 * m0 - m1 + t00,
        9 * m1 + m0 + t01,
        n0 - t00 - t10 + 9 * t20 - t21,
        n1 - t01 - t11 + 9 * t21 + t20,
        k0 - t00 - t20 + t10,
        k1 - t01 - t21 + t11,
    )


def _fp6_mul_sparse_raw(a, b00, b01, b10, b11):
    """Product with the sparse ``b0 + b1*v`` (5 Fp2 products)."""
    a00, a01, a10, a11, a20, a21 = a
    t00, t01 = _fp2_mul_raw(a00, a01, b00, b01)
    t10, t11 = _fp2_mul_raw(a10, a11, b10, b11)
    m0, m1 = _fp2_mul_raw(a20, a21, b10, b11)
    n0, n1 = _fp2_mul_raw(a00 + a10, a01 + a11, b00 + b10, b01 + b11)
    k0, k1 = _fp2_mul_raw(a20, a21, b00, b01)
    return (
        9 * m0 - m1 + t00,
        9 * m1 + m0 + t01,
        n0 - t00 - t10,
        n1 - t01 - t11,
        k0 + t10,
        k1 + t11,
    )


def _fp4_square_raw(x0, x1, y0, y1):
    """``(x + y s)^2`` with ``s^2 = xi``: ``x^2 + xi y^2`` and ``2xy``.

    Three Fp2 squarings (of ``x``, ``y`` and ``x + y``), each computed as
    ``(c0 + c1)(c0 - c1) + 2 c0 c1 u``.
    """
    xx0, xx1 = (x0 + x1) * (x0 - x1), 2 * x0 * x1
    yy0, yy1 = (y0 + y1) * (y0 - y1), 2 * y0 * y1
    s0, s1 = x0 + y0, x1 + y1
    return (
        xx0 + 9 * yy0 - yy1,
        xx1 + 9 * yy1 + yy0,
        (s0 + s1) * (s0 - s1) - xx0 - yy0,
        2 * s0 * s1 - xx1 - yy1,
    )


def _fp12_reduce(t0, t1, mid) -> "Fp12Element":
    """Close a Karatsuba product over Fp6: ``(t0 + v*t1) + (mid - t0 - t1) w``."""
    p0, p1, p2, p3, p4, p5 = t0
    q0, q1, q2, q3, q4, q5 = t1
    m0, m1, m2, m3, m4, m5 = mid
    return Fp12Element(
        _fp6_reduce(
            p0 + 9 * q4 - q5, p1 + 9 * q5 + q4, p2 + q0, p3 + q1, p4 + q2, p5 + q3
        ),
        _fp6_reduce(
            m0 - p0 - q0, m1 - p1 - q1, m2 - p2 - q2,
            m3 - p3 - q3, m4 - p4 - q4, m5 - p5 - q5,
        ),
    )


class Fp6Element:
    """Element ``a0 + a1*v + a2*v^2`` of Fp6 with ``v^3 = xi``."""

    __slots__ = ("a0", "a1", "a2")

    def __init__(self, a0: Fp2Element, a1: Fp2Element, a2: Fp2Element):
        self.a0 = a0
        self.a1 = a1
        self.a2 = a2

    @staticmethod
    def zero() -> "Fp6Element":
        return Fp6Element(Fp2Element.zero(), Fp2Element.zero(), Fp2Element.zero())

    @staticmethod
    def one() -> "Fp6Element":
        return Fp6Element(Fp2Element.one(), Fp2Element.zero(), Fp2Element.zero())

    def __add__(self, other: "Fp6Element") -> "Fp6Element":
        return Fp6Element(self.a0 + other.a0, self.a1 + other.a1, self.a2 + other.a2)

    def __sub__(self, other: "Fp6Element") -> "Fp6Element":
        return Fp6Element(self.a0 - other.a0, self.a1 - other.a1, self.a2 - other.a2)

    def __neg__(self) -> "Fp6Element":
        return Fp6Element(-self.a0, -self.a1, -self.a2)

    def __mul__(self, other: "Fp6Element") -> "Fp6Element":
        return _fp6_reduce(*_fp6_mul_raw(_fp6_raw(self), _fp6_raw(other)))

    def square(self) -> "Fp6Element":
        return self * self

    def mul_by_v(self) -> "Fp6Element":
        """Multiply by ``v`` (shifts coefficients, wrapping through xi)."""
        return Fp6Element(self.a2.mul_by_xi(), self.a0, self.a1)

    def scale_fp2(self, k: Fp2Element) -> "Fp6Element":
        return Fp6Element(self.a0 * k, self.a1 * k, self.a2 * k)

    def inverse(self) -> "Fp6Element":
        a0, a1, a2 = self.a0, self.a1, self.a2
        c0 = a0.square() - (a1 * a2).mul_by_xi()
        c1 = a2.square().mul_by_xi() - a0 * a1
        c2 = a1.square() - a0 * a2
        norm = a0 * c0 + (a2 * c1 + a1 * c2).mul_by_xi()
        inv = norm.inverse()
        return Fp6Element(c0 * inv, c1 * inv, c2 * inv)

    def frobenius(self) -> "Fp6Element":
        """The p-power Frobenius map on Fp6.

        ``v^p = xi^((p-1)/3) * v``, so the ``v^i`` coefficient picks up
        ``xi^(i*(p-1)/3) = FROB_GAMMA[2i]`` after conjugating.
        """
        return Fp6Element(
            self.a0.conjugate(),
            self.a1.conjugate() * FROB_GAMMA[2],
            self.a2.conjugate() * FROB_GAMMA[4],
        )

    def is_zero(self) -> bool:
        return self.a0.is_zero() and self.a1.is_zero() and self.a2.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Fp6Element)
            and self.a0 == other.a0
            and self.a1 == other.a1
            and self.a2 == other.a2
        )

    def __hash__(self) -> int:
        return hash((self.a0, self.a1, self.a2))

    def __repr__(self) -> str:
        return f"Fp6({self.a0!r}, {self.a1!r}, {self.a2!r})"


# Frobenius coefficients gamma_i = xi^(i*(p-1)/6), i = 1..5, computed from
# first principles at import.  gamma_2 = xi^((p-1)/3) and gamma_3 =
# xi^((p-1)/2) double as the G2 untwist-Frobenius-twist constants.
FROB_GAMMA: Tuple[Fp2Element, ...] = tuple(
    XI.pow(i * (P - 1) // 6) for i in range(6)
)


class Fp12Element:
    """Element ``b0 + b1*w`` of Fp12 with ``w^2 = v``."""

    __slots__ = ("b0", "b1")

    def __init__(self, b0: Fp6Element, b1: Fp6Element):
        self.b0 = b0
        self.b1 = b1

    @staticmethod
    def zero() -> "Fp12Element":
        return Fp12Element(Fp6Element.zero(), Fp6Element.zero())

    @staticmethod
    def one() -> "Fp12Element":
        return Fp12Element(Fp6Element.one(), Fp6Element.zero())

    def __add__(self, other: "Fp12Element") -> "Fp12Element":
        return Fp12Element(self.b0 + other.b0, self.b1 + other.b1)

    def __sub__(self, other: "Fp12Element") -> "Fp12Element":
        return Fp12Element(self.b0 - other.b0, self.b1 - other.b1)

    def __neg__(self) -> "Fp12Element":
        return Fp12Element(-self.b0, -self.b1)

    def __mul__(self, other: "Fp12Element") -> "Fp12Element":
        # Karatsuba over Fp6: 3 Fp6 multiplications.
        a0, a1 = _fp6_raw(self.b0), _fp6_raw(self.b1)
        c0, c1 = _fp6_raw(other.b0), _fp6_raw(other.b1)
        return _fp12_reduce(
            _fp6_mul_raw(a0, c0),
            _fp6_mul_raw(a1, c1),
            _fp6_mul_raw(map(add, a0, a1), map(add, c0, c1)),
        )

    def square(self) -> "Fp12Element":
        # Complex squaring: (a0 + a1 w)^2 with w^2 = v is
        # (a0 + a1)(a0 + v a1) - t - v t  +  2t w   for t = a0 a1.
        a0, a1 = _fp6_raw(self.b0), _fp6_raw(self.b1)
        x0, x1, x2, x3, x4, x5 = a1
        v_a1 = (9 * x4 - x5, 9 * x5 + x4, x0, x1, x2, x3)
        t0, t1, t2, t3, t4, t5 = _fp6_mul_raw(a0, a1)
        m0, m1, m2, m3, m4, m5 = _fp6_mul_raw(map(add, a0, a1), map(add, a0, v_a1))
        return Fp12Element(
            _fp6_reduce(
                m0 - t0 - (9 * t4 - t5), m1 - t1 - (9 * t5 + t4),
                m2 - t2 - t0, m3 - t3 - t1, m4 - t4 - t2, m5 - t5 - t3,
            ),
            _fp6_reduce(t0 + t0, t1 + t1, t2 + t2, t3 + t3, t4 + t4, t5 + t5),
        )

    def cyclotomic_square(self) -> "Fp12Element":
        """``self.square()`` for elements of the cyclotomic subgroup ONLY.

        Granger-Scott squaring: for an element of order dividing
        ``p^4 - p^2 + 1`` -- every value after the easy part of the final
        exponentiation, and in general nothing before it -- the square is
        determined by three Fp4 squarings on the coordinate pairs
        ``(g0, h1)``, ``(h0, g2)``, ``(g1, h2)`` (``g = b0``, ``h = b1``):
        nine Fp2 squarings in place of two Fp6 products.  On any other
        element the result is simply wrong.
        """
        g00, g01, g10, g11, g20, g21 = _fp6_raw(self.b0)
        h00, h01, h10, h11, h20, h21 = _fp6_raw(self.b1)
        a0, a1, a2, a3 = _fp4_square_raw(g00, g01, h10, h11)
        b0, b1, b2, b3 = _fp4_square_raw(h00, h01, g20, g21)
        c0, c1, c2, c3 = _fp4_square_raw(g10, g11, h20, h21)
        return Fp12Element(
            _fp6_reduce(
                3 * a0 - 2 * g00, 3 * a1 - 2 * g01,
                3 * b0 - 2 * g10, 3 * b1 - 2 * g11,
                3 * c0 - 2 * g20, 3 * c1 - 2 * g21,
            ),
            _fp6_reduce(
                3 * (9 * c2 - c3) + 2 * h00, 3 * (9 * c3 + c2) + 2 * h01,
                3 * a2 + 2 * h10, 3 * a3 + 2 * h11,
                3 * b2 + 2 * h20, 3 * b3 + 2 * h21,
            ),
        )

    def inverse(self) -> "Fp12Element":
        a0, a1 = self.b0, self.b1
        norm = a0.square() - a1.square().mul_by_v()
        inv = norm.inverse()
        return Fp12Element(a0 * inv, -(a1 * inv))

    def conjugate(self) -> "Fp12Element":
        """The map ``b0 - b1*w`` (p^6-power Frobenius).

        For elements in the cyclotomic subgroup -- pairing values after the
        easy part of the final exponentiation -- this equals the inverse.
        """
        return Fp12Element(self.b0, -self.b1)

    def frobenius(self) -> "Fp12Element":
        """The p-power Frobenius map on Fp12.

        ``w^(p-1) = xi^((p-1)/6) = FROB_GAMMA[1]`` scales the ``w``
        coefficient after the Fp6 Frobenius is applied to both halves.
        """
        return Fp12Element(
            self.b0.frobenius(),
            self.b1.frobenius().scale_fp2(FROB_GAMMA[1]),
        )

    def frobenius_n(self, n: int) -> "Fp12Element":
        out = self
        for _ in range(n % 12):
            out = out.frobenius()
        return out

    def pow(self, exponent: int) -> "Fp12Element":
        if exponent < 0:
            return self.inverse().pow(-exponent)
        result = Fp12Element.one()
        base = self
        e = exponent
        while e > 0:
            if e & 1:
                result = result * base
            base = base.square()
            e >>= 1
        return result

    def mul_by_line(
        self, c0: Fp2Element, c3: Fp2Element, c4: Fp2Element
    ) -> "Fp12Element":
        """Multiply by the sparse line value ``c0 + c3*w + c4*(v*w)``.

        Miller-loop line functions for the D-type BN twist only have these
        three non-zero Fp2 coefficients (the constant term, the ``w`` term
        and the ``v*w`` term); exploiting the sparsity takes 13 Fp2 products
        where a general Fp12 multiply takes 18.
        """
        a0, a1 = _fp6_raw(self.b0), _fp6_raw(self.b1)
        a00, a01, a10, a11, a20, a21 = a0
        c00, c01, c30, c31, c40, c41 = c0.c0, c0.c1, c3.c0, c3.c1, c4.c0, c4.c1
        # Karatsuba with L0 = (c0, 0, 0) and L1 = (c3, c4, 0); a0 * L0 is
        # three Fp2 products laid end to end.
        return _fp12_reduce(
            _fp2_mul_raw(a00, a01, c00, c01)
            + _fp2_mul_raw(a10, a11, c00, c01)
            + _fp2_mul_raw(a20, a21, c00, c01),
            _fp6_mul_sparse_raw(a1, c30, c31, c40, c41),
            _fp6_mul_sparse_raw(
                map(add, a0, a1), c00 + c30, c01 + c31, c40, c41
            ),
        )

    def is_one(self) -> bool:
        return self == Fp12Element.one()

    def is_zero(self) -> bool:
        return self.b0.is_zero() and self.b1.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Fp12Element)
            and self.b0 == other.b0
            and self.b1 == other.b1
        )

    def __hash__(self) -> int:
        return hash((self.b0, self.b1))

    def __repr__(self) -> str:
        return f"Fp12({self.b0!r}, {self.b1!r})"
