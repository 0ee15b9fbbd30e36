"""Textbook Fp12: the oracle for ``repro.field.tower``.

Shares nothing with the tower.  Fp12 is written as the single extension
``Fp[w] / (w^12 - 18 w^6 + 82)``: in the tower ``w^2 = v`` and
``v^3 = xi = 9 + u``, so ``u = w^6 - 9`` and ``u^2 = -1`` becomes
``(w^6 - 9)^2 + 1 = w^12 - 18 w^6 + 82 = 0``.  An element is a list of
twelve integers (coefficient of ``w^k`` at index ``k``); the product is the
schoolbook 12 x 12 convolution followed by the textbook reduction
``w^k -> 18 w^(k-6) - 82 w^(k-12)`` from the top degree down.  No
Karatsuba, no Frobenius constants, no lazy anything.

:func:`from_tower` / :func:`to_tower` translate the production layout
through the basis map ``u^a v^i w^j -> (w^6 - 9)^a * w^(2i + j)``.
"""

from repro.field.prime import BN254_P as P
from repro.field.tower import Fp2Element, Fp6Element, Fp12Element

ONE = [1] + [0] * 11


def mul(x, y):
    """Schoolbook product modulo ``w^12 - 18 w^6 + 82`` and ``p``."""
    wide = [0] * 23
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            wide[i + j] += xi * yj
    for k in range(22, 11, -1):
        wide[k - 6] += 18 * wide[k]
        wide[k - 12] -= 82 * wide[k]
    return [c % P for c in wide[:12]]


def power(x, exponent):
    """Left-to-right square-and-multiply on :func:`mul`."""
    acc = ONE
    for bit in bin(exponent)[2:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


def conjugate(x):
    """The automorphism ``w -> -w`` (it fixes ``w^2 = v``, hence Fp6)."""
    return [(-c if k % 2 else c) % P for k, c in enumerate(x)]


def from_fp6(e: Fp6Element):
    """The tower's Fp6 sits inside Fp12 on the even powers of ``w``."""
    out = [0] * 12
    for i, a in enumerate((e.a0, e.a1, e.a2)):
        # (c0 + c1 u) v^i  ->  (c0 - 9 c1) w^(2i) + c1 w^(2i + 6)
        out[2 * i] = (int(a.c0) - 9 * int(a.c1)) % P
        out[2 * i + 6] = int(a.c1) % P
    return out


def from_tower(f: Fp12Element):
    """``b0 + b1 w``: ``b1``'s coefficients land one degree up."""
    even, odd = from_fp6(f.b0), from_fp6(f.b1)
    return [even[k] if k % 2 == 0 else odd[k - 1] for k in range(12)]


def to_tower(x) -> Fp12Element:
    """Inverse of :func:`from_tower`."""

    def fp6(offset):
        return Fp6Element(
            *(
                Fp2Element(x[k] + 9 * x[k + 6], x[k + 6])
                for k in (offset, offset + 2, offset + 4)
            )
        )

    return Fp12Element(fp6(0), fp6(1))
