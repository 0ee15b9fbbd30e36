"""Dense univariate polynomials over the BN254 scalar field.

A small polynomial ring: the textbook oracle the NTT and QAP tests hold
``repro.field.ntt`` and ``repro.snark.qap`` to (O(n^2) Lagrange
interpolation, schoolbook products, long division).  Coefficients are raw
integers mod r, lowest degree first.  The zero polynomial is represented by
the empty list and has degree -1.

Shares only the modulus with ``src/repro``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.field.prime import BN254_R as R

__all__ = ["Polynomial"]


def _trim(coeffs: List[int]) -> List[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class Polynomial:
    """Immutable dense polynomial over Fr."""

    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()):
        self.coeffs: List[int] = _trim([c % R for c in coefficients])

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial([1])

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial([0, 1])

    @staticmethod
    def monomial(degree: int, coefficient: int = 1) -> "Polynomial":
        return Polynomial([0] * degree + [coefficient])

    @staticmethod
    def interpolate(xs: Sequence[int], ys: Sequence[int]) -> "Polynomial":
        """Lagrange interpolation through the points ``(xs[i], ys[i])``.

        O(n^2); used for small domains and as a reference implementation that
        the NTT-based interpolation is property-tested against.
        """
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        if len(set(x % R for x in xs)) != len(xs):
            raise ValueError("interpolation points must be distinct")
        total = Polynomial.zero()
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            basis = Polynomial([1])
            denom = 1
            for j, xj in enumerate(xs):
                if i == j:
                    continue
                basis = basis * Polynomial([-xj, 1])
                denom = denom * (xi - xj) % R
            scale = yi * pow(denom, -1, R) % R
            total = total + basis.scale(scale)
        return total

    # -- ring operations -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return Polynomial([x - y for x, y in zip(a, b)])

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % R
        return Polynomial(out)

    def scale(self, k: int) -> "Polynomial":
        return Polynomial([c * k for c in self.coeffs])

    def divmod(self, divisor: "Polynomial") -> tuple:
        """Euclidean division: returns ``(quotient, remainder)``."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self.coeffs)
        quotient = [0] * max(0, len(remainder) - len(divisor.coeffs) + 1)
        lead_inv = pow(divisor.coeffs[-1], -1, R)
        d = len(divisor.coeffs)
        for i in range(len(quotient) - 1, -1, -1):
            q = remainder[i + d - 1] * lead_inv % R
            quotient[i] = q
            if q:
                for j, c in enumerate(divisor.coeffs):
                    remainder[i + j] = (remainder[i + j] - q * c) % R
        return Polynomial(quotient), Polynomial(remainder)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    # -- evaluation ----------------------------------------------------------------

    def __call__(self, point: int) -> int:
        """Horner evaluation at ``point`` (returns an int mod r)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * point + c) % R
        return acc

    # -- plumbing -------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "Polynomial(" + " + ".join(terms) + ")"
