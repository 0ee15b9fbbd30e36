"""Prime field arithmetic.

This module provides the two fields every other layer of the stack is built
on:

* :data:`Fp` -- the BN254 *base* field (coordinates of curve points).
* :data:`Fr` -- the BN254 *scalar* field (circuit values, witnesses, QAP
  polynomials).

The paper's implementation uses libsnark's ``alt_bn128`` curve (which it
calls BN128); the parameters below are exactly that curve's, so field/curve
sizes -- and therefore proof and key sizes -- match the paper's setting.

Elements are immutable wrappers around Python integers.  Hot inner loops
elsewhere (curve arithmetic, NTT) work on raw integers for speed; this class
is the readable public face used by circuits, the SNARK layer, and tests.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Union

__all__ = [
    "PrimeField",
    "FieldElement",
    "Fp",
    "Fr",
    "BN254_P",
    "BN254_R",
    "BN254_X",
    "batch_inverse",
    "batch_inverse_ints",
    "tonelli_shanks",
]

# BN254 ("alt_bn128") parameters.  The curve family is parameterised by
# x = 4965661367192848881; see Groth16 / libsnark documentation.
BN254_X = 4965661367192848881
BN254_P = 21888242871839275222246405745257275088696311157297823662689037894645226208583
BN254_R = 21888242871839275222246405745257275088548364400416034343698204186575808495617


class FieldElement:
    """An element of a prime field, supporting natural operator syntax."""

    __slots__ = ("field", "value")

    def __init__(self, field: "PrimeField", value: int):
        self.field = field
        self.value = value % field.modulus

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other: Union["FieldElement", int]) -> int:
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError(
                    f"cannot mix elements of {self.field.name} and {other.field.name}"
                )
            return other.value
        if isinstance(other, int):
            return other % self.field.modulus
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value * v)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.field, -self.value)

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value * _inverse(v, self.field.modulus))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, v * _inverse(self.value, self.field.modulus))

    def __pow__(self, exponent: int):
        return FieldElement(self.field, pow(self.value, exponent, self.field.modulus))

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises ``ZeroDivisionError`` on zero."""
        return FieldElement(self.field, _inverse(self.value, self.field.modulus))

    def square(self) -> "FieldElement":
        return FieldElement(self.field, self.value * self.value)

    # -- predicates and conversions ----------------------------------------

    def is_zero(self) -> bool:
        return self.value == 0

    def legendre(self) -> int:
        """Legendre symbol: 1 if QR, -1 if non-residue, 0 if zero."""
        if self.value == 0:
            return 0
        s = pow(self.value, (self.field.modulus - 1) // 2, self.field.modulus)
        return 1 if s == 1 else -1

    def sqrt(self) -> "FieldElement":
        """A square root, via Tonelli-Shanks; raises ``ValueError`` if none."""
        root = tonelli_shanks(self.value, self.field.modulus)
        if root is None:
            raise ValueError("element is not a quadratic residue")
        return FieldElement(self.field, root)

    def to_int(self) -> int:
        return self.value

    def signed(self) -> int:
        """Value lifted to the symmetric range ``(-p/2, p/2]``.

        Fixed-point circuit values encode negative numbers as field elements
        above ``p/2``; this is the decoding map.
        """
        half = self.field.modulus // 2
        return self.value - self.field.modulus if self.value > half else self.value

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field is other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.field), self.value))

    def __repr__(self) -> str:
        return f"{self.field.name}({self.value})"

    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.value != 0


class PrimeField:
    """A prime field GF(p); call the instance to make elements."""

    def __init__(self, modulus: int, name: str = "F"):
        if modulus < 2:
            raise ValueError("modulus must be a prime >= 2")
        self.modulus = modulus
        self.name = name
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)

    def __call__(self, value: Union[int, FieldElement]) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise ValueError("element belongs to a different field")
            return value
        return FieldElement(self, value)

    def __repr__(self) -> str:
        return f"PrimeField({self.name}, bits={self.modulus.bit_length()})"

    def __contains__(self, element: object) -> bool:
        return isinstance(element, FieldElement) and element.field is self

    # -- element constructors -------------------------------------------------

    def random(self, rng) -> FieldElement:
        """Uniform element using ``rng`` (``random.Random`` or compatible)."""
        return FieldElement(self, rng.randrange(self.modulus))

    def random_nonzero(self, rng) -> FieldElement:
        while True:
            e = self.random(rng)
            if not e.is_zero():
                return e

    def from_bytes(self, data: bytes) -> FieldElement:
        return FieldElement(self, int.from_bytes(data, "big"))

    def hash_to_field(self, data: bytes, domain: bytes = b"repro") -> FieldElement:
        """Deterministic hash-to-field (used for seeded test vectors)."""
        digest = hashlib.sha512(domain + b"|" + data).digest()
        return FieldElement(self, int.from_bytes(digest, "big"))

    def element_byte_length(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    # -- roots of unity --------------------------------------------------------

    def two_adicity(self) -> int:
        """Largest s with 2^s dividing p-1 (NTT-supported domain size log)."""
        n = self.modulus - 1
        s = 0
        while n % 2 == 0:
            n //= 2
            s += 1
        return s

    def root_of_unity(self, order: int) -> FieldElement:
        """A primitive ``order``-th root of unity; ``order`` a power of two."""
        if order & (order - 1):
            raise ValueError("order must be a power of two")
        s = self.two_adicity()
        if order > (1 << s):
            raise ValueError(
                f"field supports 2-adic orders up to 2^{s}, asked for {order}"
            )
        # Find a generator of the full 2^s subgroup by trial: g^((p-1)/2^s)
        # has order exactly 2^s iff squaring it s-1 times is not 1.
        for candidate in range(2, 1000):
            w = pow(candidate, (self.modulus - 1) >> s, self.modulus)
            if pow(w, 1 << (s - 1), self.modulus) != 1:
                break
        else:  # pragma: no cover - unreachable for real primes
            raise ArithmeticError("no 2-adic generator found")
        # Reduce from order 2^s to the requested order.
        w = pow(w, (1 << s) // order, self.modulus)
        return FieldElement(self, w)

    def multiplicative_generator(self) -> FieldElement:
        """A small non-residue, usable as a coset shift off the NTT domain.

        A quadratic non-residue cannot lie in the index-2 subgroup, hence it
        is never a 2-power root of unity; that is all the coset trick needs.
        """
        for candidate in range(2, 1000):
            if pow(candidate, (self.modulus - 1) // 2, self.modulus) != 1:
                return FieldElement(self, candidate)
        raise ArithmeticError("no generator found")  # pragma: no cover


def tonelli_shanks(n: int, p: int) -> Union[int, None]:
    """Square root of ``n`` modulo prime ``p``; ``None`` if no root exists."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # Write p-1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # Find a non-residue z.
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        for i in range(1, m):
            t2 = t2 * t2 % p
            if t2 == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _inverse(value: int, modulus: int) -> int:
    """``value^-1 mod modulus``; ``ZeroDivisionError`` if ``value`` is 0 mod it."""
    if value % modulus == 0:
        raise ZeroDivisionError("inverse of zero field element")
    return pow(value, -1, modulus)


def batch_inverse_ints(values: Sequence[int], modulus: int) -> List[int]:
    """Invert many raw residues mod ``modulus`` with one modular inversion.

    Montgomery's trick on raw residues: the hot form used by the curve
    layer (batch-affine MSM buckets, point normalization) and the QAP
    Lagrange basis, where wrapping every value in a :class:`FieldElement`
    would dominate the savings.  Raises ``ZeroDivisionError`` if any value
    is 0 mod ``modulus`` (the running product then is).
    """
    n = len(values)
    if n == 0:
        return []
    prefix = [0] * n
    acc = 1
    for i, v in enumerate(values):
        prefix[i] = acc
        acc = acc * v % modulus
    inv = _inverse(acc, modulus)
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = inv * prefix[i] % modulus
        inv = inv * values[i] % modulus
    return out


def batch_inverse(elements: Sequence[FieldElement]) -> List[FieldElement]:
    """Invert many elements with one modular inversion (Montgomery's trick)."""
    if not elements:
        return []
    field = elements[0].field
    raw = batch_inverse_ints([e.value for e in elements], field.modulus)
    return [FieldElement(field, v) for v in raw]


#: BN254 base field (curve coordinates live here).
Fp = PrimeField(BN254_P, "Fp")

#: BN254 scalar field (witness values, QAP polynomials live here).
Fr = PrimeField(BN254_R, "Fr")
