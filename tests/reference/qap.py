"""The QAP quotient by its definition: the oracle for ``compute_h``.

Production interpolates with NTTs, multiplies on a coset where
``t(X) = X^n - 1`` is a constant, and transforms back.  Here everything is
the textbook object: the witness-combined polynomials come from the
inverse DFT written as its double sum, their product is the schoolbook
convolution, and the quotient and remainder by ``X^n - 1`` come from long
division, top coefficient down.

For a satisfying assignment the remainder is zero and ``h`` is the
quotient.  For any other assignment ``u v - w = q t + r`` with ``r != 0``,
and what the coset method returns is the polynomial of degree below ``n``
that agrees with ``(u v - w) / t`` on the coset, which is ``q + r / c``
with ``c = g^n - 1``: the oracle returns that too, so the two can be
compared on every input, not only on valid witnesses.

Shares the constraint-system container and the modulus with ``src/repro``
and nothing else; the domain's root of unity and coset shift are
arguments (the QAP is defined relative to them).
"""

from typing import List, Sequence

from repro.field.prime import BN254_R as R
from repro.snark.r1cs import ConstraintSystem


def _inner(lc, assignment: Sequence[int]) -> int:
    return sum(coeff * assignment[j] for j, coeff in lc.terms.items()) % R


def _interpolate(values: Sequence[int], omega: int) -> List[int]:
    """Coefficients of the polynomial taking ``values[k]`` at ``omega^k``."""
    n = len(values)
    n_inv = pow(n, -1, R)
    omega_inv = pow(omega, -1, R)
    return [
        n_inv * sum(values[k] * pow(omega_inv, j * k, R) for k in range(n)) % R
        for j in range(n)
    ]


def _schoolbook(a: Sequence[int], b: Sequence[int]) -> List[int]:
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] = (product[i + j] + x * y) % R
    return product


def quotient_naive(
    cs: ConstraintSystem,
    assignment: Sequence[int],
    omega: int,
    coset_shift: int,
) -> List[int]:
    """``n`` coefficients of ``q + r / (g^n - 1)`` where
    ``u v - w = q (X^n - 1) + r``; ``n`` is the domain size, the smallest
    power of two holding one point per constraint (at least two)."""
    n = 2
    while n < cs.num_constraints:
        n *= 2
    if pow(omega, n, R) != 1 or pow(omega, n // 2, R) == 1:
        raise ValueError(f"omega is not a primitive {n}-th root of unity")
    rows = list(cs.constraints)
    u, v, w = (
        _interpolate(
            [_inner(row[side], assignment) for row in rows]
            + [0] * (n - len(rows)),
            omega,
        )
        for side in range(3)
    )
    remainder = _schoolbook(u, v)
    for i, coeff in enumerate(w):
        remainder[i] = (remainder[i] - coeff) % R
    quotient = [0] * n
    for i in range(len(remainder) - 1, n - 1, -1):
        # Cancel the leading term with coeff * X^(i-n) * (X^n - 1).
        quotient[i - n] = remainder[i]
        remainder[i - n] = (remainder[i - n] + remainder[i]) % R
        remainder[i] = 0
    c_inv = pow((pow(coset_shift, n, R) - 1) % R, -1, R)
    return [(quotient[i] + remainder[i] * c_inv) % R for i in range(n)]
