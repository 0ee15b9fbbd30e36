"""The field-arithmetic substrate under every pure-Python kernel.

Every hot loop in this codebase bottoms out in modular multiplication over
one of the two BN254 primes.  :class:`PythonFieldOps` supplies it:
canonical residues (plain ``int``) and ``a * b % p`` multiplication.
:func:`get_field_ops` serves one instance per modulus, and
:func:`active_field_backend` names it (``"python"``; benchmark records
carry the name).

Design note (measured, CPython 3.11, x86-64): a Montgomery multiply in
pure Python costs three big-int multiplications (``a*b``, ``lo*n'``,
``m*p``) against one multiplication plus one C-level ``divmod`` for
``a * b % p``, and lands ~15% *slower* per operation -- CPython's big-int
division is simply good at 254 bits -- so residues stay canonical.  The
compiled speed-up lives one level up, as a whole kernel: the G1 MSM in
:mod:`repro.curves.native`, which is not a field backend.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = [
    "FieldOps",
    "PythonFieldOps",
    "active_field_backend",
    "get_field_ops",
    "invmod",
]


class FieldOps:
    """Element-level modular arithmetic over one prime modulus.

    ``wrap``/``unwrap`` reduce any int to its canonical residue at
    subsystem boundaries (witness vectors, NTT inputs, pairing inputs);
    the kernels in ``curves/`` and ``field/`` operate on residues with the
    standard numeric operators.
    """

    name = "abstract"

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be a prime >= 2")
        self.modulus = modulus
        #: The modulus in native form, for ``x % ops.modulus_native`` loops.
        self.modulus_native = modulus

    # -- boundary conversions ------------------------------------------------

    def wrap(self, value):
        """Canonical native residue of ``value`` (any int-like)."""
        raise NotImplementedError

    def wrap_many(self, values: Sequence) -> List:
        wrap = self.wrap
        return [wrap(v) for v in values]

    def unwrap(self, value) -> int:
        """Canonical Python int in ``[0, modulus)``."""
        return int(value % self.modulus_native)

    def unwrap_many(self, values: Sequence) -> List[int]:
        unwrap = self.unwrap
        return [unwrap(v) for v in values]

    # -- arithmetic ----------------------------------------------------------

    def mulmod(self, a, b):
        return a * b % self.modulus_native

    def addmod(self, a, b):
        return (a + b) % self.modulus_native

    def submod(self, a, b):
        return (a - b) % self.modulus_native

    def negmod(self, a):
        return -a % self.modulus_native

    def exp(self, a, e: int):
        raise NotImplementedError

    def inv(self, a):
        """Multiplicative inverse; raises ``ZeroDivisionError`` on zero."""
        raise NotImplementedError

    def batch_inverse(self, values: Sequence) -> List:
        """Invert many residues with one inversion (Montgomery's trick)."""
        n = len(values)
        if n == 0:
            return []
        m = self.modulus_native
        prefix = [0] * n
        acc = self.wrap(1)
        for i, v in enumerate(values):
            if not v:
                raise ZeroDivisionError("batch_inverse saw a zero element")
            prefix[i] = acc
            acc = acc * v % m
        inv = self.inv(acc)
        out = [0] * n
        for i in range(n - 1, -1, -1):
            out[i] = inv * prefix[i] % m
            inv = inv * values[i] % m
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}(bits={self.modulus.bit_length()})"


class PythonFieldOps(FieldOps):
    """Pure-stdlib canonical residues (plain ``int``)."""

    name = "python"

    def wrap(self, value):
        return value % self.modulus

    def wrap_many(self, values):
        m = self.modulus
        return [v % m for v in values]

    def unwrap(self, value) -> int:
        return int(value % self.modulus)

    def exp(self, a, e: int):
        return pow(a, e, self.modulus)

    def inv(self, a):
        if a % self.modulus == 0:
            raise ZeroDivisionError("inverse of zero residue")
        return pow(a, -1, self.modulus)


_OPS: Dict[int, FieldOps] = {}


def active_field_backend() -> str:
    """The name of the field arithmetic serving :func:`get_field_ops`."""
    return PythonFieldOps.name


def get_field_ops(modulus: int) -> FieldOps:
    """The :class:`FieldOps` for ``modulus`` (cached)."""
    ops = _OPS.get(modulus)
    if ops is None:
        ops = _OPS[modulus] = PythonFieldOps(modulus)
    return ops


def invmod(value, modulus: int):
    """Modular inverse through the field ops; raises on zero."""
    return get_field_ops(modulus).inv(value)
