"""Pluggable field-arithmetic backends: the substrate under every kernel.

Every hot loop in this codebase bottoms out in modular multiplication over
one of the two BN254 primes.  This module makes that substrate swappable
between the two representations a benchmark justifies:

* :class:`PythonFieldOps` -- the pure-stdlib default.  Canonical residues
  (plain ``int``), ``a * b % p`` multiplication.
* :class:`Gmpy2FieldOps` -- GMP-backed residues (``gmpy2.mpz``), gated
  behind ``importlib``: selecting it without gmpy2 installed is an error,
  and the ``auto`` backend falls back to ``python`` silently.

Selection mirrors the compute-backend convention: the
``ZKROWNN_FIELD_BACKEND`` environment variable (``python`` | ``gmpy2`` |
``auto``), overridable per process via :func:`set_field_backend`.  The
default is ``auto``: gmpy2 when importable, else stdlib -- something the
code can observe, so there is nothing to tune and the pure-Python path
never needs a new dependency.

Design note (measured, CPython 3.11, x86-64): a Montgomery multiply in
pure Python costs three big-int multiplications (``a*b``, ``lo*n'``,
``m*p``) against one multiplication plus one C-level ``divmod`` for
``a * b % p``, and lands ~15% *slower* per operation -- CPython's big-int
division is simply good at 254 bits -- so residues stay canonical and
there is no Montgomery-form backend.  gmpy2, where available, is the
real fast path: GMP multiplies these operand sizes
several times faster than CPython, and every kernel in the repo is written
against *native* residues, so ``mpz`` coordinates flow through MSM, NTT,
tower and pairing arithmetic without per-operation conversions.

Fork safety: backend state is keyed by PID.  A worker process created by
``multiprocessing`` (fork or spawn) re-resolves its backend from the
environment on first use, so gmpy2 state never silently crosses a
``fork`` and ``ZKROWNN_FIELD_BACKEND`` changes in the parent are picked
up by fresh pools (see ``repro.parallel.workers``).
"""

from __future__ import annotations

import importlib.util
import os
from typing import Dict, List, Optional, Sequence

__all__ = [
    "FIELD_BACKEND_ENV",
    "FieldOps",
    "PythonFieldOps",
    "Gmpy2FieldOps",
    "available_field_backends",
    "gmpy2_available",
    "resolve_field_backend",
    "active_field_backend",
    "set_field_backend",
    "get_field_ops",
    "reinit_field_backend_after_fork",
    "invmod",
]

FIELD_BACKEND_ENV = "ZKROWNN_FIELD_BACKEND"


class FieldOps:
    """Element-level modular arithmetic over one prime modulus.

    ``wrap``/``unwrap`` convert between canonical Python ints and the
    backend's *native* residue type at subsystem boundaries (key
    preparation, serialization); everything between boundaries operates on
    natives, which for every backend support the standard numeric
    operators -- the kernels in ``curves/`` and ``field/`` are written
    polymorphically against exactly that contract.
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


class Gmpy2FieldOps(FieldOps):
    """GMP-backed residues: every native value is a ``gmpy2.mpz``.

    GMP's multiplication and division at 254-bit operand sizes run several
    times faster than CPython's; because all kernels operate on natives,
    wrapping key material and witness scalars once at the boundary
    accelerates MSM, NTT, tower and pairing arithmetic wholesale.  No
    Montgomery form: GMP's tuned ``mpn`` division leaves nothing for REDC
    to win at these sizes.
    """

    name = "gmpy2"

    def __init__(self, modulus: int):
        import gmpy2  # ImportError here = backend explicitly unavailable

        super().__init__(modulus)
        self._gmpy2 = gmpy2
        self._mpz = gmpy2.mpz
        self.modulus_native = gmpy2.mpz(modulus)

    def wrap(self, value):
        return self._mpz(value) % self.modulus_native

    def wrap_many(self, values):
        mpz = self._mpz
        m = self.modulus_native
        return [mpz(v) % m for v in values]

    def exp(self, a, e: int):
        return self._gmpy2.powmod(self._mpz(a), e, self.modulus_native)

    def inv(self, a):
        a = self._mpz(a) % self.modulus_native
        if not a:
            raise ZeroDivisionError("inverse of zero residue")
        return self._gmpy2.invert(a, self.modulus_native)


_BACKEND_CLASSES = {
    "python": PythonFieldOps,
    "gmpy2": Gmpy2FieldOps,
}


def gmpy2_available() -> bool:
    return importlib.util.find_spec("gmpy2") is not None


def available_field_backends() -> List[str]:
    """Backend names selectable on this interpreter."""
    return ["python", "gmpy2"] if gmpy2_available() else ["python"]


def resolve_field_backend(name: Optional[str] = None) -> str:
    """Resolve a backend name (or the environment/default) to a concrete one.

    ``auto`` picks gmpy2 when importable, else stdlib.  Naming ``gmpy2``
    explicitly without the library installed is an error rather than a
    silent downgrade, and so is any name outside ``_BACKEND_CLASSES``
    (the error lists the valid ones).
    """
    if name is None:
        name = os.environ.get(FIELD_BACKEND_ENV) or "auto"
    name = name.strip().lower()
    if name == "auto":
        return "gmpy2" if gmpy2_available() else "python"
    if name not in _BACKEND_CLASSES:
        valid = ", ".join(repr(n) for n in [*_BACKEND_CLASSES, "auto"])
        raise ValueError(
            f"unknown field backend {name!r}: expected one of {valid}"
        )
    if name == "gmpy2" and not gmpy2_available():
        raise ValueError(
            "field backend 'gmpy2' requested but gmpy2 is not importable; "
            "install it with `pip install zkrownn-repro[fast]` or select "
            "'python'/'auto'"
        )
    return name


# Process-local backend state.  ``pid`` makes the registry fork-aware:
# the first lookup in a child process discards inherited ops instances and
# re-resolves the backend from the environment.
_STATE: Dict[str, object] = {"pid": os.getpid(), "name": None, "ops": {}}


def _ensure_fresh() -> None:
    pid = os.getpid()
    if _STATE["pid"] != pid:
        _STATE["pid"] = pid
        _STATE["name"] = None
        _STATE["ops"] = {}


def active_field_backend() -> str:
    """The name of the backend currently serving :func:`get_field_ops`."""
    _ensure_fresh()
    if _STATE["name"] is None:
        _STATE["name"] = resolve_field_backend()
    return _STATE["name"]  # type: ignore[return-value]


def set_field_backend(name: Optional[str]) -> Optional[str]:
    """Pin the process-wide backend; returns the previous pin (for restore).

    ``None`` unpins, returning selection to ``ZKROWNN_FIELD_BACKEND`` /
    ``auto`` on next use.  Cached per-modulus ops instances are dropped so
    the switch takes effect everywhere at once (the NTT domain registry is
    keyed by backend name and needs no invalidation).
    """
    _ensure_fresh()
    previous = _STATE["name"]
    _STATE["name"] = resolve_field_backend(name) if name is not None else None
    _STATE["ops"] = {}
    return previous  # type: ignore[return-value]


def get_field_ops(modulus: int) -> FieldOps:
    """The active backend's :class:`FieldOps` for ``modulus`` (cached)."""
    _ensure_fresh()
    name = active_field_backend()
    ops_by_modulus: Dict[int, FieldOps] = _STATE["ops"]  # type: ignore[assignment]
    ops = ops_by_modulus.get(modulus)
    if ops is None or ops.name != name:
        ops = _BACKEND_CLASSES[name](modulus)
        ops_by_modulus[modulus] = ops
    return ops


def reinit_field_backend_after_fork() -> None:
    """Drop inherited backend state; next use re-resolves from the env.

    What the PID check on every lookup does by itself in a forked child,
    made callable; pool workers (``repro.parallel.workers``) are spawned
    and start without any state to drop.
    """
    _STATE["pid"] = -1
    _ensure_fresh()


def invmod(value, modulus: int):
    """Backend-routed modular inverse (``gmpy2.invert`` when active)."""
    return get_field_ops(modulus).inv(value)
