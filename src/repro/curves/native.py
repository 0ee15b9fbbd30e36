"""The compiled G1 MSM (``repro/native/g1msm.c``) and its Python face.

:func:`repro.curves.msm._pippenger` hands every G1 point set here when
:func:`g1_kernel` returns a kernel, and runs its own pure-Python pipeline
otherwise; both produce the same group element, so proofs, keys and
verdicts are byte-identical either way.  G2 never comes here.

Building, trusting and falling back are :mod:`repro.native`'s, shared
with the quotient kernel; this module keeps the G1 wrapper, its
known-answer check and the names callers have always used
(:func:`g1_kernel`, :func:`status`, :func:`pin_pure` and the reason
strings).
"""

from __future__ import annotations

import ctypes
from typing import List, Optional, Sequence

from .. import native as _native
from ..native import (
    BUILD_FAILED,
    LOAD_FAILED,
    NO_COMPILER,
    PINNED,
    SELF_CHECK_FAILED,
    pin_pure,
    status,
)
from .bn254 import G1_GENERATOR, P, R
from .g1 import G1_INFINITY_JAC, JacobianPoint, jac_scalar_mul, jac_to_affine

__all__ = [
    "G1Kernel",
    "NO_COMPILER",
    "BUILD_FAILED",
    "LOAD_FAILED",
    "SELF_CHECK_FAILED",
    "PINNED",
    "g1_kernel",
    "pin_pure",
    "status",
]


class G1Kernel:
    """The library's G1 MSM, plus the three Fp operations the limb tests
    drive."""

    def __init__(self, lib: ctypes.CDLL):
        buf = ctypes.c_char_p
        self._msm = lib.zk_g1_msm
        self._msm.argtypes = [ctypes.c_size_t, buf, buf, buf]
        self._msm.restype = ctypes.c_int
        self._fp = {}
        for name in ("mul", "add", "sub"):
            fn = getattr(lib, f"zk_fp_{name}")
            fn.argtypes = [buf, buf, buf]
            fn.restype = None
            self._fp[name] = fn

    def msm_many(
        self, points_lists: Sequence[Sequence], scalars: Sequence[int]
    ) -> List[JacobianPoint]:
        """``[sum_i scalars[i] * points[i] for points in points_lists]``.

        Points are affine ``(x, y)`` int pairs with coordinates below
        ``2^256`` (``None`` = infinity, dropped per set); scalars are any
        ints, reduced mod ``R`` here, zeros dropped.  Each scalar is reduced
        and packed once for every set; the kernel folds its sign into the
        point (``s > (R - 1) / 2`` runs as ``(R - s) * (-P)``).  Results
        are Jacobian with ``z`` 1 or 0.  Lengths are the caller's to check.
        """
        live = []
        for i, s in enumerate(scalars):
            s %= R
            if s:
                live.append((i, s.to_bytes(32, "little")))
        results = []
        for points in points_lists:
            coords: List[bytes] = []
            digits: List[bytes] = []
            for i, packed in live:
                p = points[i]
                if p is not None:
                    coords.append(p[0].to_bytes(32, "little"))
                    coords.append(p[1].to_bytes(32, "little"))
                    digits.append(packed)
            results.append(self._call(b"".join(coords), b"".join(digits)))
        return results

    def _call(self, coords: bytes, digits: bytes) -> JacobianPoint:
        n = len(digits) // 32
        if len(coords) != 64 * n:  # pragma: no cover - built together above
            raise ValueError("point and scalar buffers disagree")
        out = ctypes.create_string_buffer(64)
        rc = self._msm(n, coords, digits, out)
        if rc < 0:
            raise MemoryError("native G1 MSM could not allocate its buckets")
        if rc:
            return G1_INFINITY_JAC
        raw = out.raw
        return (
            int.from_bytes(raw[:32], "little"),
            int.from_bytes(raw[32:], "little"),
            1,
        )

    def fp(self, op: str, a: int, b: int) -> int:
        """``a op b mod P`` in the library's limbs (``op``: mul/add/sub);
        ``a`` and ``b`` must be canonical."""
        out = ctypes.create_string_buffer(32)
        self._fp[op](a.to_bytes(32, "little"), b.to_bytes(32, "little"), out)
        return int.from_bytes(out.raw, "little")

    def self_check(self) -> bool:
        """A known answer, computed with the Python group law.

        Multiples of the generator, so the expected sum is one scalar
        multiplication: the same point twice under one scalar (a bucket
        doubling), a point and its negation under one scalar (a bucket
        cancelling to the identity), a full-width scalar, ``R - 1`` and a
        run of ones that carries into the spare window; then a vector of
        small negative scalars, whose signs the kernel folds into the
        points.
        """
        g = (G1_GENERATOR[0], G1_GENERATOR[1], 1)
        multiples = [1, 1, 2, R - 2, 5, 7, 3]
        scalars = [
            (R - 1) // 3, (R - 1) // 3, 9, 9, R - 1, (1 << 253) - 1,
            0xDEADBEEFCAFEF00D,
        ]
        points = [jac_to_affine(jac_scalar_mul(g, m)) for m in multiples]
        total = sum(m * s for m, s in zip(multiples, scalars)) % R
        want = jac_to_affine(jac_scalar_mul(g, total))
        (got,) = self.msm_many([points], scalars)
        cancel = self.msm_many([[points[2], points[3]]], [9, 9])[0]
        # Small negatives, stored as R - k: every sign folds into its point.
        negatives = [3, 1, 0xFFFF, 1 << 40]
        (neg,) = self.msm_many([points[:4]], [R - k for k in negatives])
        neg_total = -sum(m * k for m, k in zip(multiples, negatives)) % R
        return (
            jac_to_affine(got) == want
            and cancel == G1_INFINITY_JAC
            and jac_to_affine(neg) == jac_to_affine(jac_scalar_mul(g, neg_total))
            and self.fp("mul", P - 1, P - 1) == 1
        )


def g1_kernel() -> Optional[G1Kernel]:
    """The compiled kernel, or ``None`` when the pure path runs.  The
    first call in a process builds or loads the library."""
    return _native.kernel("g1_msm")
