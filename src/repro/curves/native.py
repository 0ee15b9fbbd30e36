"""The compiled G1 MSM (``g1msm.c``): built on first use, optional for ever.

:func:`repro.curves.msm._pippenger` hands every G1 point set here when
:func:`g1_kernel` returns a kernel, and runs its own pure-Python pipeline
otherwise; both produce the same group element, so proofs, keys and
verdicts are byte-identical either way.  G2 never comes here.

Build and trust rules:

* the source is compiled with ``cc -O2 -shared -fPIC`` (no
  ``-march=native``: a shared home must not cache a library another CPU
  cannot run) into ``~/.cache/zkrownn/``, a directory that must be owned
  by the current user and is kept at mode 0700 -- anything else is
  refused;
* the file name is content-addressed by the C source, the compiler binary
  and the machine, and is written through a temporary file and
  ``os.replace``, so processes building at once race safely;
* before the library is used, a known-answer MSM is checked against the
  Python group law (:func:`_self_check`).

Any failure -- no ``cc`` on ``PATH``, a failed build, a library that does
not load, a wrong known answer -- leaves the pure path in place and emits
one ``g1_msm_fallback`` warning.  Nothing selects the path: it is the
compiled kernel when one works.  :func:`status` says which path runs and
why (``GET /stats`` and ``zkrownn serve`` show it); :func:`pin_pure` is
the test-only way to force the pure path.

The state is per process: a spawned prove worker loads (or builds) the
library on its own first MSM, and a :func:`pin_pure` in the parent does
not reach it.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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

SOURCE = Path(__file__).with_name("g1msm.c")

#: Why the pure path runs; :func:`status` reports one of these.
NO_COMPILER = "no compiler"
BUILD_FAILED = "build failed"
LOAD_FAILED = "load failed"
SELF_CHECK_FAILED = "self-check failed"
PINNED = "pinned by a test"

_BUILD_TIMEOUT_S = 120


class G1Kernel:
    """The loaded library: the MSM plus the three field operations the
    limb tests drive."""

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
        and packed once for every set.  Results are Jacobian with ``z`` 1
        or 0.  Lengths are the caller's to check.
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


def _self_check(kernel: G1Kernel) -> bool:
    """A known answer, computed with the Python group law.

    Multiples of the generator, so the expected sum is one scalar
    multiplication: the same point twice under one scalar (a bucket
    doubling), a point and its negation under one scalar (a bucket
    cancelling to the identity), a full-width scalar, ``R - 1`` and a run of
    ones that carries into the spare window.
    """
    g = (G1_GENERATOR[0], G1_GENERATOR[1], 1)
    multiples = [1, 1, 2, R - 2, 5, 7, 3]
    scalars = [
        (R - 1) // 3, (R - 1) // 3, 9, 9, R - 1, (1 << 253) - 1,
        0xDEADBEEFCAFEF00D,
    ]
    points = [jac_to_affine(jac_scalar_mul(g, m)) for m in multiples]
    want = jac_to_affine(
        jac_scalar_mul(g, sum(m * s for m, s in zip(multiples, scalars)) % R)
    )
    (got,) = kernel.msm_many([points], scalars)
    cancel = kernel.msm_many([[points[2], points[3]]], [9, 9])[0]
    return (
        jac_to_affine(got) == want
        and cancel == G1_INFINITY_JAC
        and kernel.fp("mul", P - 1, P - 1) == 1
    )


def _cache_dir() -> Path:
    """``~/.cache/zkrownn``, created 0700; refused unless the current
    user owns it."""
    path = Path.home() / ".cache" / "zkrownn"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = path.stat()
    if st.st_uid != os.getuid():
        raise PermissionError(f"{path} is not owned by uid {os.getuid()}")
    if st.st_mode & 0o077:
        path.chmod(0o700)
    return path


def _library_path(cc: str) -> Path:
    """The content address: C source, compiler binary, machine."""
    cc_stat = os.stat(cc)
    ident = hashlib.sha256(SOURCE.read_bytes())
    ident.update(
        f"\0{os.path.realpath(cc)}\0{cc_stat.st_size}\0{cc_stat.st_mtime_ns}"
        f"\0{platform.machine()}\0{sys.platform}".encode()
    )
    return _cache_dir() / f"g1msm-{ident.hexdigest()[:24]}.so"


def _build(cc: str, target: Path) -> None:
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".g1msm-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, timeout=_BUILD_TIMEOUT_S,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open() -> Tuple[Optional[G1Kernel], Optional[str], str]:
    """``(kernel, reason, detail)``: a kernel and no reason, or no kernel,
    the reason and what went wrong."""
    cc = shutil.which("cc")
    if cc is None:
        return None, NO_COMPILER, "cc is not on PATH"
    try:
        target = _library_path(cc)
        if not target.exists():
            _build(cc, target)
    except (OSError, subprocess.SubprocessError) as exc:
        stderr = getattr(exc, "stderr", None)
        detail = stderr.decode(errors="replace")[-400:] if stderr else str(exc)
        return None, BUILD_FAILED, detail
    try:
        kernel = G1Kernel(ctypes.CDLL(str(target)))
    except (OSError, AttributeError) as exc:
        return None, LOAD_FAILED, f"{target}: {exc}"
    if not _self_check(kernel):
        return None, SELF_CHECK_FAILED, f"{target} gave a wrong known answer"
    return kernel, None, str(target)


_LOCK = threading.Lock()
_STATE: Optional[Tuple[Optional[G1Kernel], Optional[str], str]] = None
_PINNED = False


def _loaded() -> Tuple[Optional[G1Kernel], Optional[str], str]:
    global _STATE
    with _LOCK:
        if _STATE is None:
            _STATE = _open()
            kernel, reason, detail = _STATE
            if kernel is None:
                from ..obs.logging import get_logger

                get_logger("curves").warning(
                    "g1_msm_fallback", reason=reason, detail=detail
                )
        return _STATE


def g1_kernel() -> Optional[G1Kernel]:
    """The compiled kernel, or ``None`` when the pure path runs.  The
    first call in a process builds or loads the library."""
    if _PINNED:
        return None
    state = _STATE if _STATE is not None else _loaded()
    return state[0]


def status() -> Dict[str, Optional[str]]:
    """``{"g1_msm": "native" | "python", "reason": ...}``; ``reason`` is
    ``None`` on the native path and one of the module's reason strings
    otherwise.  Loads the library if nothing has yet."""
    if _PINNED:
        return {"g1_msm": "python", "reason": PINNED}
    kernel, reason, _ = _loaded()
    return {"g1_msm": "python" if kernel is None else "native", "reason": reason}


@contextlib.contextmanager
def pin_pure(pinned: bool = True) -> Iterator[None]:
    """Test-only: inside the block, force (``True``) or release
    (``False``) the pure path in this process."""
    global _PINNED
    previous, _PINNED = _PINNED, pinned
    try:
        yield
    finally:
        _PINNED = previous
