"""The compiled kernels: one library built on first use, optional for ever.

Three kernels share one library, each standing in for a pure-Python path
that gives the same value, so proofs, keys and verdicts are
byte-identical either way:

* ``g1_msm`` (``g1msm.c``): every G1 variable-base MSM of
  :func:`repro.curves.msm._pippenger` (:class:`repro.curves.native.G1Kernel`);
* ``compute_h`` (``qap.c``): the Groth16 quotient of
  :func:`repro.snark.qap.compute_h`, all six NTTs in one call
  (:class:`repro.snark.qap.QuotientKernel`);
* ``fixed_base`` (``comb.c``): the trusted setup's fixed-base combs for
  G1 and G2, :func:`repro.curves.msm._lockstep_comb` in one call per
  batch (:class:`repro.curves.msm.CombKernel`).

They are written over ``mont.h``, one Montgomery limb layer instantiated
at compile time for the base field (``bn254.h``) and the scalar field
(the NTTs); ``fp2.h`` builds G2's Fp2 on the former and ``jacobian.h``
holds the point formulas once for both groups.  Every ``.c`` file of
this directory is compiled into the library and every ``.h`` file is
part of its content address (:data:`SOURCES`, :data:`HEADERS`).

Build and trust rules:

* the sources are compiled together with ``cc -O2 -shared -fPIC`` (no
  ``-march=native``: a shared home must not cache a library another CPU
  cannot run) into ``~/.cache/zkrownn/``, a directory that must be owned
  by the current user and is kept at mode 0700 -- anything else is
  refused;
* the file name is content-addressed by every C source and header, the
  compiler binary and the machine, and is written through a temporary
  file and ``os.replace``, so processes building at once race safely;
* before a kernel is used, a known answer is checked against the Python
  path (each kernel class's ``self_check``).

Any failure -- no ``cc`` on ``PATH``, a failed build, a library that does
not load, a wrong known answer -- leaves that kernel's pure path in place
and emits one ``<kernel>_fallback`` warning.  Nothing selects the path: it
is the compiled kernel when one works.  :func:`status` says which path
each kernel runs and why (``GET /stats`` and ``zkrownn serve`` show it);
:func:`pin_pure` is the test-only way to force every pure path.

The state is per process: a spawned prove worker loads (or builds) the
library in its pool initializer, and a :func:`pin_pure` in the parent
does not reach it.
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
from typing import Any, Dict, Iterator, Optional, Tuple

__all__ = [
    "KERNELS",
    "NO_COMPILER",
    "BUILD_FAILED",
    "LOAD_FAILED",
    "SELF_CHECK_FAILED",
    "PINNED",
    "kernel",
    "load",
    "pin_pure",
    "status",
]

_HERE = Path(__file__).parent


def _listing(directory: Path) -> Tuple[Tuple[Path, ...], Tuple[Path, ...]]:
    """A directory's C sources and headers, each sorted by name."""
    return tuple(sorted(directory.glob("*.c"))), tuple(sorted(directory.glob("*.h")))


#: Compiled into the one library, and the headers they include: the
#: package directory's ``*.c`` and ``*.h`` files, so a file added there
#: is built and addressed without being listed.
SOURCES, HEADERS = _listing(_HERE)

#: The kernels, in the order :func:`status` lists them.
KERNELS = ("g1_msm", "compute_h", "fixed_base")

#: Why a pure path runs; :func:`status` reports one of these.
NO_COMPILER = "no compiler"
BUILD_FAILED = "build failed"
LOAD_FAILED = "load failed"
SELF_CHECK_FAILED = "self-check failed"
PINNED = "pinned by a test"

_BUILD_TIMEOUT_S = 120


def _kernel_classes() -> Dict[str, Any]:
    """Each kernel's ctypes wrapper, imported on first load: they live
    with the Python path they stand in for."""
    from ..curves.msm import CombKernel
    from ..curves.native import G1Kernel
    from ..snark.qap import QuotientKernel

    return {"g1_msm": G1Kernel, "compute_h": QuotientKernel, "fixed_base": CombKernel}


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
    """The content address: C sources and headers, compiler binary,
    machine."""
    cc_stat = os.stat(cc)
    ident = hashlib.sha256()
    for path in SOURCES + HEADERS:
        ident.update(f"{path.name}\0".encode())
        ident.update(path.read_bytes())
    ident.update(
        f"\0{os.path.realpath(cc)}\0{cc_stat.st_size}\0{cc_stat.st_mtime_ns}"
        f"\0{platform.machine()}\0{sys.platform}".encode()
    )
    return _cache_dir() / f"kernels-{ident.hexdigest()[:24]}.so"


def _build(cc: str, target: Path) -> None:
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".kernels-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, *map(str, SOURCES)],
            check=True, capture_output=True, timeout=_BUILD_TIMEOUT_S,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


#: Per kernel: ``(kernel, reason, detail)`` -- a kernel and no reason, or
#: no kernel, the reason and what went wrong.
_State = Dict[str, Tuple[Optional[Any], Optional[str], str]]


def _open() -> _State:
    """Build or load the library, then wrap and check each kernel."""
    cc = shutil.which("cc")
    if cc is None:
        return {name: (None, NO_COMPILER, "cc is not on PATH") for name in KERNELS}
    try:
        target = _library_path(cc)
        if not target.exists():
            _build(cc, target)
    except (OSError, subprocess.SubprocessError) as exc:
        stderr = getattr(exc, "stderr", None)
        detail = stderr.decode(errors="replace")[-400:] if stderr else str(exc)
        return {name: (None, BUILD_FAILED, detail) for name in KERNELS}
    try:
        lib = ctypes.CDLL(str(target))
    except OSError as exc:
        return {name: (None, LOAD_FAILED, f"{target}: {exc}") for name in KERNELS}
    state: _State = {}
    for name, cls in _kernel_classes().items():
        try:
            wrapped = cls(lib)
        except AttributeError as exc:
            state[name] = (None, LOAD_FAILED, f"{target}: {exc}")
            continue
        if not wrapped.self_check():
            state[name] = (
                None, SELF_CHECK_FAILED, f"{target} gave a wrong known answer"
            )
        else:
            state[name] = (wrapped, None, str(target))
    return state


_LOCK = threading.Lock()
_STATE: Optional[_State] = None
_PINNED = False


def load() -> _State:
    """Every kernel's state, building or loading the library on the
    first call in a process."""
    global _STATE
    with _LOCK:
        if _STATE is None:
            _STATE = _open()
            from ..obs.logging import get_logger

            log = get_logger("native")
            for name, (found, reason, detail) in _STATE.items():
                if found is None:
                    log.warning(f"{name}_fallback", reason=reason, detail=detail)
        return _STATE


def kernel(name: str) -> Optional[Any]:
    """The compiled kernel ``name`` (one of :data:`KERNELS`), or ``None``
    when its pure path runs."""
    if _PINNED:
        return None
    state = _STATE if _STATE is not None else load()
    return state[name][0]


def status() -> Dict[str, Dict[str, Optional[str]]]:
    """``{kernel: {"path": "native" | "python", "reason": ...}}`` for
    every kernel; ``reason`` is ``None`` on the native path and one of
    the module's reason strings otherwise.  Loads the library if nothing
    has yet."""
    if _PINNED:
        return {name: {"path": "python", "reason": PINNED} for name in KERNELS}
    return {
        name: {"path": "python" if found is None else "native", "reason": reason}
        for name, (found, reason, _) in load().items()
    }


@contextlib.contextmanager
def pin_pure(pinned: bool = True) -> Iterator[None]:
    """Test-only: inside the block, force (``True``) or release
    (``False``) every pure path in this process."""
    global _PINNED
    previous, _PINNED = _PINNED, pinned
    try:
        yield
    finally:
        _PINNED = previous
