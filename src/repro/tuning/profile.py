"""The persisted machine profile: measured knob settings for this host.

A profile is a small JSON document written by ``zkrownn tune`` --
``~/.zkrownn/profile.json`` by default, or wherever ``--out`` /
``ZKROWNN_PROFILE`` points -- holding the knob values that measured
fastest on this machine:

* ``pippenger_windows``: per-size window-width breakpoints (a ``signed``
  table of ``[min_pairs, width]`` rows); consulted by
  ``pippenger_window_size`` before its static dev-box table.
* ``compute_backend`` / ``workers`` / ``min_msm_chunk``: parallel layer
  defaults, consulted by ``repro.parallel.backend.get_backend``.
* ``max_batch``: proof-service scheduler batching default.

Precedence is uniform everywhere: explicit argument > environment
variable > machine profile > static default.  ``ZKROWNN_PROFILE``
selects a non-default profile path; ``off`` (or ``0`` / ``none``)
disables profile loading entirely.

A profile file is outside input: :meth:`MachineProfile.from_dict`
validates what the kernels will act on and raises ``ValueError``, which
:func:`active_profile` maps to "no profile" -- a stale or hand-edited
profile must never break proving.  Keys this version does not know
(older ``zkrownn tune`` runs wrote ``field_backend`` and an ``unsigned``
window table) are ignored.

This module is stdlib-only and imported lazily from a low layer
(``curves.msm``) -- it must never import back into the kernels it
parameterizes.

The in-process cache is PID-keyed like the field-backend registry, so
forked workers re-resolve from the environment rather than inheriting a
parent's pin.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "PROFILE_ENV",
    "MachineProfile",
    "default_profile_path",
    "load_profile",
    "active_profile",
    "set_profile",
    "clear_profile_cache",
    "pippenger_window_override",
    "profile_compute_backend",
    "profile_workers",
    "profile_max_batch",
    "profile_min_msm_chunk",
    "active_profile_metadata",
]

PROFILE_ENV = "ZKROWNN_PROFILE"
PROFILE_VERSION = 1

#: Widest Pippenger window a profile may ask for (and the tuner may try):
#: the scatter allocates ``2^(width-1)`` bucket lists per window.
MAX_WINDOW_WIDTH = 16

_OFF_VALUES = {"off", "0", "none", "disabled"}


def default_profile_path() -> str:
    return os.path.join(os.path.expanduser("~"), ".zkrownn", "profile.json")


def machine_fingerprint() -> Dict[str, Any]:
    """Best-effort description of the host the profile was measured on."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


@dataclass
class MachineProfile:
    """Typed view of one profile document (see module docstring)."""

    compute_backend: Optional[str] = None
    workers: Optional[int] = None
    max_batch: Optional[int] = None
    min_msm_chunk: Optional[int] = None
    #: ``{"signed": [[min_pairs, width], ...]}`` -- rows sorted by
    #: ``min_pairs``; lookup takes the last row at or below the queried
    #: size.
    pippenger_windows: Dict[str, List[List[int]]] = field(default_factory=dict)
    #: Raw benchmark numbers the tuner based its choices on (seconds).
    measurements: Dict[str, Any] = field(default_factory=dict)
    machine: Dict[str, Any] = field(default_factory=dict)
    created_at: Optional[str] = None
    version: int = PROFILE_VERSION
    #: Where this profile was loaded from (None for in-memory profiles).
    path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"version": self.version}
        for key in (
            "created_at",
            "compute_backend",
            "workers",
            "max_batch",
            "min_msm_chunk",
        ):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        if self.pippenger_windows:
            doc["pippenger_windows"] = self.pippenger_windows
        if self.measurements:
            doc["measurements"] = self.measurements
        if self.machine:
            doc["machine"] = self.machine
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any], path: Optional[str] = None
                  ) -> "MachineProfile":
        if not isinstance(doc, dict):
            raise ValueError("machine profile must be a JSON object")
        windows = doc.get("pippenger_windows") or {}
        if not isinstance(windows, dict):
            raise ValueError("pippenger_windows must be a JSON object")
        cleaned: Dict[str, List[List[int]]] = {}
        rows = windows.get("signed")
        if rows:
            try:
                table = sorted(
                    [[int(n), int(c)] for n, c in rows], key=lambda row: row[0]
                )
            except TypeError as exc:
                raise ValueError(f"malformed pippenger window row: {exc}") from None
            for min_pairs, width in table:
                if min_pairs < 0 or not 1 <= width <= MAX_WINDOW_WIDTH:
                    raise ValueError(
                        f"pippenger window row [{min_pairs}, {width}] out of "
                        f"range: need min_pairs >= 0 and width in "
                        f"1..{MAX_WINDOW_WIDTH}"
                    )
            cleaned["signed"] = table
        return cls(
            compute_backend=doc.get("compute_backend"),
            workers=_opt_int(doc.get("workers")),
            max_batch=_opt_int(doc.get("max_batch")),
            min_msm_chunk=_opt_int(doc.get("min_msm_chunk")),
            pippenger_windows=cleaned,
            measurements=doc.get("measurements") or {},
            machine=doc.get("machine") or {},
            created_at=doc.get("created_at"),
            version=int(doc.get("version", PROFILE_VERSION)),
            path=path,
        )

    def save(self, path: str) -> str:
        """Atomically write the profile JSON; returns the path written."""
        path = os.path.expanduser(path)
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.path = path
        return path

    def window_override(self, n: int) -> Optional[int]:
        table = self.pippenger_windows.get("signed")
        if not table:
            return None
        best: Optional[int] = None
        for min_pairs, width in table:
            if n >= min_pairs:
                best = width
            else:
                break
        return best


def _opt_int(value) -> Optional[int]:
    return None if value is None else int(value)


def load_profile(path: str) -> MachineProfile:
    """Load a profile document from ``path`` (raises on missing/invalid)."""
    path = os.path.expanduser(path)
    with open(path, "r") as handle:
        doc = json.load(handle)
    return MachineProfile.from_dict(doc, path=path)


# PID-keyed resolution cache; forked workers re-resolve on first use.
_CACHE: Dict[str, Any] = {
    "pid": None, "profile": None, "pinned": False, "resolved": False,
}


def set_profile(profile: Optional[MachineProfile]) -> Optional[MachineProfile]:
    """Pin the process-wide profile (tests, tuner); returns the previous pin.

    ``None`` unpins, returning resolution to ``ZKROWNN_PROFILE`` / the
    default path on next use.
    """
    previous = _CACHE["profile"] if _CACHE["pinned"] else None
    _CACHE["pid"] = os.getpid()
    _CACHE["profile"] = profile
    _CACHE["pinned"] = profile is not None
    _CACHE["resolved"] = False
    return previous


def clear_profile_cache() -> None:
    """Drop the cached resolution (and any pin); next use re-resolves."""
    _CACHE["pid"] = None
    _CACHE["profile"] = None
    _CACHE["pinned"] = False
    _CACHE["resolved"] = False


def active_profile() -> Optional[MachineProfile]:
    """The machine profile in effect for this process, if any.

    Resolution order: a :func:`set_profile` pin; else the path named by
    ``ZKROWNN_PROFILE`` (``off`` disables); else the default
    ``~/.zkrownn/profile.json`` when it exists.  Unreadable or invalid
    profile files are treated as absent -- a stale profile must never
    break proving.
    """
    pid = os.getpid()
    if _CACHE["pid"] == pid and (_CACHE["pinned"] or _CACHE["resolved"]):
        return _CACHE["profile"]
    env = os.environ.get(PROFILE_ENV, "").strip()
    profile: Optional[MachineProfile] = None
    if env.lower() not in _OFF_VALUES:
        path = env or default_profile_path()
        try:
            profile = load_profile(path)
        except (OSError, ValueError):
            profile = None
    _CACHE["pid"] = pid
    _CACHE["profile"] = profile
    _CACHE["pinned"] = False
    _CACHE["resolved"] = True
    return profile


def pippenger_window_override(n: int) -> Optional[int]:
    profile = active_profile()
    if profile is None:
        return None
    return profile.window_override(n)


def profile_compute_backend() -> Optional[str]:
    profile = active_profile()
    return profile.compute_backend if profile else None


def profile_workers() -> Optional[int]:
    profile = active_profile()
    return profile.workers if profile else None


def profile_max_batch() -> Optional[int]:
    profile = active_profile()
    return profile.max_batch if profile else None


def profile_min_msm_chunk() -> Optional[int]:
    profile = active_profile()
    return profile.min_msm_chunk if profile else None


def active_profile_metadata() -> Dict[str, Any]:
    """Summary of the loaded profile for benchmark JSON payloads."""
    profile = active_profile()
    if profile is None:
        return {"loaded": False}
    return {
        "loaded": True,
        "path": profile.path,
        "created_at": profile.created_at,
        "compute_backend": profile.compute_backend,
        "workers": profile.workers,
        "max_batch": profile.max_batch,
        "min_msm_chunk": profile.min_msm_chunk,
        "pippenger_windows": profile.pippenger_windows or None,
    }
