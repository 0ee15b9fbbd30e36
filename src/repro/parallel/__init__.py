"""Compute backends: where whole proofs run.

Independent claims are embarrassingly parallel; this package decides
*where* each proof runs.  :class:`SerialBackend` proves on the calling
thread and is what :func:`get_backend` returns when nothing is
configured; :class:`ProcessBackend` proves same-shape claims side by side
in spawned workers that hold the prepared key, and is what
:func:`machine_backend` -- the proof service's choice -- falls back to on
a machine with two or more usable CPUs.  Selection is explicit (engine
config) or via the ``ZKROWNN_BACKEND`` / ``ZKROWNN_WORKERS`` environment
variables (read by :mod:`repro.config`).
"""

from .backend import (
    ComputeBackend,
    ProcessBackend,
    ProveWorkerLost,
    SerialBackend,
    get_backend,
    machine_backend,
    usable_cpus,
)

__all__ = [
    "ComputeBackend",
    "SerialBackend",
    "ProcessBackend",
    "ProveWorkerLost",
    "get_backend",
    "machine_backend",
    "usable_cpus",
]
