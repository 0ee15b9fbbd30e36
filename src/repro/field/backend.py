"""Frozen-import shim: field arithmetic here is plain ``int``.

Every kernel in ``field/``, ``curves/`` and ``snark/`` works on canonical
residues with ``%`` and ``pow(x, -1, p)`` directly, and nothing under
``src/`` imports this module.  It keeps two names alive for the frozen
benchmark code that still imports them: ``benchmarks/e2e/harness.py``
and ``benchmarks/conftest.py`` (:func:`active_field_backend`) and
``benchmarks/e2e/layers.py`` (``get_field_ops(R).wrap_many``).
"""

from __future__ import annotations

from types import SimpleNamespace

__all__ = ["active_field_backend", "get_field_ops"]


def active_field_backend() -> str:
    """The name benchmark records carry; there is only one."""
    return "python"


def get_field_ops(modulus: int) -> SimpleNamespace:
    """An object whose ``wrap_many`` reduces ints to residues mod ``modulus``."""
    return SimpleNamespace(wrap_many=lambda values: [v % modulus for v in values])
