"""What is left of the machine profile: a report that none is loaded.

Every knob now has one source -- the static window table in
:func:`repro.curves.msm.pippenger_window_size`, the usable CPUs, the
``ZKROWNN_*`` variables read by :mod:`repro.config`, constructor defaults
elsewhere -- so no per-host file is read.  This
function stays only because ``benchmarks/e2e/harness.py`` records it.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["active_profile_metadata"]


def active_profile_metadata() -> Dict[str, Any]:
    """Always ``{"loaded": False}``: there is no machine profile."""
    return {"loaded": False}
