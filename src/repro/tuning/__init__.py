"""Machine-profile auto-tuning: measure once, load at every startup.

The kernels carry performance constants that are really properties of
the *host* -- Pippenger window widths, worker counts, scheduler batch
size, process-pool chunking.  ``zkrownn tune``
(:mod:`repro.tuning.tuner`) searches those knobs on representative
workloads and persists the winners as a machine profile
(:mod:`repro.tuning.profile`); the engine, the proof service and the
parallel backends consult the loaded profile at startup, with
environment variables still taking precedence.  ``zkrownn bench-report``
(:mod:`repro.tuning.report`) consolidates the ``BENCH_*.json`` files the
benchmarks emit into one trend table.
"""

from .profile import (
    MachineProfile,
    active_profile,
    clear_profile_cache,
    default_profile_path,
    load_profile,
    set_profile,
)
from .tuner import Tuner, TuningResult, grid_search, hill_climb

__all__ = [
    "MachineProfile",
    "active_profile",
    "clear_profile_cache",
    "default_profile_path",
    "load_profile",
    "set_profile",
    "Tuner",
    "TuningResult",
    "grid_search",
    "hill_climb",
]
