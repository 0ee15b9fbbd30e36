"""Module-level worker functions for :class:`~repro.parallel.backend.ProcessBackend`.

Workers are spawned: each is a fresh interpreter that imports this module
by name and receives everything else pickled, so nothing here may be a
closure or a lambda, and nothing relies on state the parent built up (the
field backend and machine profile are resolved again from the inherited
environment on first use).  Heavy shared state -- the prepared proving key
and constraint system -- is shipped once per worker through the pool
initializer and pinned in a *keyed* cache, so a pool that outlives one
batch (the proof service serving many batches for one circuit digest)
never re-receives its key material.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from multiprocessing.connection import wait as wait_for_any
from typing import Dict, Optional, Sequence, Tuple

#: Worker-side prepared-key cache: key id -> (prepared key, constraint system),
#: filled by :func:`init_prove_worker` (pool initializer).
_PROVE_STATE: Dict[str, Tuple[object, object]] = {}


def _exit_with_parent() -> None:
    """Leave when the parent process does, however it went.

    A pool worker blocks on its task queue, and its siblings hold the
    queue's write end open, so a parent that is killed outright (``kill
    -9``, the OOM killer) would otherwise leave every worker -- and its
    copy of the prepared key -- behind for good.
    """
    parent = multiprocessing.parent_process()
    if parent is None:  # pragma: no cover - not running as a child
        return

    def watch() -> None:
        wait_for_any([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def init_prove_worker(key_id: str, ppk, cs) -> None:
    """Pool initializer: pin the (large) shared proving inputs in the worker."""
    _exit_with_parent()
    _PROVE_STATE[key_id] = (ppk, cs)


def prove_task(args: Tuple[str, Sequence[int], Optional[int]]):
    """Prove one assignment against the worker's pinned prepared key."""
    from ..snark.groth16 import prove_prepared

    key_id, assignment, seed = args
    try:
        ppk, cs = _PROVE_STATE[key_id]
    except KeyError:  # pragma: no cover - defensive; initializer always ran
        raise RuntimeError(
            f"worker has no prepared key cached under {key_id!r}"
        ) from None
    return prove_prepared(ppk, cs, assignment, seed=seed)


def msm_chunk_g1(args) -> Tuple[int, int, int]:
    """One MSM chunk; returns a Jacobian triple of plain ints (picklable)."""
    from ..curves.msm import msm_g1

    points, scalars = args
    x, y, z = msm_g1(points, scalars)
    # Canonical ints: backend-native coordinates (mpz) would force the
    # parent to depend on the worker's backend for unpickling.
    return (int(x), int(y), int(z))


def miller_chunk(args) -> Tuple[int, ...]:
    """One shared-loop Miller product over a chunk of (G1, G2) int tuples.

    Points arrive as canonical ints (G1 affine pair; G2 as the four Fp2
    coefficients) and the raw Miller value returns as 12 canonical ints
    -- same plain-int convention as :func:`msm_chunk_g1`, so neither
    direction depends on the peer's field backend.
    """
    from ..curves.g1 import G1Point
    from ..curves.g2 import G2Point
    from ..curves.pairing import fp12_to_ints, multi_miller_loop
    from ..field.tower import Fp2Element

    raw_pairs, variant = args
    pairs = [
        (
            G1Point(px, py),
            G2Point(Fp2Element(x0, x1), Fp2Element(y0, y1)),
        )
        for (px, py), (x0, x1, y0, y1) in raw_pairs
    ]
    return fp12_to_ints(multi_miller_loop(pairs, variant))
