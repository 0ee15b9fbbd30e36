"""Module-level worker functions for :class:`~repro.parallel.backend.ProcessBackend`.

Workers are spawned: each is a fresh interpreter that imports this module
by name and receives everything else pickled, so nothing here may be a
closure or a lambda, and nothing relies on state the parent built up (the
field backend is resolved again from the inherited environment on first
use).  Heavy shared state -- the prepared proving key and constraint
system -- is shipped once per worker through the pool initializer and
pinned in a *keyed* cache, so a pool that outlives one proof (the proof
service serving many claims for one circuit digest) never re-receives
its key material.
"""

from __future__ import annotations

import gc
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


def freeze_heap() -> None:
    """Collect once, then move every surviving object out of the cyclic
    collector's reach (``gc.freeze``).

    Called once a prepared proving key is in place.  The key graph --
    ~100k tracked objects on the MNIST-MLP shape (``G1Point``,
    ``Fp2Element``, ``LinearCombination``) -- lives as long as the process
    and holds no garbage, yet every full collection walked all of it:
    ~40 ms, landing inside some claim's prove.  Frozen objects are still
    freed by reference counting; only cycles among them would never be.
    """
    gc.collect()
    gc.freeze()


def init_prove_worker(key_id: str, ppk, cs) -> None:
    """Pool initializer: pin the (large) shared proving inputs in the worker,
    load the compiled kernels and freeze it all out of the cyclic collector
    before the first task rather than inside one claim's prove."""
    from .. import native

    _exit_with_parent()
    _PROVE_STATE[key_id] = (ppk, cs)
    native.load()
    freeze_heap()


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
