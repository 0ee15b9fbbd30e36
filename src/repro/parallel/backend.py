"""Where whole proofs run.

A :class:`ComputeBackend` proves one assignment against one prepared key;
nothing smaller than a proof crosses it.  Two implementations:

* :class:`SerialBackend` -- proofs on the caller's thread; what
  :func:`get_backend` returns when nothing asks for more, and the
  reference the process backend must match bit-for-bit.
* :class:`ProcessBackend` -- *persistent* pools of worker processes keyed
  by circuit digest: the prepared key crosses into each worker once (pool
  initializer, pinned in a worker-side keyed cache) and every later proof
  for the same digest reuses the warm pool instead of starting a new one.
  Several threads proving the same digest share its pool, so claims prove
  side by side.

Start method: every worker is created with ``spawn``.  The proof service
builds its prove pools from a process that already runs HTTP handler,
scheduler, heartbeat and watchdog threads; a ``fork`` there would copy
whatever locks those threads hold at that instant (the metrics registry
lock, the log stream lock, a buffered stream's lock) into a child that has
no thread left to release them.  A spawned worker is a fresh interpreter:
it imports :mod:`repro.parallel.workers`, receives its inputs pickled
(about 5 MB and 0.1 s for a 4.7k-constraint key) and resolves the field
backend from the environment it inherits -- no lock, thread or cache
state of the parent crosses.  Entry-point scripts need the usual
``if __name__ == "__main__":`` guard, as with any spawned pool.

Failure: a prove worker that dies (``SIGKILL``, the OOM killer, a crashed
interpreter) breaks its pool; the proofs on it fail with
:class:`ProveWorkerLost`, the pool is dropped, and the next proof for the
digest starts a fresh one.  The proof scheduler retries such a claim like
any other retryable failure.

Proofs are *identical* across backends: per-claim randomness comes from
per-claim seeds, not worker state.

Selection: pass a backend to :class:`~repro.engine.engine.ProvingEngine`,
or set ``ZKROWNN_BACKEND=process`` (and optionally ``ZKROWNN_WORKERS=N``)
and call :func:`get_backend`.  The proof service asks
:func:`machine_backend` instead, whose fallback is sized from the CPUs the
process may use.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence

from .. import config
from . import workers

__all__ = [
    "ComputeBackend",
    "SerialBackend",
    "ProcessBackend",
    "ProveWorkerLost",
    "get_backend",
    "machine_backend",
    "usable_cpus",
]

class ProveWorkerLost(RuntimeError):
    """A prove-pool worker process died while proofs were on its pool.

    The pool has already been dropped when this is raised: the proofs in
    flight are lost, nothing else is, and proving the same claim again
    starts a fresh pool.
    """


def usable_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the platform
    has one (a container or ``taskset`` often grants fewer than the box
    has), else the machine's count."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


class ComputeBackend:
    """Where whole proofs run: :meth:`prove`, :meth:`busy_workers`,
    :meth:`close`."""

    name: str = "abstract"
    #: Proofs that can run at the same time.  The proof service starts
    #: this many dispatch threads.
    workers: int = 1

    def __init__(self) -> None:
        self._in_flight = 0  # proofs handed to a worker and not yet back
        self._in_flight_lock = threading.Lock()

    def _track(self, delta: int) -> None:
        with self._in_flight_lock:
            self._in_flight += delta

    def busy_workers(self) -> int:
        """Workers proving right now (at most :attr:`workers`)."""
        with self._in_flight_lock:
            return min(self._in_flight, self.workers)

    def prove(
        self, ppk, cs, assignment: Sequence[int], seed: Optional[int], *,
        key_id: str,
    ):
        """Prove one assignment against a prepared key, on the calling
        thread.  ``key_id`` (the circuit digest) names the prepared key:
        worker processes cache it under that name."""
        from ..snark.groth16 import prove_prepared

        self._track(+1)
        try:
            return prove_prepared(ppk, cs, assignment, seed=seed)
        finally:
            self._track(-1)

    def close(self) -> None:
        """Release pooled resources (no-op for serial)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ComputeBackend):
    """Everything on the caller's thread -- the library default."""

    name = "serial"


def _stop_prove_pool(pool: ProcessPoolExecutor) -> None:
    """Stop a prove pool without waiting for proofs nobody will read.

    ``ProcessPoolExecutor`` has no public way to stop workers that are
    mid-task before Python 3.14, so the processes are terminated through
    its process table; ``shutdown`` then reaps them and fails whatever was
    still queued.
    """
    for process in list((pool._processes or {}).values()):
        process.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


class ProcessBackend(ComputeBackend):
    """Prove whole claims on per-digest pools of spawned worker processes.

    ``workers_count`` defaults to :func:`usable_cpus` (so does ``0``; a
    negative count is refused).  ``max_prove_pools`` bounds how many
    per-digest prove pools stay warm at once (each worker of a pool holds
    its own copy of that digest's prepared key, plus one proof's working
    set while it proves); the least recently used idle pool is stopped
    beyond that.

    Several threads may prove one digest at once: they share the digest's
    pool, one task each.  With fewer than two workers a pool would only
    add a process hop, so proofs run on the calling thread.
    """

    name = "process"

    def __init__(
        self,
        workers_count: Optional[int] = None,
        *,
        max_prove_pools: int = 2,
    ):
        super().__init__()
        self.workers = _checked_workers(workers_count) or usable_cpus()
        self.max_prove_pools = max_prove_pools
        self._ctx = multiprocessing.get_context("spawn")
        # Guarded by _pools_lock: scheduler threads sharing one backend
        # must not race pool creation, and eviction must never stop a pool
        # with a proof in flight (_prove_busy counts users).
        self._pools_lock = threading.Lock()
        self._prove_pools: "OrderedDict[str, ProcessPoolExecutor]" = OrderedDict()
        self._prove_busy: Dict[str, int] = {}

    # -- pool management ------------------------------------------------------

    def _acquire_prove_pool(self, key_id: str, ppk, cs) -> ProcessPoolExecutor:
        """The persistent pool for one circuit digest, created on first use.

        The initializer ships (key id, prepared key, constraint system)
        into every worker exactly once; all later proofs for this digest
        reuse the warm workers and ship only assignments.  The returned
        pool is pinned against eviction until :meth:`_release_prove_pool`;
        only *idle* LRU pools are stopped, so the cache can transiently
        exceed ``max_prove_pools`` while several shapes prove at once.
        """
        evict: List[ProcessPoolExecutor] = []
        with self._pools_lock:
            pool = self._prove_pools.get(key_id)
            if pool is None:
                for old_key in list(self._prove_pools):
                    if len(self._prove_pools) < self.max_prove_pools:
                        break
                    if self._prove_busy.get(old_key, 0) == 0:
                        evict.append(self._prove_pools.pop(old_key))
                        self._prove_busy.pop(old_key, None)
                # Workers start with the first task, not here.
                pool = ProcessPoolExecutor(
                    self.workers,
                    mp_context=self._ctx,
                    initializer=workers.init_prove_worker,
                    initargs=(key_id, ppk, cs),
                )
                self._prove_pools[key_id] = pool
            else:
                self._prove_pools.move_to_end(key_id)
            self._prove_busy[key_id] = self._prove_busy.get(key_id, 0) + 1
        for old_pool in evict:
            _stop_prove_pool(old_pool)
        return pool

    def _release_prove_pool(self, key_id: str) -> None:
        with self._pools_lock:
            count = self._prove_busy.get(key_id, 1) - 1
            if count > 0:
                self._prove_busy[key_id] = count
            else:
                self._prove_busy.pop(key_id, None)

    def _drop_prove_pool(self, key_id: str, pool: ProcessPoolExecutor) -> None:
        """Forget a broken pool (every thread that was on it calls this)."""
        with self._pools_lock:
            if self._prove_pools.get(key_id) is pool:
                del self._prove_pools[key_id]
        _stop_prove_pool(pool)

    def prove_pool_keys(self) -> List[str]:
        """Digests with a warm prove pool (observability + tests)."""
        with self._pools_lock:
            return list(self._prove_pools)

    def close(self) -> None:
        with self._pools_lock:
            pools = list(self._prove_pools.values())
            self._prove_pools.clear()
            self._prove_busy.clear()
        for pool in pools:
            _stop_prove_pool(pool)

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    def prove(self, ppk, cs, assignment, seed, *, key_id):
        if self.workers < 2:
            return super().prove(ppk, cs, assignment, seed, key_id=key_id)
        pool = self._acquire_prove_pool(key_id, ppk, cs)
        self._track(+1)
        try:
            try:
                future = pool.submit(workers.prove_task, (key_id, assignment, seed))
            except (OSError, ValueError) as exc:
                # submit() starts workers on demand.  If one cannot be
                # started -- the OS refuses, or a worker just died and the
                # pool is closing the queues the new one was about to
                # inherit -- this pool is as lost as a broken one.
                raise BrokenProcessPool(str(exc)) from exc
            return future.result()
        except BrokenProcessPool as exc:
            self._drop_prove_pool(key_id, pool)
            raise ProveWorkerLost(
                f"a prove worker for circuit {key_id[:12]} was lost ({exc}); "
                "its pool was dropped and the next proof starts a fresh one"
            ) from exc
        finally:
            self._track(-1)
            self._release_prove_pool(key_id)

    def __repr__(self) -> str:
        return f"ProcessBackend(workers={self.workers})"


def _checked_workers(workers_count: Optional[int]) -> Optional[int]:
    """An argument worker count by the ``ZKROWNN_WORKERS`` rule (an integer
    >= 0, 0 meaning the usable CPUs); ``None`` means unset."""
    if workers_count is None:
        return None
    return config.worker_count("workers_count", str(workers_count))


def _resolve_workers(workers_count: Optional[int]) -> int:
    """argument > ``$ZKROWNN_WORKERS`` > usable CPUs."""
    if workers_count is None:
        workers_count = config.setting("workers")
    return _checked_workers(workers_count) or usable_cpus()


def get_backend(
    name: Optional[str] = None,
    workers_count: Optional[int] = None,
    *,
    default: str = "serial",
) -> ComputeBackend:
    """Build a backend by name, falling back to the environment.

    Precedence: explicit argument > environment variable > the caller's
    default.  ``name`` falls back ``$ZKROWNN_BACKEND`` -> ``default``;
    ``workers_count`` falls back ``$ZKROWNN_WORKERS`` ->
    :func:`usable_cpus`.

    ``default`` stays ``"serial"`` for library callers: with nothing set,
    proving runs on the calling thread, which is what the e2e harness
    measures (it reads that thread's CPU clock and records this name).
    """
    workers_count = _checked_workers(workers_count)
    name = name or config.setting("backend") or default
    if config.choice("backend", name, config.BACKENDS) == "serial":
        return SerialBackend()
    return ProcessBackend(_resolve_workers(workers_count))


def machine_backend(
    name: Optional[str] = None, workers_count: Optional[int] = None
) -> ComputeBackend:
    """The proof service's backend: :func:`get_backend` with a default
    sized from the machine instead of ``"serial"``.

    The worker count is resolved first (argument > ``$ZKROWNN_WORKERS`` >
    :func:`usable_cpus`).  With two or more, the fallback is a process
    backend of that size, so same-shape claims prove side by side and the
    service starts as many dispatch threads
    (:attr:`ComputeBackend.workers`); with one it is the serial backend
    and a single dispatch thread.  An explicit name and
    ``$ZKROWNN_BACKEND`` still win, as everywhere.
    """
    workers_count = _resolve_workers(workers_count)
    return get_backend(
        name, workers_count,
        default="process" if workers_count >= 2 else "serial",
    )
