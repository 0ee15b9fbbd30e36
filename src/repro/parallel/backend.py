"""Executor abstraction over the prover's parallelizable kernels.

Two implementations:

* :class:`SerialBackend` -- direct calls on the caller's thread; what
  :func:`get_backend` returns when nothing asks for more, and the
  reference the process backend must match bit-for-bit.
* :class:`ProcessBackend` -- worker processes: MSMs are split into
  per-worker chunks whose Jacobian partial sums are reduced in the parent,
  and multi-claim proving runs on *persistent* pools keyed by circuit
  digest: the prepared key crosses into each worker once (pool
  initializer, pinned in a worker-side keyed cache) and every later batch
  for the same digest reuses the warm pool instead of starting a new one.

Start method: every worker is created with ``spawn``.  The proof service
builds its prove pools from a process that already runs HTTP handler,
scheduler, heartbeat and watchdog threads; a ``fork`` there would copy
whatever locks those threads hold at that instant (the metrics registry
lock, the log stream lock, a buffered stream's lock) into a child that has
no thread left to release them.  A spawned worker is a fresh interpreter:
it imports :mod:`repro.parallel.workers`, receives its inputs pickled
(about 5 MB and 0.1 s for a 4.7k-constraint key) and resolves the field
backend and machine profile from the environment it inherits -- no lock,
thread or cache state of the parent crosses.  Entry-point scripts need the
usual ``if __name__ == "__main__":`` guard, as with any spawned pool.

Streaming: :meth:`ComputeBackend.prove_stream` consumes an *iterator* of
``(assignment, seed)`` pairs.  The process backend pulls it only while
fewer tasks are outstanding than it has workers, so the parent synthesizes
claim *i+1* while the workers prove claims up to *i* -- the shape a proving
service wants -- and a budget check between pulls still sees the clock.

Failure: a prove worker that dies (``SIGKILL``, the OOM killer, a crashed
interpreter) breaks its pool; the batches on it fail with
:class:`ProveWorkerLost`, the pool is dropped, and the next batch for the
digest starts a fresh one.  The proof scheduler retries such a batch like
any other retryable failure.

Proofs and MSM results are *identical* across backends: chunking only
changes the Jacobian representative, which normalization collapses, and
per-claim randomness comes from per-claim seeds, not worker state.

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
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..curves.g1 import G1_INFINITY_JAC, JacobianPoint, jac_add
from ..curves.msm import msm_g1, msm_g1_multi, msm_g2
from ..curves.pairing import G2Precomputed, fp12_from_ints, multi_miller_loop
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

ProvePair = Tuple[Sequence[int], Optional[int]]


class ProveWorkerLost(RuntimeError):
    """A prove-pool worker process died while batches were on its pool.

    The pool has already been dropped when this is raised: the proofs in
    flight are lost, nothing else is, and proving the same stream again
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
    """Interface for the prover's parallelizable operations."""

    name: str = "abstract"
    #: Proofs :meth:`prove_stream` can run at the same time.  The proof
    #: service starts this many dispatch threads.
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

    def msm_g1(self, points: Sequence, scalars: Sequence[int]) -> JacobianPoint:
        raise NotImplementedError

    def msm_g1_multi(
        self, points_lists: Sequence[Sequence], scalars: Sequence[int]
    ) -> List[JacobianPoint]:
        """Several MSMs over one scalar vector (see :func:`msm_g1_multi`).

        The default runs them independently; backends override where the
        shared-recoding kernel (or a better fan-out) applies.
        """
        return [self.msm_g1(points, scalars) for points in points_lists]

    def msm_g2(self, points: Sequence, scalars: Sequence[int]):
        raise NotImplementedError

    def multi_miller(self, pairs: Sequence[Tuple], variant: str = "optimal"):
        """Shared-loop Miller product ``prod_i f_{c, Q_i}(P_i)`` (no final
        exponentiation -- the caller combines products and exponentiates
        once).  Backends may fan the pairs out in chunks; chunk products
        multiply together to the same value the serial kernel returns.
        """
        return multi_miller_loop(pairs, variant)

    def prove_stream(
        self, ppk, cs, pairs: Iterable[ProvePair], *, key_id: str
    ) -> List:
        """Prove a stream of ``(assignment, seed)`` pairs, preserving order.

        ``pairs`` may be a lazy generator: backends pull it as capacity
        frees up, pipelining upstream witness synthesis with proving.
        ``key_id`` (the circuit digest) names the prepared key: worker
        processes cache it under that name.
        """
        raise NotImplementedError

    def prove_batch(
        self,
        ppk,
        cs,
        assignments: Sequence[Sequence[int]],
        seeds: Sequence[Optional[int]],
        *,
        key_id: str,
    ) -> List:
        """Prove a materialized batch (sequence form of :meth:`prove_stream`)."""
        return self.prove_stream(
            ppk, cs, zip(assignments, seeds), key_id=key_id
        )

    def _prove_on_calling_thread(self, ppk, cs, pairs: Iterable[ProvePair]) -> List:
        from ..snark.groth16 import prove_prepared

        # Pulling the iterator lazily keeps synthesis and proving
        # interleaved even without real parallelism: claim i+1 is not
        # synthesized until claim i has proved (bounded memory).
        proofs = []
        for assignment, seed in pairs:
            self._track(+1)
            try:
                proofs.append(prove_prepared(ppk, cs, assignment, seed=seed))
            finally:
                self._track(-1)
        return proofs

    def close(self) -> None:
        """Release pooled resources (no-op for serial)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ComputeBackend):
    """Everything on the caller's thread -- the library default."""

    name = "serial"

    def msm_g1(self, points, scalars):
        return msm_g1(points, scalars)

    def msm_g1_multi(self, points_lists, scalars):
        return msm_g1_multi(points_lists, scalars)

    def msm_g2(self, points, scalars):
        return msm_g2(points, scalars)

    def prove_stream(self, ppk, cs, pairs, *, key_id):
        return self._prove_on_calling_thread(ppk, cs, pairs)


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
    """Fan work out to pools of spawned worker processes.

    ``workers_count`` defaults to :func:`usable_cpus`.  ``min_msm_chunk``
    guards against paying pickling latency on MSMs too small to win from
    parallelism; below ``2 * min_msm_chunk`` pairs the call runs serially.
    ``max_prove_pools`` bounds how many per-digest prove pools stay warm at
    once (each worker of a pool holds its own copy of that digest's
    prepared key, plus one proof's working set while it proves); the least
    recently used idle pool is stopped beyond that.

    Several threads may stream batches for one digest at once: they share
    the digest's pool, each keeping at most ``workers`` tasks outstanding.
    """

    name = "process"

    def __init__(
        self,
        workers_count: Optional[int] = None,
        *,
        min_msm_chunk: int = 1024,
        min_miller_pairs: int = 8,
        max_prove_pools: int = 2,
    ):
        super().__init__()
        self.workers = workers_count or usable_cpus()
        self.min_msm_chunk = min_msm_chunk
        self.min_miller_pairs = min_miller_pairs
        self.max_prove_pools = max_prove_pools
        self._ctx = multiprocessing.get_context("spawn")
        self._pool = None
        # Guarded by _pools_lock: scheduler threads sharing one backend
        # must not race pool creation, and eviction must never stop a pool
        # with an in-flight batch (_prove_busy counts users).
        self._pools_lock = threading.Lock()
        self._prove_pools: "OrderedDict[str, ProcessPoolExecutor]" = OrderedDict()
        self._prove_busy: Dict[str, int] = {}

    # -- pool management ------------------------------------------------------

    def _msm_pool(self):
        if self._pool is None:
            self._pool = self._ctx.Pool(self.workers)
        return self._pool

    def _acquire_prove_pool(self, key_id: str, ppk, cs) -> ProcessPoolExecutor:
        """The persistent pool for one circuit digest, created on first use.

        The initializer ships (key id, prepared key, constraint system)
        into every worker exactly once; all later batches for this digest
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
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
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

    # -- kernels --------------------------------------------------------------

    def msm_g1(self, points, scalars):
        n = len(points)
        if len(scalars) != n:
            raise ValueError("points and scalars must have equal length")
        if n < 2 * self.min_msm_chunk or self.workers < 2:
            return msm_g1(points, scalars)
        chunk = (n + self.workers - 1) // self.workers
        jobs = [
            (points[i : i + chunk], scalars[i : i + chunk])
            for i in range(0, n, chunk)
        ]
        total = G1_INFINITY_JAC
        for partial in self._msm_pool().map(workers.msm_chunk_g1, jobs):
            total = jac_add(total, partial)
        return total

    def msm_g1_multi(self, points_lists, scalars):
        # Small inputs: the serial shared-recoding kernel wins (no pickling,
        # shared GLV splits).  Large inputs: chunked fan-out per MSM keeps
        # all workers busy, which beats sharing the recoding serially.
        if len(scalars) < 2 * self.min_msm_chunk or self.workers < 2:
            return msm_g1_multi(points_lists, scalars)
        return [self.msm_g1(points, scalars) for points in points_lists]

    def msm_g2(self, points, scalars):
        # G2 MSMs in Groth16 are single-digit percent of prove time; the
        # Fp2-object pickling cost outweighs fan-out.
        return msm_g2(points, scalars)

    def multi_miller(self, pairs, variant="optimal"):
        """Chunked shared Miller loops; chunk products combine in the parent.

        Each worker runs one shared-squaring-chain loop over its chunk and
        returns the raw Miller value as 12 canonical ints; the parent
        multiplies the chunk values.  The squaring chain is re-run once
        per chunk (that part does not parallelize), so the fan-out pays
        off only for batches with enough line-evaluation work --
        ``min_miller_pairs`` live pairs guard the crossover.  Precomputed-G2
        pairs carry captured coefficient lists whose pickling cost defeats
        the point of shipping them: they stay in a parent-side loop that
        runs while the workers do.
        """
        pairs = list(pairs)
        fixed = [pair for pair in pairs if isinstance(pair[1], G2Precomputed)]
        # Infinity pairs contribute the factor 1; drop them before
        # chunking so no worker receives a coordinate-less point.
        live = [
            (p, q) for p, q in pairs
            if not isinstance(q, G2Precomputed)
            and not (p.is_infinity() or q.is_infinity())
        ]
        if not live or len(live) < self.min_miller_pairs or self.workers < 2:
            return multi_miller_loop(pairs, variant)
        chunk = (len(live) + self.workers - 1) // self.workers
        jobs = [
            (
                [
                    (
                        (int(p.x), int(p.y)),
                        (int(q.x.c0), int(q.x.c1), int(q.y.c0), int(q.y.c1)),
                    )
                    for p, q in live[i : i + chunk]
                ],
                variant,
            )
            for i in range(0, len(live), chunk)
        ]
        parts = self._msm_pool().map_async(workers.miller_chunk, jobs)
        total = multi_miller_loop(fixed, variant)
        for part in parts.get():
            total = total * fp12_from_ints(part)
        return total

    def prove_stream(self, ppk, cs, pairs, *, key_id):
        if self.workers < 2:
            return self._prove_on_calling_thread(ppk, cs, pairs)
        pool = self._acquire_prove_pool(key_id, ppk, cs)
        outstanding: Deque = deque()
        proofs = []
        try:
            # The next pair is pulled (synthesized, budget-checked) while
            # the workers prove the earlier ones, and submitted once fewer
            # than ``workers`` tasks are outstanding.  Results are taken
            # in submission order, so seeded proofs stay deterministic.
            for assignment, seed in pairs:
                if len(outstanding) >= self.workers:
                    proofs.append(outstanding.popleft().result())
                try:
                    future = pool.submit(
                        workers.prove_task, (key_id, assignment, seed)
                    )
                except (OSError, ValueError) as exc:
                    # submit() starts workers on demand.  If one cannot be
                    # started -- the OS refuses, or a worker just died and
                    # the pool is closing the queues the new one was about
                    # to inherit -- this pool is as lost as a broken one.
                    raise BrokenProcessPool(str(exc)) from exc
                self._track(+1)
                future.add_done_callback(lambda _done: self._track(-1))
                outstanding.append(future)
            while outstanding:
                proofs.append(outstanding.popleft().result())
            return proofs
        except BrokenProcessPool as exc:
            self._drop_prove_pool(key_id, pool)
            raise ProveWorkerLost(
                f"a prove worker for circuit {key_id[:12]} was lost ({exc}); "
                "its pool was dropped and the next batch starts a fresh one"
            ) from exc
        finally:
            # Reached with tasks outstanding only on an error: do not let
            # them occupy workers the next batch is waiting for.
            for future in outstanding:
                future.cancel()
            self._release_prove_pool(key_id)

    def __repr__(self) -> str:
        return f"ProcessBackend(workers={self.workers})"


def _resolve_workers(workers_count: Optional[int]) -> int:
    """argument > ``$ZKROWNN_WORKERS`` > profile ``workers`` > usable CPUs."""
    from ..tuning.profile import profile_workers

    if workers_count is None:
        env_workers = os.environ.get("ZKROWNN_WORKERS")
        workers_count = int(env_workers) if env_workers else profile_workers()
    return workers_count or usable_cpus()


def get_backend(
    name: Optional[str] = None,
    workers_count: Optional[int] = None,
    *,
    default: str = "serial",
) -> ComputeBackend:
    """Build a backend by name, falling back to environment then profile.

    Uniform knob precedence (see :mod:`repro.tuning.profile`): explicit
    argument > environment variable > tuned machine profile > the
    caller's default.  ``name`` falls back ``$ZKROWNN_BACKEND`` -> profile
    ``compute_backend`` -> ``default``; ``workers_count`` falls back
    ``$ZKROWNN_WORKERS`` -> profile ``workers`` -> :func:`usable_cpus`;
    the process backend's ``min_msm_chunk`` falls back profile -> 1024.

    ``default`` stays ``"serial"`` for library callers: with nothing set,
    proving runs on the calling thread, which is what the e2e harness
    measures (it reads that thread's CPU clock and records this name).
    """
    from ..tuning.profile import (
        profile_compute_backend,
        profile_min_msm_chunk,
    )

    name = (
        name
        or os.environ.get("ZKROWNN_BACKEND")
        or profile_compute_backend()
        or default
    ).lower()
    if name == "serial":
        return SerialBackend()
    if name == "process":
        workers_count = _resolve_workers(workers_count)
        chunk = profile_min_msm_chunk()
        if chunk is not None:
            return ProcessBackend(workers_count, min_msm_chunk=chunk)
        return ProcessBackend(workers_count)
    raise ValueError(
        f"unknown backend {name!r}: expected 'serial' or 'process'"
    )


def machine_backend(
    name: Optional[str] = None, workers_count: Optional[int] = None
) -> ComputeBackend:
    """The proof service's backend: :func:`get_backend` with a default
    sized from the machine instead of ``"serial"``.

    The worker count is resolved first (argument > ``$ZKROWNN_WORKERS`` >
    profile > :func:`usable_cpus`).  With two or more, the fallback is a
    process backend of that size, so same-shape claims prove side by side
    and the service starts as many dispatch threads
    (:attr:`ComputeBackend.workers`); with one it is the serial backend
    and a single dispatch thread.  An explicit name, ``$ZKROWNN_BACKEND``
    and the profile still win, as everywhere.
    """
    workers_count = _resolve_workers(workers_count)
    return get_backend(
        name, workers_count,
        default="process" if workers_count >= 2 else "serial",
    )
