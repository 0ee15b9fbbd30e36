"""Executor abstraction over the prover's parallelizable kernels.

Two implementations:

* :class:`SerialBackend` -- direct calls on the caller's thread; the
  default, and the reference the process backend must match bit-for-bit.
* :class:`ProcessBackend` -- ``multiprocessing`` pool using the ``fork``
  start method where available (cheap, copy-on-write key material) and
  falling back to ``spawn`` elsewhere; MSMs are split into per-worker
  chunks whose Jacobian partial sums are reduced in the parent, and
  multi-claim proving runs on *persistent* pools keyed by circuit digest:
  the prepared key crosses into each worker once (pool initializer, pinned
  in a worker-side keyed cache) and every later batch for the same digest
  reuses the warm pool instead of re-forking.

Streaming: :meth:`ComputeBackend.prove_stream` consumes an *iterator* of
``(assignment, seed)`` pairs.  The process backend feeds it through
``Pool.imap``, whose feeder thread pulls the iterator while workers prove
-- so witness synthesis in the parent pipelines with proof dispatch, the
shape a proving service wants.

Proofs and MSM results are *identical* across backends: chunking only
changes the Jacobian representative, which normalization collapses, and
per-claim randomness comes from per-claim seeds, not worker state.

Selection: pass a backend to :class:`~repro.engine.engine.ProvingEngine`,
or set ``ZKROWNN_BACKEND=process`` (and optionally ``ZKROWNN_WORKERS=N``)
and call :func:`get_backend`.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..curves.g1 import G1_INFINITY_JAC, JacobianPoint, jac_add
from ..curves.msm import msm_g1, msm_g1_multi, msm_g2
from ..curves.pairing import G2Precomputed, fp12_from_ints, multi_miller_loop
from . import workers

__all__ = ["ComputeBackend", "SerialBackend", "ProcessBackend", "get_backend"]

ProvePair = Tuple[Sequence[int], Optional[int]]


class ComputeBackend:
    """Interface for the prover's parallelizable operations."""

    name: str = "abstract"

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
        self,
        ppk,
        cs,
        pairs: Iterable[ProvePair],
        *,
        key_id: Optional[str] = None,
    ) -> List:
        """Prove a stream of ``(assignment, seed)`` pairs, preserving order.

        ``pairs`` may be a lazy generator: backends pull it as capacity
        frees up, pipelining upstream witness synthesis with proving.
        ``key_id`` (the circuit digest) keys worker-side prepared-key
        caching; ``None`` disables persistence.
        """
        raise NotImplementedError

    def prove_batch(
        self,
        ppk,
        cs,
        assignments: Sequence[Sequence[int]],
        seeds: Sequence[Optional[int]],
        *,
        key_id: Optional[str] = None,
    ) -> List:
        """Prove a materialized batch (sequence form of :meth:`prove_stream`)."""
        return self.prove_stream(
            ppk, cs, zip(assignments, seeds), key_id=key_id
        )

    def close(self) -> None:
        """Release pooled resources (no-op for serial)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ComputeBackend):
    """Everything on the caller's thread -- the default."""

    name = "serial"

    def msm_g1(self, points, scalars):
        return msm_g1(points, scalars)

    def msm_g1_multi(self, points_lists, scalars):
        return msm_g1_multi(points_lists, scalars)

    def msm_g2(self, points, scalars):
        return msm_g2(points, scalars)

    def prove_stream(self, ppk, cs, pairs, *, key_id=None):
        from ..snark.groth16 import prove_prepared

        # Pulling the iterator lazily keeps synthesis and proving
        # interleaved even without real parallelism: claim i+1 is not
        # synthesized until claim i has proved (bounded memory).
        return [
            prove_prepared(ppk, cs, assignment, seed=seed)
            for assignment, seed in pairs
        ]


class ProcessBackend(ComputeBackend):
    """Fan work out to ``multiprocessing`` pools.

    ``min_msm_chunk`` guards against paying pickling latency on MSMs too
    small to win from parallelism; below ``2 * min_msm_chunk`` pairs the
    call runs serially.  ``max_prove_pools`` bounds how many per-digest
    prove pools stay warm at once (each pins one prepared key per worker);
    the least recently used pool is torn down beyond that.
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
        self.workers = workers_count or os.cpu_count() or 2
        self.min_msm_chunk = min_msm_chunk
        self.min_miller_pairs = min_miller_pairs
        self.max_prove_pools = max_prove_pools
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._ctx = multiprocessing.get_context("spawn")
        self._pool = None
        # Guarded by _pools_lock: scheduler threads sharing one backend
        # must not race pool creation, and eviction must never terminate
        # a pool with an in-flight batch (_prove_busy counts users).
        self._pools_lock = threading.Lock()
        self._prove_pools: "OrderedDict[str, object]" = OrderedDict()
        self._prove_busy: Dict[str, int] = {}

    # -- pool management ------------------------------------------------------

    def _msm_pool(self):
        if self._pool is None:
            # The initializer re-resolves the *field* backend inside each
            # worker (gmpy2 state never crosses fork; see field.backend).
            self._pool = self._ctx.Pool(
                self.workers, initializer=workers.init_msm_worker
            )
        return self._pool

    def _acquire_prove_pool(self, key_id: str, ppk, cs):
        """The persistent pool for one circuit digest, created on first use.

        The initializer ships (key id, prepared key, constraint system)
        into every worker exactly once; all later batches for this digest
        reuse the warm workers and ship only assignments.  The returned
        pool is pinned against eviction until :meth:`_release_prove_pool`;
        only *idle* LRU pools are torn down, so the cache can transiently
        exceed ``max_prove_pools`` while several shapes prove at once.
        """
        evict: List[object] = []
        with self._pools_lock:
            pool = self._prove_pools.get(key_id)
            if pool is None:
                for old_key in list(self._prove_pools):
                    if len(self._prove_pools) < self.max_prove_pools:
                        break
                    if self._prove_busy.get(old_key, 0) == 0:
                        evict.append(self._prove_pools.pop(old_key))
                        self._prove_busy.pop(old_key, None)
                pool = self._ctx.Pool(
                    self.workers,
                    initializer=workers.init_prove_worker,
                    initargs=(key_id, ppk, cs),
                )
                self._prove_pools[key_id] = pool
            else:
                self._prove_pools.move_to_end(key_id)
            self._prove_busy[key_id] = self._prove_busy.get(key_id, 0) + 1
        for old_pool in evict:
            old_pool.terminate()
            old_pool.join()
        return pool

    def _release_prove_pool(self, key_id: str) -> None:
        with self._pools_lock:
            count = self._prove_busy.get(key_id, 1) - 1
            if count > 0:
                self._prove_busy[key_id] = count
            else:
                self._prove_busy.pop(key_id, None)

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
            pool.terminate()
            pool.join()

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

    def prove_stream(self, ppk, cs, pairs, *, key_id=None):
        pairs_iter: Iterator[ProvePair] = iter(pairs)
        if self.workers < 2:
            return SerialBackend().prove_stream(ppk, cs, pairs_iter)
        if key_id is None:
            # No stable identity to cache under -- fall back to a dedicated
            # per-call pool (the pre-service behavior).  Tiny batches skip
            # the fork cost entirely.
            head = list(itertools.islice(pairs_iter, 2))
            if len(head) < 2:
                return SerialBackend().prove_stream(ppk, cs, head)
            anon = "anon"
            pool = self._ctx.Pool(
                self.workers,
                initializer=workers.init_prove_worker,
                initargs=(anon, ppk, cs),
            )
            try:
                return pool.map(
                    workers.prove_task,
                    [
                        (anon, assignment, seed)
                        for assignment, seed in itertools.chain(head, pairs_iter)
                    ],
                )
            finally:
                pool.terminate()
                pool.join()
        pool = self._acquire_prove_pool(key_id, ppk, cs)
        try:
            # imap's feeder thread pulls the (possibly lazy) pair iterator
            # while workers prove earlier claims: synthesis pipelines with
            # proving.  Order is preserved, so seeded proofs stay
            # deterministic.
            return list(
                pool.imap(
                    workers.prove_task,
                    ((key_id, assignment, seed) for assignment, seed in pairs_iter),
                )
            )
        finally:
            self._release_prove_pool(key_id)

    def __repr__(self) -> str:
        return f"ProcessBackend(workers={self.workers})"


def get_backend(
    name: Optional[str] = None, workers_count: Optional[int] = None
) -> ComputeBackend:
    """Build a backend by name, falling back to environment then profile.

    Uniform knob precedence (see :mod:`repro.tuning.profile`): explicit
    argument > environment variable > tuned machine profile > static
    default.  ``name`` falls back ``$ZKROWNN_BACKEND`` -> profile
    ``compute_backend`` -> ``"serial"``; ``workers_count`` falls back
    ``$ZKROWNN_WORKERS`` -> profile ``workers`` -> CPU count; the
    process backend's ``min_msm_chunk`` falls back profile -> 1024.
    """
    from ..tuning.profile import (
        profile_compute_backend,
        profile_min_msm_chunk,
        profile_workers,
    )

    name = (
        name
        or os.environ.get("ZKROWNN_BACKEND")
        or profile_compute_backend()
        or "serial"
    ).lower()
    if workers_count is None:
        env_workers = os.environ.get("ZKROWNN_WORKERS")
        workers_count = (
            int(env_workers) if env_workers else profile_workers()
        )
    if name == "serial":
        return SerialBackend()
    if name == "process":
        chunk = profile_min_msm_chunk()
        if chunk is not None:
            return ProcessBackend(workers_count, min_msm_chunk=chunk)
        return ProcessBackend(workers_count)
    raise ValueError(
        f"unknown backend {name!r}: expected 'serial' or 'process'"
    )
