"""``zkrownn tune``: measure this host's knobs and persist the winners.

The tuner runs a bounded grid / hill-climb search over the knobs that
:mod:`repro.tuning.profile` persists -- Pippenger window widths, compute
backend + worker count, process-pool MSM chunking, and the scheduler's
``max_batch`` -- benchmarking each point on representative workloads (an
MSM sized like the catalog circuits' dominant kernel, and an engine
``prove_batch`` over a small chain circuit).  It then re-measures the
reference workload under the chosen profile so the before/after delta
ships with the profile.  The field backend is not a knob: it follows
from whether gmpy2 is importable, and all measurements run on whichever
one the process resolved.

Search logic is separated from measurement: :func:`grid_search` and
:func:`hill_climb` are pure given a ``measure`` callable, and every
stage's measurement function can be injected through the
:class:`Tuner` constructor -- the unit tests drive the search with
stubbed timers and never touch a real kernel.

Module-level imports here must stay stdlib-only: ``repro.tuning`` is
imported lazily from a low layer (``curves.msm``) and pulling kernels in
at import time would create a cycle.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .profile import (
    MAX_WINDOW_WIDTH,
    MachineProfile,
    machine_fingerprint,
    set_profile,
)

__all__ = ["Tuner", "TuningResult", "grid_search", "hill_climb"]

Measure = Callable[[Any], float]


def grid_search(
    candidates: Sequence[Any], measure: Measure
) -> Tuple[Any, List[Dict[str, Any]]]:
    """Measure every candidate; return ``(best, trials)``.

    Ties break toward the earlier candidate, so callers list their
    preferred default first.
    """
    if not candidates:
        raise ValueError("grid_search needs at least one candidate")
    trials: List[Dict[str, Any]] = []
    best, best_seconds = None, None
    for candidate in candidates:
        seconds = measure(candidate)
        trials.append({"candidate": candidate, "seconds": seconds})
        if best_seconds is None or seconds < best_seconds:
            best, best_seconds = candidate, seconds
    return best, trials


def hill_climb(
    start: int,
    measure: Callable[[int], float],
    *,
    lo: int,
    hi: int,
) -> Tuple[int, List[Dict[str, Any]]]:
    """Integer hill-climb from ``start`` within ``[lo, hi]``.

    Evaluates the start point and both neighbours, then walks in the
    improving direction until the curve turns.  Measurements are
    memoized, so a stubbed ``measure`` sees each point at most once.
    """
    if not lo <= start <= hi:
        raise ValueError(f"start {start} outside [{lo}, {hi}]")
    seen: Dict[int, float] = {}
    trials: List[Dict[str, Any]] = []

    def probe(point: int) -> float:
        if point not in seen:
            seen[point] = measure(point)
            trials.append({"candidate": point, "seconds": seen[point]})
        return seen[point]

    best = start
    probe(best)
    improved = True
    while improved:
        improved = False
        for neighbour in (best - 1, best + 1):
            if lo <= neighbour <= hi and probe(neighbour) < seen[best]:
                best, improved = neighbour, True
    return best, trials


@dataclass
class TuningResult:
    """Outcome of one :meth:`Tuner.run`: the profile plus its evidence."""

    profile: MachineProfile
    #: Per-stage raw trials (``{"stage": [{"candidate", "seconds"}, ...]}``).
    trials: Dict[str, Any] = field(default_factory=dict)
    #: Reference-workload seconds under static defaults.
    baseline_seconds: Optional[float] = None
    #: Reference-workload seconds under the tuned profile.
    tuned_seconds: Optional[float] = None

    @property
    def speedup(self) -> Optional[float]:
        if not self.baseline_seconds or not self.tuned_seconds:
            return None
        return self.baseline_seconds / self.tuned_seconds

    def summary(self) -> Dict[str, Any]:
        return {
            "profile": self.profile.to_dict(),
            "baseline_seconds": self.baseline_seconds,
            "tuned_seconds": self.tuned_seconds,
            "speedup": self.speedup,
        }


class Tuner:
    """Bounded knob search producing a :class:`MachineProfile`.

    ``quick`` shrinks every workload and candidate grid to something a CI
    smoke job finishes in well under a minute of kernel time; the full
    mode sizes workloads like the tiny-scale catalog circuits.  Any of
    the ``measure_*`` callables may be injected for deterministic tests.
    """

    WINDOW_LO = 4
    WINDOW_HI = MAX_WINDOW_WIDTH

    def __init__(
        self,
        *,
        quick: bool = False,
        repeats: Optional[int] = None,
        seed: int = 20230710,
        timer: Callable[[], float] = time.perf_counter,
        log: Optional[Callable[[str], None]] = None,
        measure_window: Optional[Callable[[int, int], float]] = None,
        measure_prove: Optional[Callable[[str, Optional[int]], float]] = None,
        measure_chunk: Optional[Callable[[int, int], float]] = None,
        measure_batch: Optional[Callable[[int], float]] = None,
        measure_reference: Optional[Callable[[], float]] = None,
    ):
        self.quick = quick
        self.repeats = repeats if repeats is not None else (1 if quick else 3)
        self.seed = seed
        self.timer = timer
        self._log = log or (lambda message: None)
        self._measure_window = measure_window or self._real_measure_window
        self._measure_prove = measure_prove or self._real_measure_prove
        self._measure_chunk = measure_chunk or self._real_measure_chunk
        self._measure_batch = measure_batch or self._real_measure_batch
        self._measure_reference = (
            measure_reference or self._real_measure_reference
        )
        # Workload sizes: quick keeps CI smoke bounded; full sizes match
        # the tiny-scale catalog circuits' dominant kernel shapes.
        if quick:
            self.msm_size = 256
            self.window_sizes = [256]
            self.prove_depth = 24
            self.prove_claims = 2
            self.worker_candidates = [w for w in (1, 2) if w <= _cpus()]
            self.chunk_candidates = [512]
            self.batch_candidates = [2, 4]
        else:
            self.msm_size = 2048
            self.window_sizes = [512, 4096]
            self.prove_depth = 96
            self.prove_claims = 4
            self.worker_candidates = sorted(
                {w for w in (1, 2, 4, _cpus()) if w <= _cpus()}
            )
            self.chunk_candidates = [256, 1024, 4096]
            self.batch_candidates = [2, 4, 8, 16]
        self._workloads: Dict[str, Any] = {}

    # ------------------------------------------------------------- search --

    def run(self) -> TuningResult:
        """Execute every stage; returns the profile and its evidence.

        The process-wide profile pin is restored on exit, so running the
        tuner never changes ambient behaviour -- the caller decides whether
        to :meth:`MachineProfile.save` the result.
        """
        trials: Dict[str, Any] = {}
        # Pin an empty profile so an ambient ~/.zkrownn/profile.json can't
        # skew the measurements we are about to take.
        previous_profile = set_profile(MachineProfile())
        try:
            baseline = self._time_reference()
            trials["reference_baseline"] = baseline

            windows, window_trials = self._tune_windows()
            trials["pippenger_windows"] = window_trials

            (
                compute_backend,
                workers,
                min_msm_chunk,
                parallel_trials,
            ) = self._tune_parallel()
            trials["parallel"] = parallel_trials

            max_batch, batch_trials = self._tune_max_batch()
            trials["max_batch"] = batch_trials

            profile = MachineProfile(
                compute_backend=compute_backend,
                workers=workers,
                max_batch=max_batch,
                min_msm_chunk=min_msm_chunk,
                pippenger_windows=windows,
                machine=machine_fingerprint(),
                created_at=datetime.now(timezone.utc).isoformat(),
            )
            set_profile(profile)
            tuned = self._time_reference()
            trials["reference_tuned"] = tuned
            profile.measurements = {
                "quick": self.quick,
                "repeats": self.repeats,
                "reference_baseline_seconds": baseline,
                "reference_tuned_seconds": tuned,
                "trials": _jsonable(trials),
            }
            return TuningResult(
                profile=profile,
                trials=trials,
                baseline_seconds=baseline,
                tuned_seconds=tuned,
            )
        finally:
            set_profile(previous_profile)

    def _tune_windows(
        self,
    ) -> Tuple[Dict[str, List[List[int]]], Dict[str, Any]]:
        from ..curves.msm import pippenger_window_size

        rows: List[List[int]] = []
        all_trials: Dict[str, Any] = {}
        for n in self.window_sizes:
            # msm_g1 GLV-splits each scalar, so the window lookup inside
            # sees ~2n pairs; key the profile row by that split count.
            pairs = 2 * n
            start = min(
                max(pippenger_window_size(pairs), self.WINDOW_LO),
                self.WINDOW_HI,
            )
            best, trials = hill_climb(
                start,
                lambda c, n=n: self._measure_window(n, c),
                lo=self.WINDOW_LO,
                hi=self.WINDOW_HI,
            )
            self._log(f"tune: window @ {n} points -> c={best}")
            rows.append([pairs, best])
            all_trials[str(n)] = trials
        rows.sort(key=lambda row: row[0])
        return {"signed": rows}, all_trials

    def _tune_parallel(
        self,
    ) -> Tuple[str, Optional[int], Optional[int], Dict[str, Any]]:
        parallel_trials: Dict[str, Any] = {}
        candidates: List[Tuple[str, Optional[int]]] = [("serial", None)]
        candidates += [("process", w) for w in self.worker_candidates]
        best, trials = grid_search(
            candidates, lambda cand: self._measure_prove(cand[0], cand[1])
        )
        parallel_trials["prove"] = trials
        compute_backend, workers = best
        self._log(
            f"tune: compute backend -> {compute_backend}"
            + (f" x{workers}" if workers else "")
        )
        min_msm_chunk: Optional[int] = None
        if compute_backend == "process":
            chunk, chunk_trials = grid_search(
                self.chunk_candidates,
                lambda c: self._measure_chunk(workers, c),
            )
            parallel_trials["min_msm_chunk"] = chunk_trials
            min_msm_chunk = chunk
            self._log(f"tune: min_msm_chunk -> {chunk}")
        return compute_backend, workers, min_msm_chunk, parallel_trials

    def _tune_max_batch(self) -> Tuple[int, List[Dict[str, Any]]]:
        # Score batch sizes by *per-claim* seconds: bigger batches win only
        # while amortization still pays.
        def per_claim(b: int) -> float:
            return self._measure_batch(b) / b

        best, trials = grid_search(self.batch_candidates, per_claim)
        self._log(f"tune: max_batch -> {best}")
        return best, trials

    # ------------------------------------------------------- measurement --

    def _time(self, fn: Callable[[], Any]) -> float:
        best: Optional[float] = None
        for _ in range(max(1, self.repeats)):
            t0 = self.timer()
            fn()
            elapsed = self.timer() - t0
            if best is None or elapsed < best:
                best = elapsed
        return best or 0.0

    def _msm_inputs(self, n: int):
        cached = self._workloads.get(("msm", n))
        if cached is None:
            import random

            from ..curves.bn254 import R
            from ..curves.g1 import G1Point

            rng = random.Random(self.seed)
            G = G1Point.generator()
            acc, points = G, []
            for _ in range(n):
                points.append((acc.x, acc.y))
                acc = acc + G
            scalars = [rng.randrange(1, R) for _ in range(n)]
            cached = (points, scalars)
            self._workloads[("msm", n)] = cached
        return cached

    def _real_measure_window(self, n: int, c: int) -> float:
        from ..curves.msm import msm_g1

        points, scalars = self._msm_inputs(n)
        # Route the forced width through the production lookup itself:
        # a one-row profile table covering every size.
        forced = MachineProfile(pippenger_windows={"signed": [[0, c]]})
        previous = set_profile(forced)
        try:
            return self._time(lambda: msm_g1(points, scalars))
        finally:
            set_profile(previous)

    def _prove_workload(self):
        cached = self._workloads.get("prove")
        if cached is None:
            from ..engine.engine import ProvingEngine
            from ..parallel.backend import SerialBackend

            depth = self.prove_depth

            def synthesize(b):
                out = b.public_output("y")
                w = b.private_input("x", 3)
                acc = w
                for _ in range(depth):
                    acc = b.mul(acc, w)
                b.bind_output(out, acc + 1)

            engine = ProvingEngine(backend=SerialBackend())
            compiled, synthesis = engine.synthesize("tune-chain", synthesize)
            keypair = engine.setup(compiled, seed=7)
            cached = (compiled, synthesis, keypair)
            self._workloads["prove"] = cached
        return cached

    def _real_measure_prove(self, backend: str, workers: Optional[int]) -> float:
        from ..engine.engine import ProvingEngine
        from ..parallel.backend import ProcessBackend, SerialBackend

        compiled, synthesis, keypair = self._prove_workload()
        compute = (
            ProcessBackend(workers) if backend == "process" else SerialBackend()
        )
        engine = ProvingEngine(backend=compute)
        engine._keypairs[compiled.digest] = keypair
        claims = [synthesis] * self.prove_claims
        seeds = list(range(1, self.prove_claims + 1))
        try:
            # Warm-up transfers key material into pool workers off-clock.
            engine.prove_batch(compiled, claims, seeds=seeds, setup_seed=7)
            return self._time(
                lambda: engine.prove_batch(
                    compiled, claims, seeds=seeds, setup_seed=7
                )
            )
        finally:
            compute.close()

    def _real_measure_chunk(self, workers: Optional[int], chunk: int) -> float:
        from ..parallel.backend import ProcessBackend

        points, scalars = self._msm_inputs(self.msm_size)
        backend = ProcessBackend(workers, min_msm_chunk=chunk)
        try:
            backend.msm_g1(points, scalars)  # warm the pool
            return self._time(lambda: backend.msm_g1(points, scalars))
        finally:
            backend.close()

    def _real_measure_batch(self, batch: int) -> float:
        from ..engine.engine import ProvingEngine
        from ..parallel.backend import SerialBackend

        compiled, synthesis, keypair = self._prove_workload()
        engine = ProvingEngine(backend=SerialBackend())
        engine._keypairs[compiled.digest] = keypair
        claims = [synthesis] * batch
        seeds = list(range(1, batch + 1))
        return self._time(
            lambda: engine.prove_batch(
                compiled, claims, seeds=seeds, setup_seed=7
            )
        )

    def _time_reference(self) -> float:
        return self._measure_reference()

    def _real_measure_reference(self) -> float:
        """One pass of the reference workload under the ambient knobs.

        Uses whatever windows / batching the currently
        active profile (or defaults) selects -- this is what the
        before/after delta in the persisted profile compares.
        """
        from ..curves.msm import msm_g1

        points, scalars = self._msm_inputs(self.msm_size)
        compiled, synthesis, keypair = self._prove_workload()

        def workload():
            from ..engine.engine import ProvingEngine
            from ..parallel.backend import SerialBackend

            msm_g1(points, scalars)
            engine = ProvingEngine(backend=SerialBackend())
            engine._keypairs[compiled.digest] = keypair
            engine.prove_batch(
                compiled, [synthesis] * 2, seeds=[1, 2], setup_seed=7
            )

        workload()
        return self._time(workload)


def _cpus() -> int:
    return os.cpu_count() or 1


def _jsonable(value):
    """Trials hold tuples (candidate pairs); make them JSON-round-trippable."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
