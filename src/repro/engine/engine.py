"""The staged proving pipeline behind one facade.

ZKROWNN's amortization argument (Section IV) is that the expensive stages
of Groth16 -- circuit compilation and the trusted setup -- are paid once
per circuit *shape*, while each additional ownership claim pays only
witness synthesis and proving.  :class:`ProvingEngine` is that lifecycle
as an object:

    compile    -- full build, once per shape (records structure + trace)
    setup      -- Groth16 ceremony, once per structure digest
    synthesize -- witness-only trace replay, per proof
    prove      -- Groth16 prove against a cached prepared key, per proof
    verify     -- pairing check against a cached prepared key

Everything cacheable is cached and keyed by structure digest: compiled
circuits (under a caller-chosen shape key), Groth16 keypairs, prepared
proving keys (MSM bases flattened to affine), and prepared verification
keys (fixed-G2 Miller-loop precomputation).  An optional
:class:`~repro.engine.cache.ArtifactStore` persists keypairs across
processes.  :class:`EngineStats` counts hits and misses so callers (and
tests) can assert which stages actually ran.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Union

from ..analysis import (
    AuditReport,
    CircuitAuditError,
    audit_compiled,
    audit_constraint_system,
)
from ..circuit.builder import CircuitBuilder
from ..circuit.trace import TraceDivergence
from ..field.backend import active_field_backend
from ..obs import metrics as _obs_metrics
from ..parallel import ComputeBackend, get_backend
from ..snark.groth16 import (
    Groth16Keypair,
    PreparedProvingKey,
    PreparedVerifyingKey,
    prepare_proving_key,
    prepare_verifying_key,
    prove_prepared,
    setup as groth16_setup,
    verify_batch_prepared,
    verify_prepared,
)
from ..snark.keys import Proof
from .cache import ArtifactStore
from .compiled import CompiledCircuit, SynthesisResult, compile_circuit, resynthesize

__all__ = ["EngineStats", "ProofJob", "ProveBudgetExceeded", "ProvingEngine"]

SynthesisFn = Callable[[CircuitBuilder], Any]


def _observe_stage(stage: str, seconds: float) -> None:
    """Feed one engine stage duration into the process metrics registry.

    Resolved through :func:`get_metrics` on every call (not cached on the
    engine) so a forked worker lands in its own registry; a dict lookup
    per *stage* -- not per kernel -- is noise next to the stage itself.
    """
    if not _obs_metrics.obs_enabled():
        return
    _obs_metrics.get_metrics().histogram(
        "zkrownn_engine_stage_seconds",
        "proving-engine pipeline stage latency",
    ).observe(seconds, stage=stage)


class ProveBudgetExceeded(RuntimeError):
    """A streaming prove ran past its wall-clock budget.

    Raised between stream pulls (never mid-proof), so proofs already
    produced are lost but no worker is left wedged holding key material.
    The scheduler treats it as non-retryable and quarantines the claims.
    """


@dataclass
class EngineStats:
    """Hit/miss counters for every cached stage of the pipeline."""

    compile_misses: int = 0
    compile_hits: int = 0
    witness_resyntheses: int = 0
    trace_divergences: int = 0
    audits: int = 0
    audit_findings: int = 0
    audit_rejections: int = 0
    setup_misses: int = 0
    setup_hits: int = 0
    setup_disk_hits: int = 0
    proofs: int = 0
    proof_batches: int = 0
    budget_exceeded: int = 0
    verifications: int = 0
    batch_verifications: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"EngineStats({parts})"


@dataclass(frozen=True)
class ProofJob:
    """Everything produced by one trip through the pipeline."""

    compiled: CompiledCircuit
    keypair: Groth16Keypair
    synthesis: SynthesisResult
    proof: Proof
    timings: Dict[str, float]
    reused_circuit: bool
    reused_keypair: bool

    @property
    def public_values(self) -> list:
        return self.synthesis.public_values

    @property
    def aux(self) -> Any:
        return self.synthesis.aux


class ProvingEngine:
    """Facade over compile / setup / synthesize / prove / verify with caching.

    ``cache_dir`` enables on-disk keypair persistence; everything else is
    in-memory.  Thread-safe for concurrent use of the caches (a proving
    service fronting many claims).

    ``backend`` chooses where the prover's parallelizable kernels run: by
    default the environment is consulted (``ZKROWNN_BACKEND`` /
    ``ZKROWNN_WORKERS``), then the tuned machine profile written by
    ``zkrownn tune`` (:mod:`repro.tuning.profile`), falling back to the
    serial backend; pass a :class:`~repro.parallel.backend.ComputeBackend`
    to pin it.  Proofs are byte-identical across backends given equal
    seeds.
    """

    def __init__(
        self,
        *,
        cache_dir: Optional[str] = None,
        backend: Optional[ComputeBackend] = None,
        prove_budget_seconds: Optional[float] = None,
        audit: Optional[str] = None,
    ):
        self.prove_budget_seconds = prove_budget_seconds
        if audit is None:
            audit = os.environ.get("ZKROWNN_CIRCUIT_AUDIT", "off")
        if audit not in ("off", "warn", "strict"):
            raise ValueError(
                f"audit mode must be 'off', 'warn', or 'strict', not {audit!r}"
            )
        self.audit_mode = audit
        self._audit_reports: Dict[str, AuditReport] = {}
        self._compiled: Dict[str, CompiledCircuit] = {}
        self._keypairs: Dict[str, Groth16Keypair] = {}
        self._setup_flights: Dict[str, threading.Lock] = {}
        self._prepared_pk: Dict[str, PreparedProvingKey] = {}
        self._prepared_vk: Dict[str, PreparedVerifyingKey] = {}
        self._store = ArtifactStore(cache_dir) if cache_dir else None
        self._lock = threading.RLock()
        self.backend = backend if backend is not None else get_backend()
        self.stats = EngineStats()

    def stats_snapshot(self) -> Dict[str, int]:
        """One locked, mutually-consistent copy of the stage counters.

        Counter increments happen under the engine lock, so a snapshot
        taken under the same lock never shows (say) ``proofs`` from one
        batch with ``proof_batches`` from the previous one -- the
        guarantee ``/stats`` advertises.
        """
        with self._lock:
            return self.stats.as_dict()

    @property
    def artifact_store(self) -> Optional[ArtifactStore]:
        """The on-disk setup cache, when ``cache_dir`` was given.

        The proof service unifies this with the registry's VK store so a
        restarted service re-proves known shapes with zero fresh setups.
        """
        return self._store

    # ------------------------------------------------------ compile + witness --

    def compiled_for(self, key: str) -> Optional[CompiledCircuit]:
        with self._lock:
            return self._compiled.get(key)

    def synthesize(
        self, key: str, synthesize: SynthesisFn, *, name: Optional[str] = None
    ) -> tuple:
        """Compile on first sight of ``key``; replay the trace afterwards.

        Returns ``(compiled, result)``.  A :class:`TraceDivergence` during
        replay (value-dependent structure) falls back to a full rebuild and
        replaces the cached circuit -- the new digest then misses the
        keypair cache, which is exactly right: the old keys are unusable.
        """
        t0 = time.perf_counter()
        with self._lock:
            compiled = self._compiled.get(key)
        if compiled is not None:
            try:
                result = resynthesize(compiled, synthesize)
            except TraceDivergence:
                with self._lock:
                    self.stats.trace_divergences += 1
            else:
                with self._lock:
                    self.stats.compile_hits += 1
                    self.stats.witness_resyntheses += 1
                self._check_audit(compiled)
                _observe_stage("synthesize", time.perf_counter() - t0)
                return compiled, result
        compiled, result = compile_circuit(synthesize, name or key)
        with self._lock:
            self.stats.compile_misses += 1
            self._compiled[key] = compiled
        self._check_audit(compiled)
        _observe_stage("compile", time.perf_counter() - t0)
        return compiled, result

    # ----------------------------------------------------------------- audit --

    def audit_report_for(self, digest: str) -> Optional[AuditReport]:
        """The cached audit report for a structure digest, if one exists.

        Checks memory, then the artifact store; runs no audit itself.
        """
        with self._lock:
            report = self._audit_reports.get(digest)
        if report is None and self._store is not None:
            report = self._store.load_audit_report(digest)
            if report is not None:
                with self._lock:
                    self._audit_reports[digest] = report
        return report

    def audit_circuit(
        self, compiled: CompiledCircuit, *, deep: bool = True
    ) -> AuditReport:
        """Audit a compiled circuit, caching the report by digest.

        A cached deep report satisfies any request; a cached fast-tier
        report only satisfies ``deep=False`` and is re-run (and the
        cache upgraded) on the first deep request.
        """
        report = self.audit_report_for(compiled.digest)
        if report is not None and (report.deep or not deep):
            return report
        report = audit_compiled(compiled, deep=deep)
        with self._lock:
            self.stats.audits += 1
            self.stats.audit_findings += len(report.findings)
            self._audit_reports[compiled.digest] = report
        if self._store is not None:
            self._store.save_audit_report(compiled.digest, report)
        if _obs_metrics.obs_enabled():
            counter = _obs_metrics.get_metrics().counter(
                "zkrownn_circuit_findings_total",
                "circuit-audit findings by severity",
            )
            for severity, count in report.counts().items():
                if count:
                    counter.inc(count, severity=severity)
        return report

    def audit_stored_circuit(self, digest: str) -> Optional[AuditReport]:
        """Deep-audit a circuit known only by its structure digest.

        Returns the cached deep report when one exists; otherwise
        recovers the serialized constraint system from the artifact
        store, audits it, and caches the result.  Falls back to a cached
        fast-tier report when the circuit itself is no longer stored;
        ``None`` when nothing exists for the digest.
        """
        report = self.audit_report_for(digest)
        if report is not None and report.deep:
            return report
        if self._store is None:
            return report
        cs = self._store.load_constraint_system(digest)
        if cs is None:
            # No stored circuit to deep-audit; the fast report (or
            # nothing) is the best available.
            return report
        report = audit_constraint_system(
            cs, name=f"r1cs:{digest[:12]}", digest=digest
        )
        with self._lock:
            self.stats.audits += 1
            self.stats.audit_findings += len(report.findings)
            self._audit_reports[digest] = report
        self._store.save_audit_report(digest, report)
        return report

    def _check_audit(self, compiled: CompiledCircuit) -> None:
        """Enforce the engine's audit mode against one compiled circuit.

        ``warn`` runs the fast structural tier inline (cheap enough for
        the cold compile path), logs findings, and continues; ``strict``
        runs the full deep analysis and raises
        :class:`~repro.analysis.CircuitAuditError` (a ``ValueError``, so
        the service scheduler fails the claim) when any finding reaches
        ``critical``.  Reports are cached by digest, so the repeat-proof
        path costs a dictionary lookup.
        """
        if self.audit_mode == "off":
            return
        report = self.audit_circuit(
            compiled, deep=self.audit_mode == "strict"
        )
        if not report.findings:
            return
        from ..obs.logging import get_logger

        get_logger("engine").warning(
            "circuit_audit_findings",
            circuit=compiled.name,
            digest=compiled.digest[:12],
            counts={k: v for k, v in report.counts().items() if v},
            worst=report.worst(),
        )
        if self.audit_mode == "strict" and report.at_least("critical"):
            with self._lock:
                self.stats.audit_rejections += 1
            raise CircuitAuditError(report)

    # ----------------------------------------------------------------- setup --

    def setup(
        self, compiled: CompiledCircuit, *, seed: Optional[int] = None
    ) -> Groth16Keypair:
        """Groth16 setup, once per structure digest (memory, then disk).

        Single-flight: threads meeting the same new digest queue on that
        digest's own lock, so exactly one runs the multi-second setup and
        the rest leave with its keypair as cache hits -- a proof is never
        served beside a different setup's verifying key.  The engine lock
        is never held across the setup, and other digests do not wait.
        """
        digest = compiled.digest
        with self._lock:
            flight = self._setup_flights.setdefault(digest, threading.Lock())
        with flight:
            with self._lock:
                keypair = self._keypairs.get(digest)
                if keypair is not None:
                    self.stats.setup_hits += 1
                    return keypair
            if self._store is not None:
                keypair = self._store.load_keypair(digest)
                if keypair is not None:
                    with self._lock:
                        self.stats.setup_disk_hits += 1
                        self._keypairs[digest] = keypair
                    return keypair
            t0 = time.perf_counter()
            keypair = groth16_setup(compiled.cs, seed=seed)
            _observe_stage("setup", time.perf_counter() - t0)
            with self._lock:
                self.stats.setup_misses += 1
                self._keypairs[digest] = keypair
            if self._store is not None:
                self._store.save_keypair(digest, keypair)
                self._store.save_constraint_system(digest, compiled.cs)
            return keypair

    # ----------------------------------------------------------------- prove --

    def _prepared_proving_key(
        self, compiled: CompiledCircuit, keypair: Groth16Keypair
    ) -> PreparedProvingKey:
        digest = compiled.digest
        with self._lock:
            prepared = self._prepared_pk.get(digest)
        if (
            prepared is None
            or prepared.pk is not keypair.proving_key
            # Prepared bases hold field-backend-native residues; a backend
            # switch (tests, ZKROWNN_FIELD_BACKEND changes) re-wraps them.
            or prepared.field_backend != active_field_backend()
        ):
            prepared = prepare_proving_key(keypair.proving_key)
            with self._lock:
                self._prepared_pk[digest] = prepared
        return prepared

    def prove(
        self,
        compiled: CompiledCircuit,
        synthesis: Union[SynthesisResult, Sequence[int]],
        *,
        seed: Optional[int] = None,
        setup_seed: Optional[int] = None,
    ) -> Proof:
        """Prove a witness against the cached keypair for this circuit."""
        keypair = self.setup(compiled, seed=setup_seed)
        prepared = self._prepared_proving_key(compiled, keypair)
        assignment = (
            synthesis.assignment
            if isinstance(synthesis, SynthesisResult)
            else synthesis
        )
        proof = prove_prepared(
            prepared, compiled.cs, assignment, seed=seed, backend=self.backend
        )
        with self._lock:
            self.stats.proofs += 1
        return proof

    def prove_batch(
        self,
        compiled: CompiledCircuit,
        syntheses: Union[
            Sequence[Union[SynthesisResult, Sequence[int]]],
            Iterable[Union[SynthesisResult, Sequence[int]]],
        ],
        *,
        seeds: Optional[Iterable[Optional[int]]] = None,
        setup_seed: Optional[int] = None,
    ) -> list:
        """Prove many claims for one circuit through the compute backend.

        All claims share the cached keypair and prepared key; with a
        process backend the key material crosses into each worker once
        (and stays pinned there across batches, keyed by circuit digest)
        and the claims prove concurrently.  ``seeds`` (one per claim) make
        the proofs deterministic -- and therefore identical across
        backends; ``None`` entries use fresh entropy.

        ``syntheses`` may be a lazy generator (of
        :class:`~repro.engine.compiled.SynthesisResult`\\ s or raw
        assignments): witness synthesis then pipelines with proving
        dispatch instead of materializing every assignment up front --
        the streaming path a proving service wants.  With a sequence,
        ``seeds`` must match its length; with a generator, ``seeds`` is
        zipped lazily and must not run short.
        """
        if isinstance(syntheses, Sequence):
            if seeds is None:
                seeds = [None] * len(syntheses)
            else:
                seeds = list(seeds)
                if len(seeds) != len(syntheses):
                    raise ValueError("need exactly one seed (or None) per claim")
        elif seeds is None:
            seeds = itertools.repeat(None)

        def pairs():
            seed_iter = iter(seeds)
            for s in syntheses:
                try:
                    seed = next(seed_iter)
                except StopIteration:
                    # zip() would silently drop the remaining claims here.
                    raise ValueError(
                        "seed iterable ran short of the claim count"
                    ) from None
                yield (
                    s.assignment if isinstance(s, SynthesisResult) else s,
                    seed,
                )

        return self.prove_stream(compiled, pairs(), setup_seed=setup_seed)

    def prove_stream(
        self,
        compiled: CompiledCircuit,
        pairs: Iterable[tuple],
        *,
        setup_seed: Optional[int] = None,
        budget_seconds: Optional[float] = None,
    ) -> list:
        """Prove a lazy stream of ``(synthesis_or_assignment, seed)`` pairs.

        The backend pulls the iterator as proving capacity frees up, so a
        generator that synthesizes witnesses on demand overlaps synthesis
        (caller side) with proving (worker side).  Order is preserved.

        ``budget_seconds`` (default: the engine's ``prove_budget_seconds``)
        bounds the wall clock of the whole stream: the elapsed time is
        checked cooperatively between stream pulls and
        :class:`ProveBudgetExceeded` is raised when the budget is spent --
        a hung or pathologically slow batch fails loudly instead of
        pinning a scheduler worker forever.
        """
        if budget_seconds is None:
            budget_seconds = self.prove_budget_seconds
        keypair = self.setup(compiled, seed=setup_seed)
        prepared = self._prepared_proving_key(compiled, keypair)
        started = time.monotonic()

        def assignment_pairs():
            for s, seed in pairs:
                if (
                    budget_seconds is not None
                    and time.monotonic() - started > budget_seconds
                ):
                    with self._lock:
                        self.stats.budget_exceeded += 1
                    raise ProveBudgetExceeded(
                        f"prove stream for {compiled.name!r} exceeded its "
                        f"{budget_seconds:.3f}s wall-clock budget"
                    )
                yield (
                    s.assignment if isinstance(s, SynthesisResult) else s,
                    seed,
                )

        proofs = self.backend.prove_stream(
            prepared, compiled.cs, assignment_pairs(), key_id=compiled.digest
        )
        _observe_stage("prove_stream", time.monotonic() - started)
        with self._lock:
            self.stats.proofs += len(proofs)
            self.stats.proof_batches += 1
        return proofs

    # ---------------------------------------------------------------- verify --

    def _prepared_verifying_key(
        self, compiled: CompiledCircuit
    ) -> PreparedVerifyingKey:
        """The cached prepared VK for a circuit with a known keypair.

        Requires a keypair for this circuit (from :meth:`setup` or the
        disk store) -- minting a fresh one here would silently reject
        every valid proof.
        """
        digest = compiled.digest
        with self._lock:
            keypair = self._keypairs.get(digest)
        if keypair is None and self._store is not None:
            keypair = self._store.load_keypair(digest)
            if keypair is not None:
                with self._lock:
                    self.stats.setup_disk_hits += 1
                    self._keypairs[digest] = keypair
        if keypair is None:
            raise ValueError(
                f"no keypair cached for circuit {compiled.name!r} "
                f"(digest {digest[:12]}...); run setup first"
            )
        with self._lock:
            prepared = self._prepared_vk.get(digest)
        if prepared is None or prepared.vk is not keypair.verifying_key:
            prepared = prepare_verifying_key(keypair.verifying_key)
            with self._lock:
                self._prepared_vk[digest] = prepared
        return prepared

    def verify(
        self,
        compiled: CompiledCircuit,
        public_values: Sequence[int],
        proof: Proof,
    ) -> bool:
        """Pairing check against the prepared verification key."""
        prepared = self._prepared_verifying_key(compiled)
        with self._lock:
            self.stats.verifications += 1
        t0 = time.perf_counter()
        ok = verify_prepared(prepared, public_values, proof)
        _observe_stage("verify", time.perf_counter() - t0)
        return ok

    def verify_batch(
        self,
        compiled: CompiledCircuit,
        cases: Sequence[tuple],
        *,
        seed: Optional[int] = None,
    ) -> bool:
        """Batch-verify ``(public_values, proof)`` cases for one circuit.

        One RLC multi-pairing against the cached prepared key, with the
        live Miller loops and the folded C/IC MSMs routed through the
        engine's compute backend.  Soundness/seeding semantics follow
        :func:`repro.snark.groth16.verify_batch_prepared`.
        """
        prepared = self._prepared_verifying_key(compiled)
        with self._lock:
            self.stats.verifications += len(cases)
            self.stats.batch_verifications += 1
        return verify_batch_prepared(
            prepared, cases, seed=seed, backend=self.backend
        )

    # --------------------------------------------------------------- one-shot --

    def prove_job(
        self,
        key: str,
        synthesize: SynthesisFn,
        *,
        name: Optional[str] = None,
        seed: Optional[int] = None,
        setup_seed: Optional[int] = None,
        witness_check: Optional[Callable[[SynthesisResult], None]] = None,
    ) -> ProofJob:
        """One trip through the full pipeline, with per-stage timings.

        On a shape-cache hit this is witness replay + prove only: the
        compile and setup stages cost a dictionary lookup each.
        ``witness_check`` runs between synthesize and setup so callers can
        reject a witness (by raising) before paying for the proof.
        """
        timings: Dict[str, float] = {}

        t0 = time.perf_counter()
        had_circuit = self.compiled_for(key) is not None
        compiled, synthesis = self.synthesize(key, synthesize, name=name)
        stage = "synthesize_seconds" if synthesis.resynthesized else "compile_seconds"
        timings[stage] = time.perf_counter() - t0
        if witness_check is not None:
            witness_check(synthesis)

        with self._lock:
            had_keypair = compiled.digest in self._keypairs or (
                self._store is not None and self._store.has_keypair(compiled.digest)
            )
        t0 = time.perf_counter()
        keypair = self.setup(compiled, seed=setup_seed)
        timings["setup_seconds"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        proof = self.prove(compiled, synthesis, seed=seed)
        timings["prove_seconds"] = time.perf_counter() - t0

        return ProofJob(
            compiled=compiled,
            keypair=keypair,
            synthesis=synthesis,
            proof=proof,
            timings=timings,
            reused_circuit=had_circuit and synthesis.resynthesized,
            reused_keypair=had_keypair,
        )

    def __repr__(self) -> str:
        return (
            f"ProvingEngine(circuits={len(self._compiled)}, "
            f"keypairs={len(self._keypairs)}, stats={self.stats!r})"
        )
