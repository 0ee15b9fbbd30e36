"""The proof service's HTTP face: stdlib-only JSON API over the scheduler.

Endpoints (all JSON unless noted)::

    POST /claims              submit a wire-encoded ClaimRequest (binary body)
    GET  /claims              list claim records (?model_digest=, ?state=)
    GET  /claims/<id>         one claim's record / job status
    GET  /claims/<id>/proof   the proved claim as a binary wire frame
    GET  /claims/<id>/vk      the circuit's verifying key as a wire frame
    GET  /claims/<id>/audit   the claim's audit trail
    GET  /claims/<id>/circuit-audit  static soundness analysis of the
                              claim's proving circuit
    POST /claims/<id>/revoke  mark a claim revoked ({"reason": ...})
    POST /verify              verify server-side ({"claim_id": ...} or a
                              binary claim frame)
    POST /verify-batch        audit many stored claims, batched per VK
    POST /admin/drain         stop admitting; in-flight claims finish
    GET  /claims/<id>/trace   the claim's span tree (submit -> queue-wait
                              -> ... -> verify), JSON
    GET  /vks                 the signed key-transparency log (JSON)
    GET  /vks/<digest>        one circuit's verifying key as a wire frame
    GET  /healthz             liveness + queue depth
    GET  /stats               engine + scheduler + registry counters, the
                              configuration and the G1 MSM path
    GET  /metrics             Prometheus text exposition

Observability: ``POST /claims`` honors an ``X-Trace-Id`` header (else,
with observability on, the server mints one); every lifecycle stage
becomes a persisted span served at ``GET /claims/<id>/trace``.  Access
lines go to the structured JSONL logger at ``info``.

Submission is asynchronous: ``POST /claims`` returns ``202 Accepted``
with the content-addressed claim id; clients poll ``GET /claims/<id>``
(or :meth:`~repro.service.client.ServiceClient.wait`) until it settles,
then fetch the ~200-byte claim frame.  A resubmission is idempotent
unless the lifecycle table lets it requeue a failed claim or rescue one
stranded by a dead replica.

:class:`ProofService` is the transport-free core (used directly by the
in-process example and the tests); :class:`ProofServer` binds it to a
``ThreadingHTTPServer``, one OS thread per in-flight request, which is
plenty for an API whose hot path is "append to a queue" -- the actual
proving happens on scheduler threads.
"""

from __future__ import annotations

import hashlib
import json
import signal
import threading
import time
from contextlib import suppress
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .. import config
from .. import native
from ..engine.engine import ProvingEngine
from ..obs import Tracer, get_logger, get_metrics, new_trace_id, obs_enabled
from ..obs.trace import sanitize_trace_id
from ..parallel import machine_backend
from ..zkrownn.artifacts import model_digest
from ..zkrownn.planning import extraction_structure_key
from ..zkrownn.circuit import extraction_synthesizer
from ..zkrownn.verifier import OwnershipVerifier
from . import faults as _faults
from . import lifecycle, wire
from .faults import InjectedConnectionReset, SimulatedCrash
from .lifecycle import JobState, TransitionRefused
from .registry import ClaimRecord, ClaimRegistry, RegistryError
from .scheduler import ProofScheduler, ProofTask

__all__ = [
    "ProofServer",
    "ProofService",
    "SERVICE_VERSION",
    "ServiceUnavailable",
]

SERVICE_VERSION = "1"


class ServiceUnavailable(RuntimeError):
    """Admission refused: the service is full (429) or draining (503).

    Carries the HTTP status and a ``Retry-After`` hint the handler turns
    into headers; resilient clients back off (or fail over) on both.
    """

    def __init__(self, message: str, *, status: int = 503,
                 retry_after: float = 1.0):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class ProofService:
    """Transport-independent service core: submit / status / fetch / verify.

    Owns the proving engine, scheduler, and registry unless injected.
    ``start()`` publishes disk-cached verifying keys into the registry,
    re-enqueues still-pending claims from their persisted request frames
    (restart recovery), then spins up the scheduler threads; ``close()``
    drains them.

    Unless an ``engine`` is injected, the engine's on-disk
    :class:`~repro.engine.cache.ArtifactStore` lives under the registry
    root (``cache_dir`` overrides the location), so a restarted service
    re-proves known shapes with zero fresh Groth16 setups and its
    published VKs stay in lockstep with the registry's VK store.

    The service sizes itself from the machine: its own engine gets
    :func:`~repro.parallel.backend.machine_backend` (a process pool on two
    or more usable CPUs, the serial backend on one; ``ZKROWNN_BACKEND`` /
    ``ZKROWNN_WORKERS`` still win), and it starts one dispatch thread per
    backend worker, so same-shape claims prove side by side instead of
    queueing behind each other.
    """

    def __init__(
        self,
        registry: ClaimRegistry,
        *,
        engine: Optional[ProvingEngine] = None,
        scheduler: Optional[ProofScheduler] = None,
        cache_dir: Optional[str] = None,
        max_queue_depth: Optional[int] = None,
        retry_after_seconds: float = 1.0,
        max_attempts: int = 3,
        prove_budget_seconds: Optional[float] = None,
        faults: Optional[_faults.FaultPlan] = None,
        audit_mode: Optional[str] = None,
    ):
        self.registry = registry
        # Every ZKROWNN_* setting, checked before anything starts and
        # reported with its source under /stats "config".
        self.settings = config.load()
        self.faults = faults if faults is not None else _faults.active_plan()
        if engine is None:
            engine = ProvingEngine(
                cache_dir=cache_dir or str(registry.root / "engine-cache"),
                backend=machine_backend(),
            )
        if audit_mode is not None:
            engine.audit_mode = audit_mode
        self.engine = engine
        self.scheduler = scheduler if scheduler is not None else ProofScheduler(
            self.engine,
            registry,
            max_attempts=max_attempts,
            prove_budget_seconds=prove_budget_seconds,
            faults=self.faults,
        )
        # Bounded admission: above this queue depth, submissions get 429
        # + Retry-After instead of an unbounded enqueue (None = unbounded).
        self.max_queue_depth = max_queue_depth
        self.retry_after_seconds = retry_after_seconds
        self.tracer = Tracer(sink=registry.store_trace_span)
        metrics = get_metrics()
        self._m_submissions = metrics.counter(
            "zkrownn_submissions_total",
            "claim submissions admitted (including resubmissions)",
        )
        self._m_http = metrics.counter(
            "zkrownn_http_requests_total",
            "HTTP requests served, by method and status code",
        )
        self.started_at = time.time()
        self.recovered_claims: List[str] = []
        self.draining = False
        self._drained = threading.Event()
        self._drain_lock = threading.Lock()

    def start(self) -> "ProofService":
        self._publish_cached_vks()
        self.recovered_claims = self._recover_pending()
        self.scheduler.start()
        return self

    def close(self) -> None:
        self.scheduler.stop()
        self.engine.backend.close()

    def drain(self, *, wait: bool = True) -> Dict:
        """Graceful shutdown, phase one: stop admitting, finish in-flight.

        Sets ``draining`` (new submissions get 503 + Retry-After, health
        reports ``draining``), stops the scheduler -- in-flight claims
        finish, still-queued claims stay durable on disk for the next
        process (or another replica) to recover -- and audits the drain.
        With ``wait=False`` the scheduler stop runs on a background
        thread and this returns immediately (the HTTP handler's path).
        """
        with self._drain_lock:
            first = not self.draining
            self.draining = True
        if first:
            with suppress(OSError):
                self.registry.audit(
                    "drain-started", owner=self.registry.owner_token,
                    queue_depth=self.scheduler.pending(),
                )

            def _finish_drain() -> None:
                self.scheduler.stop()
                with suppress(OSError):
                    self.registry.audit(
                        "drain-complete", owner=self.registry.owner_token
                    )
                self._drained.set()

            if wait:
                _finish_drain()
            else:
                threading.Thread(
                    target=_finish_drain, name="proof-service-drain",
                    daemon=True,
                ).start()
        elif wait:
            self._drained.wait()
        return {
            "status": "draining",
            "drained": self._drained.is_set(),
            "queue_depth": self.scheduler.pending(),
        }

    @property
    def drained(self) -> bool:
        return self._drained.is_set()

    def _check_admission(self) -> None:
        """Gate for new work; raises :class:`ServiceUnavailable` to shed.

        A scheduler that was merely never *started* still admits (claims
        queue durably and are dispatched on start or recovered by a
        replica); one that is draining or was stopped does not -- acking
        ``queued`` for work this process will never run strands clients.
        """
        if self.draining or self.scheduler.stopping:
            raise ServiceUnavailable(
                "service is draining; retry against another replica",
                status=503, retry_after=self.retry_after_seconds,
            )
        if (
            self.max_queue_depth is not None
            and self.scheduler.pending() >= self.max_queue_depth
        ):
            raise ServiceUnavailable(
                f"queue full ({self.scheduler.pending()} >= "
                f"{self.max_queue_depth} queued claims)",
                status=429, retry_after=self.retry_after_seconds,
            )

    # ------------------------------------------------------------- recovery --

    def _publish_cached_vks(self) -> None:
        """Unify the engine's disk cache with the registry's VK store.

        Every verifying key the engine has ever set up (this process or a
        previous one sharing the cache directory) becomes fetchable via
        ``GET /vks/<circuit_digest>`` -- with a key-transparency log entry
        on first publication.
        """
        store = self.engine.artifact_store
        if store is None:
            return
        for digest in store.vk_digests():
            vk_bytes = store.load_vk_bytes(digest)
            if vk_bytes:
                self.registry.store_verifying_key(digest, vk_bytes)

    def _recover_pending(self) -> List[str]:
        """Re-enqueue claims the previous process died holding.

        Every record the table lets ``recover`` and no live replica holds
        (its owner crashed) is rebuilt from its persisted request frame;
        one with no recoverable frame fails rather than sit stranded.
        Runs before the scheduler starts, so recovered claims dispatch
        in submission order.
        """
        recovered: List[str] = []
        # Oldest first to keep submission order; claim_id breaks the tie
        # deterministically when created_at stamps collide on a coarse
        # clock.
        pending = sorted(
            self.registry.list(), key=lambda r: (r.created_at, r.claim_id)
        )
        for record in pending:
            if not lifecycle.allows(record.state, lifecycle.RECOVER):
                continue
            owner = self.registry.lease_owner(record.claim_id)
            if owner is not None and owner != self.registry.owner_token:
                continue  # a live replica holds it right now
            try:
                persisted = wire.decode_persisted_request(
                    self.registry.request_bytes(record.claim_id)
                )
                if persisted.claim_id != record.claim_id:
                    raise wire.WireFormatError(
                        f"frame is for claim {persisted.claim_id!r}"
                    )
            except (RegistryError, wire.WireFormatError) as exc:
                self._transition(
                    record.claim_id, lifecycle.FAIL,
                    error=f"unrecoverable after restart: {exc}",
                )
                continue
            self._transition(record.claim_id, lifecycle.RECOVER, error="")
            # The recovered claim keeps its original trace: the restart
            # shows up as a "recovered" span between queue-waits.
            self.tracer.finish(self.tracer.span(
                record.trace_id, "recovered", claim_id=record.claim_id,
                prior_state=record.state,
            ))
            self.scheduler.submit(self._task_for(
                record.claim_id, persisted.request,
                trace_id=record.trace_id,
            ))
            recovered.append(record.claim_id)
        return recovered

    def _transition(self, claim_id: str, event: str, **fields) -> None:
        """One lifecycle event on the durable record, lease side included."""
        if self.registry.transition(claim_id, event, **fields).release:
            self.registry.release(claim_id)

    # --------------------------------------------------------------- submit --

    def _task_for(
        self,
        claim_id: str,
        request: wire.ClaimRequest,
        *,
        deadline_seconds: Optional[float] = None,
        trace_id: str = "",
        parent_span_id: str = "",
    ) -> ProofTask:
        return ProofTask(
            trace_id=trace_id,
            parent_span_id=parent_span_id,
            claim_id=claim_id,
            shape_key=extraction_structure_key(
                request.model, request.keys, request.config
            ),
            synthesize=extraction_synthesizer(
                request.model, request.keys, request.config
            ),
            model=request.model,
            keys=request.keys,
            config=request.config,
            priority=request.priority,
            seed=request.seed,
            setup_seed=request.setup_seed,
            deadline=(
                time.monotonic() + deadline_seconds
                if deadline_seconds is not None
                else None
            ),
        )

    def submit(
        self,
        request_frame: bytes,
        *,
        deadline_seconds: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Dict:
        """Decode, content-address, register, persist, and enqueue one claim.

        ``deadline_seconds`` (the HTTP ``X-Deadline-Seconds`` header, NOT
        part of the wire frame -- the canonical request bytes are the
        content address and must stay deadline-free) lets the scheduler
        shed the job at dispatch once the client has given up on it.

        ``trace_id`` (the ``X-Trace-Id`` header) joins the claim to a
        client-minted trace; absent (or invalid), the server mints one.
        The id stored at registration wins: resubmissions and rescues
        append to the original trace rather than forking a new one.
        """
        self._check_admission()
        trace_id = sanitize_trace_id(trace_id)
        if not trace_id and obs_enabled():
            trace_id = new_trace_id()
        request = wire.decode_claim_request(request_frame)
        mdigest = model_digest(request.model, request.keys.embed_layer)
        shape_key = extraction_structure_key(
            request.model, request.keys, request.config
        )
        # Content address: the canonical re-encoding of the request, so a
        # byte-identical resubmission maps onto the existing record.
        canonical = wire.encode_claim_request(request)
        claim_id = hashlib.sha256(canonical).hexdigest()
        self._m_submissions.inc()

        # Freshen from the shared root first: another replica may have
        # registered (or proved) this claim since our in-memory load.
        event = None
        try:
            record = self.registry.reload(claim_id)
        except RegistryError:
            self.registry.store_model_bytes(
                mdigest, wire.encode_model(request.model)
            )
            record = self.registry.register(ClaimRecord(
                claim_id=claim_id, model_digest=mdigest,
                priority=request.priority, shape_key=shape_key,
                trace_id=trace_id,
            ))
            event = lifecycle.SUBMIT
        # First writer wins: the trace id stored at registration is the
        # claim's trace; later submissions append to it.
        if record.trace_id:
            trace_id = record.trace_id
        elif trace_id:
            record = self.registry.update(claim_id, trace_id=trace_id)
        if lifecycle.allows(record.state, lifecycle.REQUEUE):
            # A failed/quarantined claim: status/wait must see 'queued',
            # not the stale terminal state, while the job sits in the
            # queue.  Its attempt budget starts over (the operator
            # resubmitting IS the requeue decision); its error chain is
            # kept for the post-mortem.
            event = lifecycle.REQUEUE
        elif event is None and (
            lifecycle.allows(record.state, lifecycle.RESCUE)
            and self.scheduler.state(claim_id) not in lifecycle.ACTIVE_STATES
            and self.registry.lease_owner(claim_id) is None
        ):
            # Stranded: the owner died (lease expired) and nobody holds
            # the job.  A resubmission rescues it instead of bouncing off
            # the stale pending state forever.
            event = lifecycle.RESCUE
        elif event is None:
            self.tracer.finish(self.tracer.span(
                trace_id, "resubmit", claim_id=claim_id, state=record.state,
            ))
            return {"claim_id": claim_id, "state": record.state,
                    "resubmission": True}
        persisted = wire.encode_persisted_request(claim_id, request)
        if event == lifecycle.RESCUE:
            self.registry.store_request_bytes(claim_id, persisted)
            self._transition(claim_id, lifecycle.RESCUE, error="")
            self.tracer.finish(self.tracer.span(
                trace_id, "rescued", claim_id=claim_id,
                prior_state=record.state,
            ))
            self.scheduler.submit(self._task_for(
                claim_id, request, deadline_seconds=deadline_seconds,
                trace_id=trace_id,
            ))
            return {"claim_id": claim_id, "state": JobState.QUEUED,
                    "resubmission": True}
        submit_span = self.tracer.span(
            trace_id, "submit", claim_id=claim_id, priority=request.priority,
        )
        with self.tracer.active(submit_span):
            if event == lifecycle.REQUEUE:
                self._transition(
                    claim_id, lifecycle.REQUEUE, error="", attempts=0
                )
            # Persist the canonical frame FIRST: once a client has been told
            # "queued", a crash must not lose the job.
            self.registry.store_request_bytes(claim_id, persisted)
            self.scheduler.submit(self._task_for(
                claim_id, request, deadline_seconds=deadline_seconds,
                trace_id=trace_id, parent_span_id=submit_span.span_id,
            ))
        self.tracer.finish(submit_span)
        return {"claim_id": claim_id, "state": JobState.QUEUED,
                "resubmission": False}

    # --------------------------------------------------------------- status --

    def record_payload(self, record: ClaimRecord) -> Dict:
        payload = {
            "claim_id": record.claim_id,
            "state": record.state,
            "model_digest": record.model_digest,
            "circuit_digest": record.circuit_digest,
            "priority": record.priority,
            "error": record.error,
            "revoked_reason": record.revoked_reason,
            "owner_token": record.owner_token,
            "created_at": record.created_at,
            "updated_at": record.updated_at,
            "timings": record.timings,
            "attempts": record.attempts,
            "error_chain": record.error_chain,
            "trace_id": record.trace_id,
        }
        live = self.scheduler.state(record.claim_id)
        if live is not None and live != record.state:
            payload["scheduler_state"] = live
        return payload

    def status(self, claim_id: str) -> Dict:
        try:
            # Re-read from disk: with replicas sharing the root, another
            # process may have moved this claim since we last touched it.
            # (Single-claim polls only -- the /claims listing serves the
            # in-memory snapshots rather than N file reads per request.)
            record = self.registry.reload(claim_id)
        except RegistryError:
            record = self.registry.get(claim_id)
        return self.record_payload(record)

    def claim_frame(self, claim_id: str) -> bytes:
        # Fresh from disk, like status(): the poll that saw 'done' may
        # have been answered by another replica.
        record = self.registry.reload(claim_id)
        refusal = lifecycle.unverifiable(record.state, record.revoked_reason)
        if refusal:
            raise RegistryError(f"claim {claim_id!r}: {refusal}")
        return self.registry.claim_bytes(claim_id)

    def verifying_key_frame(self, claim_id: str) -> bytes:
        record = self.registry.get(claim_id)
        if not record.circuit_digest:
            raise RegistryError(f"claim {claim_id!r} has no circuit yet")
        return wire.encode_frame(
            wire.MSG_VERIFYING_KEY,
            self.registry.verifying_key_bytes(record.circuit_digest),
        )

    def verifying_key_frame_by_digest(self, circuit_digest: str) -> bytes:
        """VK distribution for auditors: keyed by circuit shape, not claim."""
        return wire.encode_frame(
            wire.MSG_VERIFYING_KEY,
            self.registry.verifying_key_bytes(circuit_digest),
        )

    def key_log(self) -> Dict:
        """The signed key-transparency log of every published VK."""
        return {"key_log": self.registry.key_log_entries()}

    # --------------------------------------------------------------- verify --

    def circuit_audit(self, claim_id: str) -> Dict:
        """The static circuit-audit report for a claim's proving circuit.

        Served from the engine's report cache when possible; otherwise the
        constraint system is recovered from the artifact store and audited
        on demand, so the endpoint works for any proved claim even after a
        restart.  Claims without a circuit digest yet (still queued or
        proving) report ``available: false``.
        """
        record = self.registry.get(claim_id)
        digest = record.circuit_digest
        payload: Dict = {
            "claim_id": claim_id,
            "audit_mode": self.engine.audit_mode,
        }
        if not digest:
            payload.update(
                available=False,
                reason=f"claim is {record.state}: no circuit digest yet",
            )
            return payload
        report = self.engine.audit_stored_circuit(digest)
        if report is None:
            payload.update(
                available=False,
                circuit_digest=digest,
                reason="no cached report and no stored constraint system "
                       "for this digest",
            )
            return payload
        payload.update(
            available=True,
            circuit_digest=digest,
            report=report.to_dict(),
        )
        return payload

    def verify_by_id(self, claim_id: str) -> Dict:
        """Server-side verification of a stored claim against its stored model."""
        record = self.registry.get(claim_id)
        span = self.tracer.span(
            record.trace_id, "verify", claim_id=claim_id,
        )
        with self.tracer.active(span):
            refusal = lifecycle.unverifiable(
                record.state, record.revoked_reason
            )
            if refusal:
                report = {"accepted": False, "reason": refusal}
            else:
                claim = wire.decode_claim(self.registry.claim_bytes(claim_id))
                report = self._verify_claim(claim, record.circuit_digest)
                self.registry.audit("verified", claim_id=claim_id,
                                    accepted=report["accepted"])
        self.tracer.finish(span, accepted=report["accepted"])
        return report

    def verify_frame(self, claim_frame: bytes) -> Dict:
        """Verify a caller-supplied claim frame against registry state.

        The claim names its model by digest; any stored circuit that has
        proved a claim for that model supplies the candidate verifying
        key.  Accepting requires some (model, VK) pair to check out.
        """
        claim = wire.decode_claim(claim_frame)
        digests = []
        for record in self.registry.list(model_digest=claim.model_sha256,
                                         state=JobState.DONE):
            if record.circuit_digest and record.circuit_digest not in digests:
                digests.append(record.circuit_digest)
        if not digests:
            return {"accepted": False,
                    "reason": "no proved claims registered for this model"}
        last = {"accepted": False, "reason": "no candidate verifying key"}
        for circuit_digest in digests:
            last = self._verify_claim(claim, circuit_digest)
            if last["accepted"]:
                return last
        return last

    def _verifier_for(self, circuit_digest: str) -> OwnershipVerifier:
        """A verifier under the registered key of one circuit shape.

        ``RegistryError`` when no key is stored for the digest,
        ``wire.WireFormatError`` when the stored bytes are not a usable key.
        """
        return OwnershipVerifier(wire.parse_verifying_key(
            self.registry.verifying_key_bytes(circuit_digest)
        ))

    def _verify_claim(self, claim, circuit_digest: str) -> Dict:
        try:
            model = wire.decode_model(
                self.registry.model_bytes(claim.model_sha256)
            )
            verifier = self._verifier_for(circuit_digest)
        except RegistryError as exc:
            return {"accepted": False, "reason": str(exc), "malformed": False}
        report = verifier.verify(model, claim)
        return {"accepted": report.accepted, "reason": report.reason,
                "malformed": report.malformed}

    # ---------------------------------------------------------- batch verify --

    def verify_batch(
        self, claim_ids: List[str], *, seed: Optional[int] = None
    ) -> wire.VerifyBatchResult:
        """Audit many stored claims in one sweep, batched per verifying key.

        Claims are grouped by ``circuit_digest``; each group runs one
        random-linear-combination multi-pairing through
        :meth:`~repro.zkrownn.verifier.OwnershipVerifier.verify_many`
        (with per-claim fallback on a group failure, so blame lands on
        the right claim).  Per-claim verdicts carry HTTP-style statuses:
        404 unknown, 409 not in a verifiable state, 400 malformed proof
        bytes, 200 otherwise (see ``accepted``).  ``seed`` derandomizes
        the batch combiner for reproducible audits.
        """
        verdicts: List[wire.BatchClaimVerdict] = []
        by_digest: Dict[str, List[Tuple[str, object]]] = {}

        def refuse(claim_id: str, reason: str, status: int) -> None:
            verdicts.append(wire.BatchClaimVerdict(
                claim_id=claim_id, accepted=False, reason=reason, status=status,
            ))

        for claim_id in claim_ids:
            try:
                record = self.registry.reload(claim_id)
            except RegistryError as exc:
                refuse(claim_id, str(exc), 404)
                continue
            refusal = lifecycle.unverifiable(
                record.state, record.revoked_reason
            )
            if refusal:
                refuse(claim_id, refusal, 409)
                continue
            try:
                claim = wire.decode_claim(self.registry.claim_bytes(claim_id))
            except (RegistryError, wire.WireFormatError) as exc:
                refuse(claim_id, f"stored claim unreadable: {exc}", 400)
                continue
            by_digest.setdefault(record.circuit_digest, []).append(
                (claim_id, claim)
            )

        groups: List[wire.BatchGroupVerdict] = []
        for circuit_digest, members in by_digest.items():
            started = time.perf_counter()
            try:
                verifier = self._verifier_for(circuit_digest)
            except (RegistryError, wire.WireFormatError) as exc:
                for claim_id, _ in members:
                    refuse(claim_id, f"verifying key unavailable: {exc}", 404)
                groups.append(wire.BatchGroupVerdict(
                    circuit_digest=circuit_digest,
                    claim_ids=[claim_id for claim_id, _ in members],
                    accepted=False,
                    seconds=time.perf_counter() - started,
                ))
                continue
            cases = []
            batched_ids = []
            for claim_id, claim in members:
                try:
                    model = wire.decode_model(
                        self.registry.model_bytes(claim.model_sha256)
                    )
                except (RegistryError, wire.WireFormatError) as exc:
                    refuse(claim_id, f"stored model unavailable: {exc}", 404)
                    continue
                cases.append((model, claim))
                batched_ids.append(claim_id)
            group_ok = True
            if cases:
                reports = verifier.verify_many(cases, seed=seed)
                for claim_id, report in zip(batched_ids, reports):
                    verdicts.append(wire.BatchClaimVerdict(
                        claim_id=claim_id,
                        accepted=report.accepted,
                        reason=report.reason,
                        status=400 if report.malformed else 200,
                    ))
                    self.registry.audit(
                        "batch-verified", claim_id=claim_id,
                        accepted=report.accepted,
                    )
                    group_ok = group_ok and report.accepted
            group_ok = group_ok and len(batched_ids) == len(members)
            groups.append(wire.BatchGroupVerdict(
                circuit_digest=circuit_digest,
                claim_ids=batched_ids,
                accepted=group_ok,
                seconds=time.perf_counter() - started,
            ))
        return wire.VerifyBatchResult(verdicts=verdicts, groups=groups)

    # --------------------------------------------------------------- revoke --

    def revoke(self, claim_id: str, reason: str = "") -> Dict:
        record = self.registry.revoke(claim_id, reason)
        return {"claim_id": claim_id, "state": record.state,
                "revoked_reason": record.revoked_reason}

    # ---------------------------------------------------------------- stats --

    def health(self) -> Dict:
        """Liveness plus a degradation signal: ``ok|degraded|draining``.

        ``degraded`` means the queue is at >= 80% of ``max_queue_depth``
        -- still admitting, but a load balancer should prefer another
        replica; ``draining`` means admissions are already refused.
        """
        queue_depth = self.scheduler.pending()
        status = "ok"
        if self.draining or self.scheduler.stopping:
            status = "draining"
        elif (
            self.max_queue_depth is not None
            and queue_depth >= 0.8 * self.max_queue_depth
        ):
            status = "degraded"
        return {
            "status": status,
            "service_version": SERVICE_VERSION,
            "wire_version": wire.WIRE_VERSION,
            "uptime_seconds": time.time() - self.started_at,
            "queue_depth": queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "draining": self.draining,
            "drained": self._drained.is_set(),
            "quarantined": self.registry.counts().get(
                JobState.QUARANTINED, 0
            ),
            "owner_token": self.registry.owner_token,
            "recovered_claims": len(self.recovered_claims),
        }

    def stats(self) -> Dict:
        # Locked snapshots, not the live mutable counter objects: a
        # /stats scrape concurrent with a proving claim must see each
        # stats block at one consistent instant, not mid-increment.
        return {
            "engine": self.engine.stats_snapshot(),
            "scheduler": self.scheduler.stats_snapshot(),
            "registry": self.registry.counts(),
            "backend": self.engine.backend.name,
            "workers": self.engine.backend.workers,
            "config": self.settings.provenance(),
            "kernels": native.status(),
            "uptime_seconds": time.time() - self.started_at,
        }

    # -------------------------------------------------------- observability --

    def trace(self, claim_id: str) -> Dict:
        """The claim's persisted span tree (submit -> ... -> verify)."""
        record = self.registry.get(claim_id)  # 404s unknown claims
        return {
            "claim_id": claim_id,
            "trace_id": record.trace_id,
            "spans": self.registry.trace_spans(claim_id),
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition, with scrape-time gauges refreshed."""
        metrics = get_metrics()
        if obs_enabled():
            registry_claims = metrics.gauge(
                "zkrownn_registry_claims",
                "claim records in the registry, by state",
            )
            for state, count in self.registry.counts().items():
                if state != "total":
                    registry_claims.set(count, state=state)
            metrics.gauge(
                "zkrownn_queue_depth", "claims waiting in the scheduler queue",
            ).set(self.scheduler.pending())
            # Claims queued while busy < workers: the dispatch threads,
            # not the prover, are what they are waiting for.
            backend = self.engine.backend
            metrics.gauge(
                "zkrownn_prove_workers",
                "proofs the compute backend can run at the same time",
            ).set(backend.workers)
            metrics.gauge(
                "zkrownn_prove_workers_busy", "backend workers proving now",
            ).set(backend.busy_workers())
            metrics.gauge(
                "zkrownn_uptime_seconds", "seconds since service start",
            ).set(time.time() - self.started_at)
        return metrics.render()


# -- HTTP layer ----------------------------------------------------------------

_http_log = get_logger("http")


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests onto the bound :class:`ProofService`."""

    service: ProofService  # injected by ProofServer via subclassing
    server_version = "zkrownn-proof-service/" + SERVICE_VERSION
    protocol_version = "HTTP/1.1"

    # -- helpers --------------------------------------------------------------

    # Access lines go through the structured logger instead of stderr:
    # quiet under the default ZKROWNN_LOG_LEVEL=warning, one JSON line
    # per request at info, errors at warning.

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        _http_log.info("http.message", message=format % args)

    def log_error(self, format, *args):  # noqa: A002 - stdlib signature
        _http_log.warning("http.error", message=format % args)

    def log_request(self, code="-", size="-"):
        code_val = getattr(code, "value", code)
        self.service._m_http.inc(
            method=getattr(self, "command", "?") or "?", code=str(code_val)
        )
        _http_log.info(
            "http.request", method=getattr(self, "command", "?"),
            path=getattr(self, "path", "?"), code=code_val,
        )

    def _send(
        self,
        body: bytes,
        content_type: str = "application/octet-stream",
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: Dict, status: int = 200,
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self._send(body, "application/json", status, headers)

    def _error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _unavailable(self, exc: ServiceUnavailable) -> None:
        self._send_json(
            {"error": str(exc), "retry_after": exc.retry_after},
            status=exc.status,
            # Retry-After is integer seconds; round up so a 0.5s hint
            # does not truncate to "retry immediately".
            headers={"Retry-After": str(max(1, int(exc.retry_after + 0.999)))},
        )

    def _fire_faults(self) -> None:
        """Injected transport faults for this request (chaos harness).

        ``reset``/``crash`` kinds surface as the connection dropping with
        no response -- exactly what a client sees when a replica dies
        mid-request -- via the except clauses in the verb handlers.
        """
        plan = self.service.faults
        if plan is not None:
            plan.fire("http.request")

    def _drop_connection(self) -> None:
        """Abandon the socket without a response (injected reset/crash)."""
        self.close_connection = True
        with suppress(OSError):
            self.connection.close()

    def _body(self) -> bytes:
        """Read exactly ``Content-Length`` bytes (or fail loudly).

        ``rfile.read(n)`` may return fewer bytes than asked on a slow
        socket; a single read would hand a truncated body to the wire
        decoder.  Loop until complete, and raise (-> 400) if the peer
        hangs up early rather than decoding a short frame.
        """
        length = int(self.headers.get("Content-Length", "0"))
        if length <= 0:
            return b""
        chunks: List[bytes] = []
        remaining = length
        while remaining > 0:
            chunk = self.rfile.read(remaining)
            if not chunk:
                raise ValueError(
                    f"request body truncated: got {length - remaining} "
                    f"of {length} bytes"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _route(self) -> Tuple[str, Dict]:
        parsed = urlparse(self.path)
        query = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    # -- verbs ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path, query = self._route()
        try:
            self._fire_faults()
            if path == "/healthz":
                return self._send_json(self.service.health())
            if path == "/stats":
                return self._send_json(self.service.stats())
            if path == "/metrics":
                return self._send(
                    self.service.metrics_text().encode(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            if path == "/claims":
                records = self.service.registry.list(
                    model_digest=query.get("model_digest"),
                    state=query.get("state"),
                )
                return self._send_json(
                    {"claims": [self.service.record_payload(r) for r in records]}
                )
            if path == "/vks":
                return self._send_json(self.service.key_log())
            parts = path.strip("/").split("/")
            if len(parts) == 2 and parts[0] == "vks":
                return self._send(
                    self.service.verifying_key_frame_by_digest(parts[1])
                )
            if len(parts) >= 2 and parts[0] == "claims":
                claim_id = parts[1]
                if len(parts) == 2:
                    return self._send_json(self.service.status(claim_id))
                if parts[2] == "proof":
                    return self._send(self.service.claim_frame(claim_id))
                if parts[2] == "vk":
                    return self._send(
                        self.service.verifying_key_frame(claim_id)
                    )
                if parts[2] == "audit":
                    return self._send_json(
                        {"audit": list(
                            self.service.registry.audit_entries(claim_id)
                        )}
                    )
                if parts[2] == "circuit-audit":
                    return self._send_json(self.service.circuit_audit(claim_id))
                if parts[2] == "trace":
                    return self._send_json(self.service.trace(claim_id))
            self._error(404, f"no route for GET {path}")
        except (InjectedConnectionReset, SimulatedCrash):
            self._drop_connection()
        except RegistryError as exc:
            self._error(404, str(exc))
        except Exception as exc:  # noqa: BLE001 - surface, never hang the socket
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path, _ = self._route()
        try:
            self._fire_faults()
            body = self._body()
            if path == "/claims":
                deadline = self.headers.get("X-Deadline-Seconds")
                return self._send_json(
                    self.service.submit(
                        body,
                        deadline_seconds=(
                            float(deadline) if deadline else None
                        ),
                        trace_id=self.headers.get("X-Trace-Id"),
                    ),
                    status=202,
                )
            if path == "/admin/drain":
                # Respond first, drain on a background thread: the whole
                # point is that in-flight proves may take a while.
                return self._send_json(
                    self.service.drain(wait=False), status=202
                )
            if path == "/verify":
                content_type = self.headers.get("Content-Type", "")
                if content_type.startswith("application/json"):
                    payload = json.loads(body.decode() or "{}")
                    claim_id = payload.get("claim_id")
                    if not claim_id:
                        return self._error(400, "verify needs a claim_id")
                    return self._send_json(self.service.verify_by_id(claim_id))
                return self._send_json(self.service.verify_frame(body))
            if path == "/verify-batch":
                content_type = self.headers.get("Content-Type", "")
                if content_type.startswith("application/json"):
                    payload = json.loads(body.decode() or "{}")
                    claim_ids = payload.get("claim_ids")
                    if not isinstance(claim_ids, list):
                        return self._error(
                            400, "verify-batch needs a claim_ids list"
                        )
                    result = self.service.verify_batch(
                        claim_ids, seed=payload.get("seed")
                    )
                    return self._send_json({
                        "verdicts": [asdict(v) for v in result.verdicts],
                        "groups": [asdict(g) for g in result.groups],
                    })
                request = wire.decode_verify_batch_request(body)
                result = self.service.verify_batch(
                    request.claim_ids, seed=request.seed
                )
                return self._send(wire.encode_verify_batch_result(result))
            parts = path.strip("/").split("/")
            if len(parts) == 3 and parts[0] == "claims" and parts[2] == "revoke":
                payload = json.loads(body.decode() or "{}")
                return self._send_json(
                    self.service.revoke(parts[1], payload.get("reason", ""))
                )
            self._error(404, f"no route for POST {path}")
        except (InjectedConnectionReset, SimulatedCrash):
            self._drop_connection()
        except ServiceUnavailable as exc:
            self._unavailable(exc)
        except TransitionRefused as exc:
            self._error(409, str(exc))
        except wire.WireFormatError as exc:
            self._error(400, f"bad wire frame: {exc}")
        except RegistryError as exc:
            self._error(404, str(exc))
        except (ValueError, json.JSONDecodeError) as exc:
            self._error(400, str(exc))
        except Exception as exc:  # noqa: BLE001
            self._error(500, f"{type(exc).__name__}: {exc}")


class ProofServer:
    """A :class:`ProofService` bound to a listening socket.

    ``port=0`` picks a free port (tests).  ``start()`` serves on a
    daemon thread and returns immediately; ``stop()`` shuts down the
    HTTP loop and the service's scheduler.
    """

    def __init__(
        self,
        service: ProofService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        handler = type("BoundHandler", (_ServiceHandler,), {"service": service})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self, *, start_service: bool = True) -> "ProofServer":
        """Serve on a daemon thread.  ``start_service=False`` leaves the
        scheduler paused (submissions queue; tests and drain-then-start
        deployments dispatch later via ``service.start()``)."""
        if start_service:
            self.service.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="proof-server-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.close()

    def drain_and_shutdown(self) -> None:
        """Graceful exit: stop admitting, finish in-flight, stop serving.

        ``POST /admin/drain`` already answers 202 while this runs; once
        the scheduler is fully drained the HTTP loop is shut down too,
        so ``serve_forever`` returns and the process exits cleanly.
        """
        self.service.drain(wait=True)
        self._httpd.shutdown()

    def serve_forever(self) -> None:
        """Blocking serve (the CLI's ``serve`` subcommand).

        Installs a SIGTERM handler (main thread only; a no-op elsewhere)
        that drains and exits instead of dying mid-prove -- `kill <pid>`
        and orchestrator stop both become graceful drains.
        """
        self.service.start()
        previous_handler = None
        try:
            previous_handler = signal.signal(
                signal.SIGTERM,
                lambda signum, frame: threading.Thread(
                    target=self.drain_and_shutdown,
                    name="proof-server-sigterm-drain",
                    daemon=True,
                ).start(),
            )
        except ValueError:  # pragma: no cover - not on the main thread
            pass
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            if previous_handler is not None:
                try:
                    signal.signal(signal.SIGTERM, previous_handler)
                except ValueError:  # pragma: no cover
                    pass
            self._httpd.server_close()
            self.service.close()

    def __enter__(self) -> "ProofServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
