"""The ZKROWNN proof service: ownership claims over the wire.

The deployment shape the paper assumes but the in-process API cannot
serve: many claimants submit models + watermark keys to a proving
service, a scheduler batches same-shape claims through the cached
:class:`~repro.engine.engine.ProvingEngine`, claims persist in a
content-addressed registry for later dispute resolution, and any
verifier fetches the ~hundreds-of-bytes claim plus verification key to
check independently.

Layers (each usable on its own):

* :mod:`repro.service.wire` -- canonical, versioned, length-prefixed
  binary frames for requests, claims, proofs, verifying keys, models;
* :mod:`repro.service.lifecycle` -- the claim lifecycle as one
  ``(state, event)`` table that every state change goes through;
* :mod:`repro.service.registry` -- the durable
  :class:`~repro.service.registry.ClaimRegistry` with audit log;
* :mod:`repro.service.scheduler` -- the
  :class:`~repro.service.scheduler.ProofScheduler` (priorities,
  per-shape batching, streaming witness synthesis);
* :mod:`repro.service.server` / :mod:`repro.service.client` -- the
  stdlib HTTP JSON API and its
  :class:`~repro.service.client.ServiceClient`;
* :mod:`repro.service.faults` -- seeded, deterministic fault injection
  (:class:`~repro.service.faults.FaultPlan`) threaded through every
  layer above, for chaos testing the whole stack.
"""

from .client import CircuitBreaker, RetryPolicy, ServiceClient, ServiceError
from .faults import (
    FaultPlan,
    FaultSpec,
    InjectedConnectionReset,
    SimulatedCrash,
    injected,
    install_plan,
)
from .lifecycle import JobState, TransitionRefused
from .registry import ClaimRecord, ClaimRegistry, RegistryError
from .scheduler import ProofScheduler, ProofTask
from .server import ProofServer, ProofService, ServiceUnavailable
from .wire import (
    ClaimRequest,
    PersistedRequest,
    WireFormatError,
    decode_claim,
    decode_claim_request,
    decode_model,
    decode_persisted_request,
    decode_proof,
    decode_verifying_key,
    encode_claim,
    encode_claim_request,
    encode_model,
    encode_persisted_request,
    encode_proof,
    encode_verifying_key,
)

__all__ = [
    "CircuitBreaker",
    "ClaimRecord",
    "ClaimRegistry",
    "ClaimRequest",
    "FaultPlan",
    "FaultSpec",
    "InjectedConnectionReset",
    "JobState",
    "PersistedRequest",
    "ProofScheduler",
    "ProofServer",
    "ProofService",
    "ProofTask",
    "RegistryError",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "SimulatedCrash",
    "TransitionRefused",
    "WireFormatError",
    "injected",
    "install_plan",
    "decode_claim",
    "decode_claim_request",
    "decode_model",
    "decode_persisted_request",
    "decode_proof",
    "decode_verifying_key",
    "encode_claim",
    "encode_claim_request",
    "encode_model",
    "encode_persisted_request",
    "encode_proof",
    "encode_verifying_key",
]
