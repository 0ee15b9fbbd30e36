"""The verifier side of ZKROWNN.

Any third party (V in the paper -- a court expert, a marketplace, another
vendor) verifies an ownership claim with only:

* the public model M' in question,
* the published verification key for the circuit shape,
* the prover's :class:`~repro.zkrownn.artifacts.OwnershipClaim` (~hundreds
  of bytes).

Crucially the verifier reconstructs the public instance *themselves* from
the model and the claim's public parameters -- the prover never supplies
instance values, so a cheating prover cannot claim against a model other
than the one the verifier holds.

Every check runs the same path: :meth:`OwnershipVerifier._precheck` (digest,
instance, proof decoding, point validation, key preparation) and then the
prepared Groth16 equation of :mod:`repro.snark.groth16` -- once per claim in
:meth:`~OwnershipVerifier.verify`, once per batch in
:meth:`~OwnershipVerifier.verify_many`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..circuit.fixedpoint import FixedPointFormat
from ..nn.model import Sequential
from ..snark.errors import MalformedProof
from ..snark.groth16 import (
    PreparedVerifyingKey,
    prepare_verifying_key,
    verify_batch_prepared,
    verify_prepared,
)
from ..snark.keys import Proof, VerifyingKey
from .artifacts import OwnershipClaim, model_digest
from .circuit import CircuitConfig, public_inputs_for

__all__ = ["OwnershipVerifier", "VerificationReport"]


@dataclass
class VerificationReport:
    """The verifier's decision with its reasoning trail.

    ``malformed`` marks claims whose proof failed point/subgroup
    validation -- garbage bytes rather than a false statement; services
    surface these as 400-class verdicts instead of plain rejections.
    """

    accepted: bool
    reason: str
    malformed: bool = False

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.accepted


@dataclass
class OwnershipVerifier:
    """A third-party verifier for ownership claims.

    The Miller-loop coefficients of the key's three fixed G2 points are
    precomputed on the first claim that reaches the pairing check and
    reused by every later :meth:`verify` and :meth:`verify_many` call on
    this instance; a one-shot verifier pays for them once, which costs
    what walking those three points live would.
    """

    verifying_key: VerifyingKey
    #: Accepted and never read: ``benchmarks/e2e/workloads.py`` still passes
    #: ``prepare=True`` (ROADMAP, Housekeeping, says when this goes).
    prepare: bool = field(default=True, repr=False, compare=False)
    _prepared: Optional[PreparedVerifyingKey] = field(
        default=None, repr=False, init=False, compare=False
    )

    def _precheck(
        self, model: Sequential, claim: OwnershipClaim
    ) -> Union[VerificationReport, Tuple[List[int], Proof]]:
        """Everything short of the pairing equation, cheapest check first.

        Returns the rejecting report, or ``(instance, proof)`` with the
        instance rebuilt from the verifier's own model, the proof decoded
        (once) and point-validated, and ``self._prepared`` ready.
        """
        digest = model_digest(model, claim.embed_layer)
        if digest != claim.model_sha256:
            return VerificationReport(
                accepted=False,
                reason="claim was made for a different model "
                f"(digest {claim.model_sha256[:16]}... != {digest[:16]}...)",
            )
        config = CircuitConfig(
            theta=claim.theta,
            fixed_point=FixedPointFormat(
                frac_bits=claim.frac_bits, total_bits=claim.total_bits
            ),
            sigmoid_degree=claim.sigmoid_degree,
        )
        instance = public_inputs_for(
            model, claim.theta, claim.wm_bits, claim.embed_layer, config
        )
        if len(instance) != self.verifying_key.num_public_inputs:
            return VerificationReport(
                accepted=False,
                reason="verification key does not match this circuit shape "
                f"({self.verifying_key.num_public_inputs} public inputs "
                f"expected, instance has {len(instance)})",
            )
        try:
            proof = claim.proof
            proof.validate_points()
        except (MalformedProof, ValueError) as exc:
            return VerificationReport(
                accepted=False,
                reason=f"malformed proof: {exc}",
                malformed=True,
            )
        if self._prepared is None:
            try:
                self._prepared = prepare_verifying_key(self.verifying_key)
            except ValueError as exc:
                return VerificationReport(accepted=False, reason=str(exc))
        return instance, proof

    def _pairing_report(
        self, claim: OwnershipClaim, instance: Sequence[int], proof: Proof
    ) -> VerificationReport:
        """The single-proof equation on a prechecked claim, as a report."""
        if not verify_prepared(self._prepared, instance, proof):
            return VerificationReport(
                accepted=False, reason="pairing check failed: proof is invalid"
            )
        return VerificationReport(
            accepted=True,
            reason="watermark extracts from the model within the BER "
            f"threshold theta={claim.theta}",
        )

    def verify(self, model: Sequential, claim: OwnershipClaim) -> VerificationReport:
        """Check an ownership claim against the model the verifier holds."""
        checked = self._precheck(model, claim)
        if isinstance(checked, VerificationReport):
            return checked
        return self._pairing_report(claim, *checked)

    def verify_many(
        self,
        cases: Sequence[Tuple[Sequential, OwnershipClaim]],
        *,
        seed: Optional[int] = None,
    ) -> List[VerificationReport]:
        """Audit many claims sharing this circuit shape in one batch.

        A marketplace scenario: many models of one architecture, one
        verification key, many ownership claims.  Prechecks (digest,
        instance shape, point validity) run per claim, exactly as in
        :meth:`verify` -- malformed proof points are flagged as such, not
        batched; the survivors then share one RLC multi-pairing
        (:func:`~repro.snark.groth16.verify_batch_prepared`).  If the batch
        fails, each survivor's own equation is checked to attribute blame
        -- the standard batch-with-fallback pattern.
        """
        checked = [self._precheck(model, claim) for model, claim in cases]
        batch = [c for c in checked if not isinstance(c, VerificationReport)]
        batch_ok = bool(batch) and verify_batch_prepared(
            self._prepared, batch, seed=seed
        )
        reports = []
        for (_, claim), c in zip(cases, checked):
            if isinstance(c, VerificationReport):
                reports.append(c)
            elif batch_ok:
                reports.append(VerificationReport(
                    accepted=True, reason="accepted (batched pairing check)"
                ))
            else:
                reports.append(self._pairing_report(claim, *c))
        return reports
