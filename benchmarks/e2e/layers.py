"""Per-layer cost, measured from outside.

The traced run re-runs one operation's work through the public kernels
of each layer (``field`` -> ``curves`` -> ``snark``), one span per call,
next to a span around the black-box call the untraced run times.  The
ratio of the two is the coverage: unattributed time is itself an error.

Each function mirrors the order of calls in ``repro.snark.groth16``
(``setup_with_trapdoor``, ``prove_prepared``, ``verify_prepared``).  When
a later change restructures one of those, coverage leaves its band and
this file -- in a change of its own -- is what gets updated.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.curves.bn254 import R
from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point
from repro.curves.msm import (
    FixedBaseTableG1,
    FixedBaseTableG2,
    msm_g1,
    msm_g1_multi,
    msm_g2,
)
from repro.curves.pairing import final_exponentiation, multi_miller_loop
from repro.engine.compiled import resynthesize
from repro.field.backend import get_field_ops
from repro.snark.groth16 import prove_prepared, verify_prepared
from repro.snark.keys import Proof
from repro.snark.qap import compute_h, evaluate_qap_at, qap_domain
from repro.zkrownn import model_digest, public_inputs_for

from harness import Run

#: Kernel spans that add up to one ``snark.prove_prepared`` call.
PROVE_KERNELS = (
    "snark.check_satisfied",
    "field.wrap_witness",
    "curves.msm_g1_witness",
    "curves.msm_g2",
    "snark.compute_h",
    "curves.msm_g1_h",
)

#: Kernel spans that add up to one prepared ``OwnershipVerifier.verify``
#: call, with how often that call runs each (it decodes the proof twice).
VERIFY_KERNELS = {
    "zkrownn.instance": 1,
    "curves.decode": 2,
    "snark.validate_points": 1,
    "curves.msm_g1_ic": 1,
    "curves.miller_loop": 1,
    "curves.final_exp": 1,
}


def prove_layers(run: Run, op: int, compiled, keypair, prepared_pk,
                 synthesizer, blind_seed: int, backend,
                 expected_proof: bytes) -> None:
    """One claim's prover again, kernel by kernel."""
    cs = compiled.cs
    pk = keypair.proving_key
    with run.span("prove.layers", op):
        with run.span("circuit.resynth", op):
            assignment = resynthesize(compiled, synthesizer).assignment
        with run.span("snark.prove_prepared", op):
            proof = prove_prepared(prepared_pk, cs, assignment,
                                   seed=blind_seed, backend=backend)
        run.expect(proof.to_bytes() == expected_proof,
                   f"op {op}: re-proved claim is not byte-identical")
        with run.span("snark.check_satisfied", op):
            cs.check_satisfied(assignment)
        with run.span("field.wrap_witness", op):
            z = get_field_ops(R).wrap_many(assignment)
        with run.span("curves.msm_g1_witness", op):
            msm_g1_multi([prepared_pk.points_a, prepared_pk.points_b1], z)
            msm_g1(prepared_pk.points_k, z[pk.num_public + 1:])
        with run.span("curves.msm_g2", op):
            msm_g2(pk.b_g2_query, z)
        with run.span("snark.compute_h", op):
            h = compute_h(cs, z)
        with run.span("curves.msm_g1_h", op):
            msm_g1(prepared_pk.points_h, h[: len(pk.h_query)])
        # The seven transforms inside compute_h, on their own.
        domain = qap_domain(cs)
        with run.span("field.ntt", op):
            for _ in range(3):
                domain.ifft(h)
            for _ in range(3):
                domain.coset_fft(h)
            domain.coset_ifft(h)


def h_msm(run: Run, op: int, cs, pk, assignment: Sequence[int]) -> None:
    """The H-query MSM of one proof alone (the largest prover kernel),
    for workloads that do not take the whole prover apart."""
    h = compute_h(cs, get_field_ops(R).wrap_many(assignment))
    points = [None if p.is_infinity() else (p.x, p.y) for p in pk.h_query]
    with run.span("curves.msm_g1_h", op):
        msm_g1(points, h[: len(points)])


def verify_layers(run: Run, op: int, model, claim, config, prepared_vk) -> None:
    """One prepared single verification again, kernel by kernel."""
    vk = prepared_vk.vk
    with run.span("verify.layers", op):
        with run.span("zkrownn.instance", op):
            model_digest(model, claim.embed_layer)
            instance = public_inputs_for(
                model, claim.theta, claim.wm_bits, claim.embed_layer, config
            )
        with run.span("curves.decode", op):
            proof = Proof.from_bytes(claim.proof_bytes)
        with run.span("snark.validate_points", op):
            proof.validate_points()
        with run.span("snark.verify_prepared", op):
            accepted = verify_prepared(prepared_vk, instance, proof)
        ic_points = [None if p.is_infinity() else (p.x, p.y) for p in vk.ic]
        scalars = [1] + [x % R for x in instance]
        with run.span("curves.msm_g1_ic", op):
            vk_x = G1Point.from_jacobian(msm_g1(ic_points, scalars))
        with run.span("curves.miller_loop", op):
            acc = multi_miller_loop([
                (proof.a, proof.b),
                (-vk_x, prepared_vk.gamma_pre),
                (-proof.c, prepared_vk.delta_pre),
                (-vk.alpha_g1, prepared_vk.beta_pre),
            ])
        with run.span("curves.final_exp", op):
            paired = final_exponentiation(acc).is_one()
        run.expect(accepted and paired,
                   f"op {op}: kernel-by-kernel verification disagrees")


def batch_miller(run: Run, op: int, proofs: Sequence[Proof], prepared_vk) -> None:
    """The shared-squaring-chain Miller product of one batch audit:
    one live pair per proof plus the three key-fixed pairs."""
    vk = prepared_vk.vk
    pairs = [(p.a, p.b) for p in proofs] + [
        (vk.alpha_g1, prepared_vk.beta_pre),
        (vk.ic[0], prepared_vk.gamma_pre),
        (proofs[0].c, prepared_vk.delta_pre),
    ]
    with run.span("curves.multi_miller_batch", op):
        multi_miller_loop(pairs)


def setup_layers(run: Run, op: int, cs, seed: int) -> Dict[str, int]:
    """One Groth16 setup's scalar work again: QAP evaluation at a point,
    then every fixed-base multiplication the key needs, on real scalars
    (zero and small evaluations are cheap, so synthetic ones would lie).
    Returns how many non-zero scalars each group multiplied."""
    rng = random.Random(seed)
    alpha, beta, tau, inv = (rng.randrange(1, R) for _ in range(4))
    with run.span("setup.layers", op):
        with run.span("snark.qap_eval", op):
            qap = evaluate_qap_at(cs, tau)
        with run.span("curves.fixed_base_table", op):
            g1 = G1Point.generator()
            table_g1 = FixedBaseTableG1((g1.x, g1.y))
            table_g2 = FixedBaseTableG2(G2Point.generator())
        k_scalars = [
            (beta * u + alpha * v + w) * inv % R
            for u, v, w in zip(qap.u, qap.v, qap.w)
        ]
        h_scalars: List[int] = []
        power = qap.t_at_tau * inv % R
        for _ in range(qap.domain_size - 1):
            h_scalars.append(power)
            power = power * tau % R
        g1_scalars = qap.u + qap.v + k_scalars + h_scalars
        with run.span("curves.fixed_base_g1", op):
            table_g1.mul_many(g1_scalars)
        with run.span("curves.fixed_base_g2", op):
            table_g2.mul_many(qap.v)
    return {
        "g1": sum(1 for s in g1_scalars if s),
        "g2": sum(1 for s in qap.v if s),
    }
