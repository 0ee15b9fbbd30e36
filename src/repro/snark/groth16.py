"""The Groth16 zkSNARK: Setup / Prove / Verify.

The proof system of the paper (Section II-B): quadratic-arithmetic-program
based, pairing-based, with constant-size proofs (2 G1 + 1 G2) and
verification cost independent of circuit size -- the two properties all of
ZKROWNN's "fast public verification" claims rest on.

Follows Groth's EUROCRYPT 2016 construction exactly:

* ``Setup(C)`` samples toxic waste ``(alpha, beta, gamma, delta, tau)``,
  evaluates the QAP at tau and emits (PK, VK).  The sampled scalars must be
  destroyed; :class:`repro.zkrownn.protocol.TrustedSetupParty` models the
  ceremony.
* ``Prove(PK, C, z)`` commits to the witness with two random blinders
  (r, s), making proofs perfectly zero-knowledge.
* ``Verify(VK, x, proof)`` checks one pairing-product equation via a single
  multi-Miller loop.  The equation is written once per shape --
  :func:`verify_prepared` for one proof, :func:`verify_batch_prepared` for
  a random linear combination of many -- and always against a
  :class:`PreparedVerifyingKey`; :func:`verify`, :func:`verify_batch` and
  :func:`verify_batch_grouped` prepare a plain key and delegate.
"""

from __future__ import annotations

import secrets
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..curves.bn254 import R
from ..curves.g1 import (
    G1Point,
    JacobianPoint,
    jac_add,
    jac_to_affine_many,
)
from ..curves.g2 import (
    G2Point,
    g2_jac_double,
    g2_jac_to_affine_many,
    g2_to_jacobian,
)
from ..curves.msm import (
    FixedBaseTableG1,
    FixedBaseTableG2,
    msm_g1,
    msm_g1_multi,
    msm_g2,
)
from ..curves.pairing import (
    G2Precomputed,
    final_exponentiation,
    multi_miller_loop,
    precompute_g2,
)
from .errors import UnsatisfiedWitness
from .keys import Proof, ProvingKey, VerifyingKey
from .qap import evaluate_qap_at, h_from_rows
from .r1cs import ConstraintSystem

__all__ = [
    "BatchGroupResult",
    "Groth16Keypair",
    "PreparedProvingKey",
    "PreparedVerifyingKey",
    "SimulationTrapdoor",
    "setup",
    "setup_with_trapdoor",
    "simulate_proof",
    "prepare_proving_key",
    "prepare_verifying_key",
    "prove",
    "prove_prepared",
    "verify",
    "verify_batch",
    "verify_batch_grouped",
    "verify_batch_prepared",
    "verify_prepared",
    "verify_with_precheck",
]


@dataclass(frozen=True)
class Groth16Keypair:
    proving_key: ProvingKey
    verifying_key: VerifyingKey


@dataclass(frozen=True)
class SimulationTrapdoor:
    """The toxic waste of a Groth16 setup.

    Whoever holds this can forge proofs for arbitrary statements --
    exactly why the ceremony must destroy it.  It is exposed *only* to
    implement the zero-knowledge simulator: the existence of
    :func:`simulate_proof` (valid proofs generated without any witness)
    is what certifies that honest proofs leak nothing about the witness.
    Tests use it; the protocol layer never touches it.
    """

    alpha: int
    beta: int
    gamma: int
    delta: int
    tau: int


_GENERATOR_TABLES: List = []


def _generator_tables() -> Tuple[FixedBaseTableG1, FixedBaseTableG2]:
    """Lazily built, process-wide fixed-base tables for the two generators.

    Both tables depend only on curve constants, so sharing them across
    setups is sound.  Building them is Python work (~0.14 s, once per
    process); each is packed into the compiled comb's layout on its first
    ``mul_many`` and kept, so later setups pay neither.
    """
    if not _GENERATOR_TABLES:
        g1 = G1Point.generator()
        _GENERATOR_TABLES.append(FixedBaseTableG1((g1.x, g1.y)))
        _GENERATOR_TABLES.append(FixedBaseTableG2(G2Point.generator()))
    return _GENERATOR_TABLES[0], _GENERATOR_TABLES[1]


class _Randomness:
    """Scalar sampler; deterministic when seeded (tests, reproducible runs)."""

    def __init__(self, seed: Optional[int] = None):
        if seed is None:
            self._next = lambda: secrets.randbelow(R - 1) + 1
        else:
            import random

            rng = random.Random(seed)
            self._next = lambda: rng.randrange(1, R)

    def scalar(self) -> int:
        return self._next()


def setup(cs: ConstraintSystem, *, seed: Optional[int] = None) -> Groth16Keypair:
    """Run the (simulated) trusted setup for a circuit.

    ``seed`` makes the toxic waste deterministic -- ONLY for tests and
    benchmarks; a real ceremony must use fresh entropy and destroy it.
    """
    keypair, _ = setup_with_trapdoor(cs, seed=seed)
    return keypair


def _g1_points_from_jacs(jacs: Sequence[JacobianPoint]) -> List[G1Point]:
    """Normalize many Jacobian points to :class:`G1Point` with one inversion."""
    return [
        G1Point.infinity() if aff is None else G1Point(aff[0], aff[1])
        for aff in jac_to_affine_many(jacs)
    ]


def setup_with_trapdoor(
    cs: ConstraintSystem, *, seed: Optional[int] = None
) -> Tuple[Groth16Keypair, SimulationTrapdoor]:
    """Setup that also returns the toxic waste (for the ZK simulator)."""
    rng = _Randomness(seed)
    alpha, beta, gamma, delta, tau = (rng.scalar() for _ in range(5))
    gamma_inv = pow(gamma, -1, R)
    delta_inv = pow(delta, -1, R)

    qap = evaluate_qap_at(cs, tau)
    m = cs.num_variables
    ell = cs.num_public

    table_g1, table_g2 = _generator_tables()

    # k_j = (beta*u_j + alpha*v_j + w_j) scaled by 1/gamma (public, in VK)
    # or 1/delta (private, in PK).
    def k_scalar(j: int) -> int:
        return (beta * qap.u[j] + alpha * qap.v[j] + qap.w[j]) % R

    ic_scalars = [k_scalar(j) * gamma_inv % R for j in range(ell + 1)]
    k_scalars = [k_scalar(j) * delta_inv % R for j in range(ell + 1, m)]

    # h_query[i] = [tau^i * t(tau) / delta]_1 for i < |H| - 1.
    h_scalars = []
    power = qap.t_at_tau * delta_inv % R
    for _ in range(qap.domain_size - 1):
        h_scalars.append(power)
        power = power * tau % R

    # Every G1 key point comes out of ONE fixed-base comb pass (already
    # normalized), every G2 key point out of the other.
    groups = [
        qap.u[:m], qap.v[:m], ic_scalars, k_scalars, h_scalars,
        [alpha, beta, delta],
    ]
    points = (
        G1Point.infinity() if z == 0 else G1Point(x, y)
        for x, y, z in table_g1.mul_many([s for g in groups for s in g])
    )
    a_query, b_g1_query, ic, k_query, h_query, (alpha_g1, beta_g1, delta_g1) = (
        [next(points) for _ in g] for g in groups
    )
    *b_g2_query, beta_g2, delta_g2, gamma_g2 = table_g2.mul_many(
        qap.v[:m] + [beta, delta, gamma]
    )

    proving_key = ProvingKey(
        alpha_g1=alpha_g1,
        beta_g1=beta_g1,
        beta_g2=beta_g2,
        delta_g1=delta_g1,
        delta_g2=delta_g2,
        a_query=a_query,
        b_g1_query=b_g1_query,
        b_g2_query=b_g2_query,
        k_query=k_query,
        h_query=h_query,
        num_public=ell,
    )
    verifying_key = VerifyingKey(
        alpha_g1=proving_key.alpha_g1,
        beta_g2=proving_key.beta_g2,
        gamma_g2=gamma_g2,
        delta_g2=proving_key.delta_g2,
        ic=ic,
    )
    trapdoor = SimulationTrapdoor(alpha, beta, gamma, delta, tau)
    return Groth16Keypair(proving_key, verifying_key), trapdoor


def simulate_proof(
    trapdoor: SimulationTrapdoor,
    cs: ConstraintSystem,
    public_inputs: Sequence[int],
    *,
    seed: Optional[int] = None,
) -> Proof:
    """Forge a verifying proof for an instance WITHOUT any witness.

    The standard Groth16 zero-knowledge simulator: sample random a, b and
    solve the verification equation for C using the trapdoor::

        C = (a*b - alpha*beta - sum_public z_j (beta u_j + alpha v_j + w_j)) / delta

    Simulated proofs are distributed identically to honest ones, which is
    the formal content of "the proof reveals nothing about the witness".
    """
    if len(public_inputs) != cs.num_public:
        raise ValueError(
            f"instance has {len(public_inputs)} values, circuit expects "
            f"{cs.num_public}"
        )
    rng = _Randomness(seed)
    a, b = rng.scalar(), rng.scalar()
    qap = evaluate_qap_at(cs, trapdoor.tau)
    z = [1] + [v % R for v in public_inputs]
    k_public = 0
    for j, z_j in enumerate(z):
        k_j = (
            trapdoor.beta * qap.u[j]
            + trapdoor.alpha * qap.v[j]
            + qap.w[j]
        ) % R
        k_public = (k_public + z_j * k_j) % R
    c = (
        (a * b - trapdoor.alpha * trapdoor.beta - k_public)
        * pow(trapdoor.delta, -1, R)
    ) % R
    g1 = G1Point.generator()
    g2 = G2Point.generator()
    return Proof(g1 * a, g2 * b, g1 * c)


def _g1_affine(p: G1Point) -> Optional[Tuple[int, int]]:
    return None if p.is_infinity() else (p.x, p.y)


#: Bits per limb of the blinding scalar ``s`` in the G2 MSM.  The MSM's
#: window count follows its largest scalar, and witness values are short
#: (32-36 bits on the MLP shape), so ``s`` enters as eight 32-bit limbs
#: against ``2^(32 k) * delta_2`` rather than as one 254-bit scalar that
#: would set the width of every window.
_BLIND_LIMB_BITS = 32
_BLIND_LIMBS = 8  # 8 * 32 >= 254


def _limbs(s: int) -> List[int]:
    mask = (1 << _BLIND_LIMB_BITS) - 1
    return [(s >> (_BLIND_LIMB_BITS * k)) & mask for k in range(_BLIND_LIMBS)]


def _delta_g2_limbs(delta_g2: G2Point) -> List[G2Point]:
    """``2^(32 k) * delta_2`` for every limb ``k`` of a blinding scalar:
    one doubling chain and one batch normalization."""
    chain = [g2_to_jacobian(delta_g2)]
    for _ in range(_BLIND_LIMBS - 1):
        pt = chain[-1]
        for _ in range(_BLIND_LIMB_BITS):
            pt = g2_jac_double(pt)
        chain.append(pt)
    return [
        G2Point.infinity() if aff is None else G2Point(*aff)
        for aff in g2_jac_to_affine_many(chain)
    ]


@dataclass(frozen=True)
class PreparedProvingKey:
    """A proving key with its MSM bases pre-converted to affine tuples.

    ``prove`` spends a noticeable slice of each call flattening the query
    vectors from :class:`G1Point` objects into the ``(x, y)`` tuples the
    Pippenger MSM consumes.  A prover issuing many proofs under one key
    (the amortized ZKROWNN lifecycle) does the conversion once; the
    :class:`~repro.engine.engine.ProvingEngine` caches one of these per
    structure digest.  ``delta_g2_limbs`` are the bases of the G2
    blinding term's limbs (see :data:`_BLIND_LIMB_BITS`).
    """

    pk: ProvingKey
    points_a: List[Optional[Tuple[int, int]]]
    points_b1: List[Optional[Tuple[int, int]]]
    points_k: List[Optional[Tuple[int, int]]]
    points_h: List[Optional[Tuple[int, int]]]
    delta_g2_limbs: List[G2Point]


def prepare_proving_key(pk: ProvingKey) -> PreparedProvingKey:
    return PreparedProvingKey(
        pk=pk,
        points_a=[_g1_affine(p) for p in pk.a_query],
        points_b1=[_g1_affine(p) for p in pk.b_g1_query],
        points_k=[_g1_affine(p) for p in pk.k_query],
        points_h=[_g1_affine(p) for p in pk.h_query],
        delta_g2_limbs=_delta_g2_limbs(pk.delta_g2),
    )


def prove(
    pk: ProvingKey,
    cs: ConstraintSystem,
    assignment: Sequence[int],
    *,
    seed: Optional[int] = None,
) -> Proof:
    """Generate a proof for a full variable assignment.

    The assignment must satisfy ``cs`` (checked up front -- a SNARK proof
    for an unsatisfied system would verify as garbage otherwise).
    """
    return prove_prepared(prepare_proving_key(pk), cs, assignment, seed=seed)


def prove_prepared(
    ppk: PreparedProvingKey,
    cs: ConstraintSystem,
    assignment: Sequence[int],
    *,
    seed: Optional[int] = None,
    backend=None,
) -> Proof:
    """`prove` against a prepared key (MSM bases already affine), on the
    calling thread.

    ``backend`` is accepted and never read: ``benchmarks/e2e/layers.py``
    still passes it (ROADMAP, Housekeeping, says when this goes).
    """
    pk = ppk.pk
    # One evaluation of every constraint's rows: checked here, then
    # interpolated by the quotient.
    rows = cs.satisfied_rows(assignment)
    if len(pk.a_query) != cs.num_variables:
        raise UnsatisfiedWitness(
            "proving key was generated for a different circuit "
            f"({len(pk.a_query)} variables vs {cs.num_variables})"
        )
    rng = _Randomness(seed)
    r, s = rng.scalar(), rng.scalar()

    # Canonical witness residues for the A/B1/K and G2 MSMs, which fold
    # each value's sign into its point (a small negative stays short).
    z = [v % R for v in assignment]

    # The A and B1 commitments multiply different bases by the SAME witness
    # vector; the shared-scalar multi-MSM decomposes and recodes z once.
    a_wit, b1_wit = jac_to_affine_many(
        msm_g1_multi([ppk.points_a, ppk.points_b1], z)
    )
    delta = _g1_affine(pk.delta_g1)

    # A = alpha + sum z_j u_j(tau) + r*delta            (in G1)
    # B = beta + sum z_j v_j(tau) + s*delta             (in G2, mirrored in G1)
    # Each blinding term is one more (point, scalar) pair of an MSM.
    a, b1 = jac_to_affine_many([
        msm_g1([a_wit, _g1_affine(pk.alpha_g1), delta], [1, 1, r]),
        msm_g1([b1_wit, _g1_affine(pk.beta_g1), delta], [1, 1, s]),
    ])
    # s*delta_2 as eight 32-bit limbs, so s does not widen the windows.
    proof_b2 = msm_g2(
        [*pk.b_g2_query, *ppk.delta_g2_limbs], [*z, *_limbs(s)]
    ) + pk.beta_g2

    # C = sum_private z_j K_j + sum h_i H_i + s*A + r*B1 - r*s*delta
    h_coeffs = h_from_rows(cs, *rows)
    private_z = z[pk.num_public + 1 :]
    c_acc = msm_g1(ppk.points_k, private_z)
    c_acc = jac_add(c_acc, msm_g1(ppk.points_h, h_coeffs[: len(pk.h_query)]))
    c_acc = jac_add(c_acc, msm_g1([a, b1, delta], [s, r, (-r * s) % R]))

    proof_a = G1Point.infinity() if a is None else G1Point(a[0], a[1])
    (proof_c,) = _g1_points_from_jacs([c_acc])
    return Proof(proof_a, proof_b2, proof_c)


def verify(vk: VerifyingKey, public_inputs: Sequence[int], proof: Proof) -> bool:
    """Check the Groth16 pairing equation.

    ``e(A, B) = e(alpha, beta) * e(IC(x), gamma) * e(C, delta)`` --
    :func:`verify_prepared` against a key prepared for this one call (the
    preparation costs what the three key-side Miller loops would).  Raises
    ``ValueError`` for a degenerate key.
    """
    return verify_prepared(prepare_verifying_key(vk), public_inputs, proof)


@dataclass(frozen=True)
class PreparedVerifyingKey:
    """A verification key with its fixed G2 points precomputed.

    Three of the four pairings in the Groth16 check use key-fixed G2
    points (beta, gamma, delta); a verifier expecting many proofs
    precomputes their Miller-loop coefficients once and roughly halves
    per-proof pairing time.  Mirrors libsnark's processed key.
    """

    vk: VerifyingKey
    beta_pre: G2Precomputed
    gamma_pre: G2Precomputed
    delta_pre: G2Precomputed


def prepare_verifying_key(vk: VerifyingKey) -> PreparedVerifyingKey:
    """Precompute the key's three G2 line tables.

    Every verification goes through here, so this is also where a
    degenerate key (an identity alpha/beta/gamma/delta, whose pairing
    factor would silently drop out of the equation) raises ``ValueError``.
    """
    vk.check_nondegenerate()
    return PreparedVerifyingKey(
        vk=vk,
        beta_pre=precompute_g2(vk.beta_g2),
        gamma_pre=precompute_g2(vk.gamma_g2),
        delta_pre=precompute_g2(vk.delta_g2),
    )


def verify_prepared(
    pvk: PreparedVerifyingKey, public_inputs: Sequence[int], proof: Proof
) -> bool:
    """Groth16 verification against a prepared key.

    ``e(A, B) = e(alpha, beta) * e(IC(x), gamma) * e(C, delta)`` rearranged
    into a single product check: one live Miller lane (A, B) plus three
    precomputed ones on one squaring chain, one final exponentiation.
    An instance of the wrong length, or with a value outside ``[0, R)``,
    is rejected: reducing it mod ``R`` would let ``x + R`` stand in for
    ``x``.
    """
    vk = pvk.vk
    if not _canonical_instance(vk, public_inputs):
        return False
    ic_points = [_g1_affine(p) for p in vk.ic]
    scalars = [1, *public_inputs]
    vk_x = G1Point.from_jacobian(msm_g1(ic_points, scalars))
    acc = multi_miller_loop(
        [
            (proof.a, proof.b),
            (-vk_x, pvk.gamma_pre),
            (-proof.c, pvk.delta_pre),
            (-vk.alpha_g1, pvk.beta_pre),
        ]
    )
    return final_exponentiation(acc).is_one()


def _canonical_instance(vk: VerifyingKey, public_inputs: Sequence[int]) -> bool:
    """The instance has the key's length and every value is in ``[0, R)``."""
    return len(public_inputs) == vk.num_public_inputs and all(
        0 <= x < R for x in public_inputs
    )


#: Bit width of the batch-verification RLC exponents.  128-bit rhos make
#: the soundness error 2^-128 (instead of ~n/r with full-width scalars)
#: while halving the cost of the per-proof ``rho * A_i`` scalar muls.
_BATCH_RHO_BITS = 128


def _batch_rho_sampler(seed: Optional[int]):
    """Nonzero 128-bit rho exponents for the batch RLC.

    ``seed=None`` draws from :mod:`secrets` -- the safe default, since an
    adversary who predicts the rhos can craft invalid proofs whose errors
    cancel in the combination.  Seeding keeps tests deterministic.
    """
    bound = 1 << _BATCH_RHO_BITS
    if seed is None:
        return lambda: secrets.randbelow(bound - 1) + 1
    import random

    rng = random.Random(seed)
    return lambda: rng.randrange(1, bound)


def verify_batch(
    vk: VerifyingKey,
    batch: Sequence[Tuple[Sequence[int], Proof]],
    *,
    seed: Optional[int] = None,
) -> bool:
    """Verify many proofs under one key with a single multi-pairing.

    Takes a random linear combination of the verification equations:
    ``prod_i e(rho_i A_i, B_i) = e(alpha, beta)^(sum rho_i)
    * e(sum rho_i IC(x_i), gamma) * e(sum rho_i C_i, delta)``.
    A batch of n proofs costs n + 3 Miller loops sharing ONE squaring
    chain (:func:`~repro.curves.pairing.multi_miller_loop`) and one final
    exponentiation, instead of 4n Miller loops and n final exponentiations
    for n single verifies.

    Soundness: an invalid proof slips through only if the random rhos land
    on a cancellation, probability ``2^-128`` per batch with the 128-bit
    rhos used here (``~n/r`` would need full-width rhos; 128 bits already
    exceeds the 100-bit security of BN254 itself).  ``seed=None`` (the
    default) draws the rhos from :mod:`secrets`; seeding is for tests and
    reproducible runs ONLY -- an adversary who knows the rhos in advance
    can defeat the combination.
    """
    return verify_batch_prepared(prepare_verifying_key(vk), batch, seed=seed)


def verify_batch_prepared(
    pvk: PreparedVerifyingKey,
    batch: Sequence[Tuple[Sequence[int], Proof]],
    *,
    seed: Optional[int] = None,
) -> bool:
    """:func:`verify_batch` against a prepared key.

    The three key-fixed pairings consume the prepared key's captured line
    coefficients (no G2 arithmetic), and all n + 3 lanes share one squaring
    chain.  All instances share the IC points, so their contributions fold
    into one MSM with combined scalars ``sum_i rho_i * z_i[j]``; likewise
    the per-proof ``rho_i * C_i`` scalar muls fold into a single MSM over
    the C points.  An instance of the wrong length or with a value outside
    ``[0, R)`` rejects the whole batch.

    Same soundness bound and seeding rules as :func:`verify_batch`.
    """
    if not batch:
        return True
    vk = pvk.vk
    next_rho = _batch_rho_sampler(seed)
    pairs: List[Tuple[G1Point, object]] = []
    rho_total = 0
    combined_scalars = [0] * len(vk.ic)
    c_points: List[Optional[Tuple[int, int]]] = []
    c_scalars: List[int] = []
    for public_inputs, proof in batch:
        if not _canonical_instance(vk, public_inputs):
            return False
        rho = next_rho()
        rho_total = (rho_total + rho) % R
        pairs.append((proof.a * rho, proof.b))
        combined_scalars[0] = (combined_scalars[0] + rho) % R
        for j, x in enumerate(public_inputs, start=1):
            combined_scalars[j] = (combined_scalars[j] + rho * x) % R
        c_points.append(_g1_affine(proof.c))
        c_scalars.append(rho)
    vkx_acc = msm_g1([_g1_affine(p) for p in vk.ic], combined_scalars)
    c_acc = msm_g1(c_points, c_scalars)
    pairs += [
        (-(vk.alpha_g1 * rho_total), pvk.beta_pre),
        (-G1Point.from_jacobian(vkx_acc), pvk.gamma_pre),
        (-G1Point.from_jacobian(c_acc), pvk.delta_pre),
    ]
    return final_exponentiation(multi_miller_loop(pairs)).is_one()


@dataclass(frozen=True)
class BatchGroupResult:
    """Verdict for one same-VK bucket of :func:`verify_batch_grouped`."""

    vk_digest: str
    indices: Tuple[int, ...]
    accepted: bool

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.accepted


def verify_batch_grouped(
    items: Sequence[Tuple[object, Sequence[int], Proof]],
    *,
    seed: Optional[int] = None,
) -> List[BatchGroupResult]:
    """Batch-verify ``(vk, public_inputs, proof)`` triples across circuits.

    The registry-audit shape: claims of many circuit shapes arrive mixed;
    bucketing by verifying-key digest (SHA-256 of the canonical key bytes)
    yields one batched RLC check per group, so n claims over g shapes cost
    g multi-pairings instead of n.  Each ``vk`` may be a
    :class:`~repro.snark.keys.VerifyingKey` (prepared here, once per group)
    or a :class:`PreparedVerifyingKey`.
    A group's verdict covers all its members -- attribute blame by
    re-verifying the members of a rejected group individually.

    With a ``seed``, group ``k`` (in first-appearance order) uses
    ``seed + k`` so every group still draws distinct deterministic rhos.
    """
    import hashlib

    groups: "OrderedDict[str, Tuple[object, List[int], List[Tuple[Sequence[int], Proof]]]]" = (
        OrderedDict()
    )
    for i, (vk, public_inputs, proof) in enumerate(items):
        plain = vk.vk if isinstance(vk, PreparedVerifyingKey) else vk
        digest = hashlib.sha256(plain.to_bytes()).hexdigest()
        if digest not in groups:
            groups[digest] = (vk, [], [])
        groups[digest][1].append(i)
        groups[digest][2].append((public_inputs, proof))
    results: List[BatchGroupResult] = []
    for k, (digest, (vk, indices, batch)) in enumerate(groups.items()):
        pvk = vk if isinstance(vk, PreparedVerifyingKey) else prepare_verifying_key(vk)
        ok = verify_batch_prepared(
            pvk, batch, seed=None if seed is None else seed + k
        )
        results.append(BatchGroupResult(digest, tuple(indices), ok))
    return results


def verify_with_precheck(
    vk: VerifyingKey, public_inputs: Sequence[int], proof: Proof
) -> bool:
    """Verification with explicit point validation (for untrusted proofs).

    Raises :class:`MalformedProof` on invalid points rather than silently
    failing the pairing check, to distinguish garbage from a false claim.
    """
    proof.validate_points()
    return verify(vk, public_inputs, proof)
