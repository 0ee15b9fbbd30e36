"""R1CS -> Quadratic Arithmetic Program reduction.

Groth16 (the paper's proof system) works over a QAP: per-variable
polynomials ``u_j, v_j, w_j`` interpolated over an evaluation domain H (one
point per constraint), such that the witness satisfies the R1CS iff

    u(X) * v(X) - w(X)  =  h(X) * t(X)

for some quotient ``h``, where ``t(X) = X^|H| - 1`` vanishes on H and
``u = sum_j z_j u_j`` etc.

Two operations are needed:

* at *setup*: evaluate every ``u_j, v_j, w_j`` at the toxic-waste point tau
  (:func:`evaluate_qap_at`), done in O(nnz + |H|) via the closed-form
  Lagrange-basis-at-a-point formula and batch inversion;
* at *proving*: compute the coefficients of ``h`` (:func:`compute_h`) via
  NTT on H and pointwise division on a coset (where ``t`` is a non-zero
  constant).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..field.ntt import EvaluationDomain, get_domain, next_power_of_two
from ..field.prime import BN254_R as R
from ..field.prime import batch_inverse_ints
from .r1cs import ConstraintSystem

__all__ = ["QapEvaluation", "evaluate_qap_at", "compute_h", "qap_domain"]


class QapEvaluation:
    """Per-variable QAP polynomial evaluations at a fixed point tau."""

    __slots__ = ("u", "v", "w", "domain_size", "t_at_tau")

    def __init__(
        self,
        u: List[int],
        v: List[int],
        w: List[int],
        domain_size: int,
        t_at_tau: int,
    ):
        self.u = u
        self.v = v
        self.w = w
        self.domain_size = domain_size
        self.t_at_tau = t_at_tau


def qap_domain(cs: ConstraintSystem) -> EvaluationDomain:
    """The evaluation domain for a constraint system.

    One extra slot beyond the constraint count guards the degenerate case of
    a constraint count that is exactly a power of two with h of full degree.
    Served from the process-wide registry, so repeated proofs for circuits
    of one size share the precomputed twiddle and coset-power tables.
    """
    return get_domain(next_power_of_two(max(cs.num_constraints, 2)))


def _lagrange_basis_at(domain: EvaluationDomain, tau: int) -> List[int]:
    """Evaluate all Lagrange basis polynomials L_k at ``tau``.

    Closed form over a multiplicative subgroup:
    ``L_k(tau) = omega^k * (tau^n - 1) / (n * (tau - omega^k))``.
    Falls back to the degenerate case tau in H (one-hot vector).
    """
    n = domain.size
    t_at_tau = domain.vanishing_at(tau)
    points = domain.elements()
    if t_at_tau == 0:
        return [1 if tau % R == pt else 0 for pt in points]
    inv_diffs = batch_inverse_ints([(tau - pt) % R for pt in points], R)
    scale = t_at_tau * pow(n, -1, R) % R
    return [points[k] * scale % R * inv_diffs[k] % R for k in range(n)]


def evaluate_qap_at(cs: ConstraintSystem, tau: int) -> QapEvaluation:
    """Evaluate u_j(tau), v_j(tau), w_j(tau) for every variable j."""
    domain = qap_domain(cs)
    lagrange = _lagrange_basis_at(domain, tau)
    m = cs.num_variables
    u = [0] * m
    v = [0] * m
    w = [0] * m
    for k, (a, b, c) in enumerate(cs.constraints):
        lk = lagrange[k]
        if lk == 0:
            continue
        for j, coeff in a.terms.items():
            u[j] = (u[j] + coeff * lk) % R
        for j, coeff in b.terms.items():
            v[j] = (v[j] + coeff * lk) % R
        for j, coeff in c.terms.items():
            w[j] = (w[j] + coeff * lk) % R
    return QapEvaluation(u, v, w, domain.size, domain.vanishing_at(tau))


def _assignment_evaluations(
    cs: ConstraintSystem, assignment: Sequence[int], domain: EvaluationDomain
) -> Tuple[List[int], List[int], List[int]]:
    """Evaluate u(X), v(X), w(X) (witness-combined) on the domain H.

    On H, the k-th evaluation of u is simply <A_k, z> (and zero for padding
    rows beyond the constraint count).
    """
    ua = [0] * domain.size
    va = [0] * domain.size
    wa = [0] * domain.size
    for k, (a, b, c) in enumerate(cs.constraints):
        ua[k] = a.evaluate(assignment)
        va[k] = b.evaluate(assignment)
        wa[k] = c.evaluate(assignment)
    return ua, va, wa


def compute_h(cs: ConstraintSystem, assignment: Sequence[int]) -> List[int]:
    """Coefficients of the quotient ``h(X) = (u v - w) / t``.

    Interpolates the witness-combined polynomials from their values on H,
    re-evaluates ``u`` and ``v`` on the coset gH where ``t`` is the
    non-zero constant ``g^|H| - 1``, and interpolates their product back.
    ``w`` never visits the coset: interpolation is linear, so its
    coefficients are subtracted from the product's directly and the
    division by the constant follows.  Exact because ``deg h <= |H| - 2``.
    """
    domain = qap_domain(cs)
    ua, va, wa = _assignment_evaluations(cs, assignment, domain)
    u_coset = domain.coset_fft(domain.ifft(ua))
    v_coset = domain.coset_fft(domain.ifft(va))
    w_coeffs = domain.ifft(wa)
    uv_coeffs = domain.coset_ifft([u * v % R for u, v in zip(u_coset, v_coset)])
    t_inv = pow(domain.vanishing_on_coset(), -1, R)
    # deg h <= |H| - 2, so the top coefficient must vanish; a non-zero value
    # means the assignment does not satisfy the R1CS.
    return [(uv - w) * t_inv % R for uv, w in zip(uv_coeffs, w_coeffs)]
