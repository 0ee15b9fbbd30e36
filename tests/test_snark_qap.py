"""Tests for the R1CS -> QAP reduction.

The central identity: for a satisfying assignment,
``u(X) v(X) - w(X) = h(X) t(X)`` as polynomials, where u, v, w are the
witness-weighted QAP polynomials.  These tests verify it directly with the
reference Polynomial class.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.poly import Polynomial
from reference.qap import quotient_naive

from repro.field.ntt import EvaluationDomain
from repro.field.prime import BN254_R as R
from repro.snark.qap import _lagrange_basis_at, compute_h, evaluate_qap_at, qap_domain
from repro.snark.r1cs import ConstraintSystem, LinearCombination as LC


def cubic_cs():
    cs = ConstraintSystem()
    y = cs.allocate_public("y")
    x = cs.allocate_private("x")
    x2 = cs.allocate_private("x2")
    x3 = cs.allocate_private("x3")
    cs.enforce(LC.variable(x), LC.variable(x), LC.variable(x2))
    cs.enforce(LC.variable(x2), LC.variable(x), LC.variable(x3))
    cs.enforce(
        LC.variable(x3) + LC.variable(x) + LC.constant(5),
        LC.constant(1),
        LC.variable(y),
    )
    assignment = [1, 35, 3, 9, 27]
    return cs, assignment


class TestLagrangeBasis:
    def test_partition_of_unity(self):
        domain = EvaluationDomain(8)
        tau = 123456789
        basis = _lagrange_basis_at(domain, tau)
        assert sum(basis) % R == 1

    def test_matches_reference_interpolation(self):
        domain = EvaluationDomain(4)
        tau = 987654321
        basis = _lagrange_basis_at(domain, tau)
        points = domain.elements()
        for k in range(4):
            values = [1 if i == k else 0 for i in range(4)]
            reference = Polynomial.interpolate(points, values)
            assert basis[k] == reference(tau)

    def test_degenerate_tau_on_domain(self):
        domain = EvaluationDomain(4)
        tau = domain.elements()[2]
        basis = _lagrange_basis_at(domain, tau)
        assert basis == [0, 0, 1, 0]


class TestQapEvaluation:
    def test_qap_identity_at_tau(self):
        """u(tau) v(tau) - w(tau) == h(tau) t(tau) for a valid witness."""
        cs, assignment = cubic_cs()
        tau = 0xDEADBEEF
        qap = evaluate_qap_at(cs, tau)
        u = sum(z * uj for z, uj in zip(assignment, qap.u)) % R
        v = sum(z * vj for z, vj in zip(assignment, qap.v)) % R
        w = sum(z * wj for z, wj in zip(assignment, qap.w)) % R
        h_coeffs = compute_h(cs, assignment)
        h_at_tau = Polynomial(h_coeffs)(tau)
        assert (u * v - w) % R == h_at_tau * qap.t_at_tau % R

    def test_identity_fails_for_invalid_witness(self):
        cs, assignment = cubic_cs()
        bad = list(assignment)
        bad[2] = 4  # x = 4 but y still 35
        tau = 12345
        qap = evaluate_qap_at(cs, tau)
        u = sum(z * uj for z, uj in zip(bad, qap.u)) % R
        v = sum(z * vj for z, vj in zip(bad, qap.v)) % R
        w = sum(z * wj for z, wj in zip(bad, qap.w)) % R
        h_coeffs = compute_h(cs, bad)
        h_at_tau = Polynomial(h_coeffs)(tau)
        assert (u * v - w) % R != h_at_tau * qap.t_at_tau % R

    def test_domain_size_power_of_two(self):
        cs, _ = cubic_cs()
        assert qap_domain(cs).size == 4

    def test_h_degree_bound(self):
        cs, assignment = cubic_cs()
        h = compute_h(cs, assignment)
        # deg h <= |H| - 2, so top coefficient vanishes.
        assert h[-1] == 0

    def test_qap_matches_polynomial_interpolation(self):
        """Spot-check one variable's u_j(tau) against direct interpolation."""
        cs, _ = cubic_cs()
        domain = qap_domain(cs)
        tau = 55555
        qap = evaluate_qap_at(cs, tau)
        # Variable x (index 2) appears in A of constraints 0, and B of 0/1...
        target = 2
        values = []
        for k in range(domain.size):
            if k < cs.num_constraints:
                values.append(cs.constraints[k][0].terms.get(target, 0))
            else:
                values.append(0)
        reference = Polynomial.interpolate(domain.elements(), values)
        assert qap.u[target] == reference(tau)


class TestComputeHProperties:
    def test_quotient_is_exact_polynomial_division(self):
        """h from the coset trick equals the honest polynomial division."""
        cs, assignment = cubic_cs()
        domain = qap_domain(cs)
        pts = domain.elements()
        ua = [c[0].evaluate(assignment) if i < 3 else 0 for i, c in
              enumerate(cs.constraints + [None] * (domain.size - 3))][: domain.size]
        # Build u, v, w polynomials by interpolation.
        def combined(selector):
            vals = []
            for k in range(domain.size):
                if k < cs.num_constraints:
                    vals.append(cs.constraints[k][selector].evaluate(assignment))
                else:
                    vals.append(0)
            return Polynomial.interpolate(pts, vals)

        u, v, w = combined(0), combined(1), combined(2)
        t = Polynomial([-1] + [0] * (domain.size - 1) + [1])  # X^n - 1
        quotient, remainder = (u * v - w).divmod(t)
        assert remainder.is_zero()
        assert Polynomial(compute_h(cs, assignment)) == quotient


# ------------------------------------------------------- reference quotient --

_COEFFS = st.one_of(
    st.sampled_from([1, 2, R - 1, R - 2]), st.integers(0, R - 1)
)
_VALUES = st.one_of(st.sampled_from([0, 1, R - 1]), st.integers(0, R - 1))


@st.composite
def _small_systems(draw, satisfied):
    """A system of 1-9 constraints (domains 2, 4, 8 and 16, full and with
    padding rows) over a handful of variables, with an assignment.

    ``satisfied``: every constraint's ``c`` side is a fresh variable set to
    the product of its ``a`` and ``b`` sides.  Otherwise all three sides
    and the assignment are arbitrary, which almost never satisfies.
    """
    cs = ConstraintSystem()
    assignment = [1]
    for _ in range(draw(st.integers(1, 4))):
        cs.allocate_private()
        assignment.append(draw(_VALUES))

    def side():
        lc = LC()
        for _ in range(draw(st.integers(0, 3))):
            lc = lc + LC.variable(
                draw(st.integers(0, cs.num_variables - 1)), draw(_COEFFS)
            )
        return lc

    for _ in range(draw(st.integers(1, 9))):
        a, b = side(), side()
        if satisfied:
            c = LC.variable(cs.allocate_private())
            assignment.append(
                a.evaluate(assignment) * b.evaluate(assignment) % R
            )
        else:
            c = side()
        cs.enforce(a, b, c)
    return cs, assignment


class TestAgainstReferenceQuotient:
    """``compute_h`` against schoolbook multiplication and long division by
    ``X^n - 1`` (``tests/reference/qap.py``), which share no transform with
    it -- on valid witnesses and on assignments that satisfy nothing."""

    @staticmethod
    def _reference(cs, assignment):
        domain = qap_domain(cs)
        return quotient_naive(
            cs, assignment, int(domain.omega), int(domain.coset_shift)
        )

    @settings(max_examples=40, deadline=None)
    @given(_small_systems(satisfied=True))
    def test_valid_witness(self, case):
        cs, assignment = case
        assert cs.is_satisfied(assignment)
        h = [int(c) for c in compute_h(cs, assignment)]
        assert h == self._reference(cs, assignment)
        assert h[-1] == 0  # deg h <= n - 2

    @settings(max_examples=40, deadline=None)
    @given(_small_systems(satisfied=False))
    def test_any_assignment(self, case):
        cs, assignment = case
        h = [int(c) for c in compute_h(cs, assignment)]
        assert h == self._reference(cs, assignment)

    def test_textbook_example(self):
        cs, assignment = cubic_cs()
        assert compute_h(cs, assignment) == self._reference(cs, assignment)
        bad = list(assignment)
        bad[2] = 4
        assert compute_h(cs, bad) == self._reference(cs, bad)
