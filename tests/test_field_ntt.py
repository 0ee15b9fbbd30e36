"""Tests for the NTT / evaluation-domain machinery."""

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference.poly import Polynomial

from repro.field.ntt import EvaluationDomain, intt, next_power_of_two, ntt
from repro.field.prime import BN254_R as R
from repro.field.prime import Fr

small_coeffs = st.lists(
    st.integers(min_value=0, max_value=R - 1), min_size=1, max_size=16
)


class TestNextPowerOfTwo:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (1023, 1024), (1024, 1024)],
    )
    def test_values(self, n, expected):
        assert next_power_of_two(n) == expected


class TestNttRoundtrip:
    @given(coeffs=small_coeffs)
    def test_intt_inverts_ntt(self, coeffs):
        n = next_power_of_two(len(coeffs))
        padded = coeffs + [0] * (n - len(coeffs))
        omega = Fr.root_of_unity(n).value if n > 1 else 1
        if n == 1:
            return
        assert intt(ntt(padded, omega), omega) == padded

    def test_ntt_size_must_be_power_of_two(self):
        omega = Fr.root_of_unity(4).value
        with pytest.raises(ValueError):
            ntt([1, 2, 3], omega)

    def test_ntt_matches_naive_evaluation(self):
        n = 8
        omega = Fr.root_of_unity(n).value
        coeffs = [3, 1, 4, 1, 5, 9, 2, 6]
        poly = Polynomial(coeffs)
        evals = ntt(coeffs, omega)
        for k in range(n):
            point = pow(omega, k, R)
            assert evals[k] == poly(point)


class TestEvaluationDomain:
    def test_size_rounds_up(self):
        assert EvaluationDomain(5).size == 8

    def test_fft_ifft_roundtrip(self):
        domain = EvaluationDomain(8)
        coeffs = [7, 0, 3, 0, 0, 0, 0, 1]
        assert domain.ifft(domain.fft(coeffs)) == coeffs

    def test_fft_matches_polynomial_evaluation(self):
        domain = EvaluationDomain(8)
        coeffs = [1, 2, 3]
        poly = Polynomial(coeffs)
        evals = domain.fft(coeffs)
        for point, value in zip(domain.elements(), evals):
            assert value == poly(point)

    def test_fft_rejects_oversized_polynomial(self):
        domain = EvaluationDomain(4)
        with pytest.raises(ValueError):
            domain.fft([1] * 5)

    def test_ifft_requires_full_evaluations(self):
        domain = EvaluationDomain(4)
        with pytest.raises(ValueError):
            domain.ifft([1, 2])

    def test_coset_fft_roundtrip(self):
        domain = EvaluationDomain(8)
        coeffs = [5, 4, 3, 2, 1, 0, 0, 9]
        assert domain.coset_ifft(domain.coset_fft(coeffs)) == coeffs

    def test_coset_fft_matches_shifted_evaluation(self):
        domain = EvaluationDomain(4)
        coeffs = [1, 1, 0, 2]
        poly = Polynomial(coeffs)
        evals = domain.coset_fft(coeffs)
        g = domain.coset_shift
        for k, point in enumerate(domain.elements()):
            assert evals[k] == poly(g * point % R)

    def test_vanishing_zero_on_domain(self):
        domain = EvaluationDomain(8)
        for point in domain.elements():
            assert domain.vanishing_at(point) == 0

    def test_vanishing_nonzero_on_coset(self):
        domain = EvaluationDomain(8)
        t = domain.vanishing_on_coset()
        assert t != 0
        g = domain.coset_shift
        for point in domain.elements():
            assert domain.vanishing_at(g * point % R) == t

    def test_elements_are_distinct(self):
        domain = EvaluationDomain(16)
        pts = domain.elements()
        assert len(set(pts)) == len(pts)

    def test_singleton_domain(self):
        domain = EvaluationDomain(1)
        assert domain.size == 1
        assert domain.fft([3]) == [3]
        assert domain.ifft([3]) == [3]
        assert domain.coset_ifft(domain.coset_fft([4])) == [4]

    def test_interpolation_matches_lagrange_reference(self):
        domain = EvaluationDomain(4)
        values = [10, 20, 30, 40]
        coeffs = domain.ifft(values)
        reference = Polynomial.interpolate(domain.elements(), values)
        assert Polynomial(coeffs) == reference
