"""Tests for the R1CS constraint-system representation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.field.prime import BN254_R as R
from repro.snark.errors import UnsatisfiedWitness
from repro.snark.r1cs import ONE_INDEX, ConstraintSystem, LinearCombination as LC

small_ints = st.integers(min_value=-100, max_value=100)


class TestLinearCombination:
    def test_variable(self):
        lc = LC.variable(3)
        assert lc.terms == {3: 1}

    def test_constant(self):
        lc = LC.constant(7)
        assert lc.terms == {ONE_INDEX: 7}

    def test_zero_coefficients_dropped(self):
        assert LC({1: 0}).is_zero()

    def test_add_merges(self):
        lc = LC.variable(1) + LC.variable(2) + LC.variable(1)
        assert lc.terms == {1: 2, 2: 1}

    def test_add_cancels_to_zero(self):
        lc = LC.variable(1) - LC.variable(1)
        assert lc.is_zero()

    def test_scale(self):
        assert LC.variable(1).scale(5).terms == {1: 5}

    def test_scale_by_zero(self):
        assert LC.variable(1).scale(0).is_zero()

    def test_evaluate(self):
        lc = LC({0: 2, 1: 3})
        assert lc.evaluate([1, 10]) == 32

    @given(a=small_ints, b=small_ints)
    def test_evaluate_linear(self, a, b):
        lc1 = LC.variable(1, a)
        lc2 = LC.variable(1, b)
        assignment = [1, 7]
        combined = lc1 + lc2
        assert combined.evaluate(assignment) == (
            lc1.evaluate(assignment) + lc2.evaluate(assignment)
        ) % R

    def test_as_single_variable(self):
        assert LC.variable(4).as_single_variable() == 4
        assert LC.variable(4, 2).as_single_variable() is None
        assert (LC.variable(1) + LC.variable(2)).as_single_variable() is None

    def test_negative_coefficients_wrap(self):
        lc = LC({1: -1})
        assert lc.terms[1] == R - 1

    def test_repr(self):
        assert "v1" in repr(LC.variable(1))


class TestAllocation:
    def test_layout(self):
        cs = ConstraintSystem()
        a = cs.allocate_public("a")
        b = cs.allocate_public("b")
        c = cs.allocate_private("c")
        assert (a, b, c) == (1, 2, 3)
        assert cs.num_public == 2
        assert cs.num_private == 1
        assert cs.num_variables == 4

    def test_public_after_private_rejected(self):
        cs = ConstraintSystem()
        cs.allocate_private("w")
        with pytest.raises(ValueError):
            cs.allocate_public("x")

    def test_names_recorded(self):
        cs = ConstraintSystem()
        cs.allocate_public("the_input")
        assert "the_input" in cs.variable_names

    def test_default_names(self):
        cs = ConstraintSystem()
        idx = cs.allocate_private()
        assert cs.variable_names[idx].startswith("aux_")


class TestSatisfaction:
    def _simple(self):
        # x * x = y
        cs = ConstraintSystem()
        y = cs.allocate_public("y")
        x = cs.allocate_private("x")
        cs.enforce(LC.variable(x), LC.variable(x), LC.variable(y))
        return cs

    def test_satisfied(self):
        cs = self._simple()
        assert cs.is_satisfied([1, 9, 3])

    def test_unsatisfied(self):
        cs = self._simple()
        assert not cs.is_satisfied([1, 10, 3])

    def test_check_raises_with_constraint_index(self):
        cs = self._simple()
        with pytest.raises(UnsatisfiedWitness, match="constraint 0"):
            cs.check_satisfied([1, 10, 3])

    def test_wrong_length_rejected(self):
        cs = self._simple()
        with pytest.raises(UnsatisfiedWitness, match="entries"):
            cs.check_satisfied([1, 9])

    def test_one_must_be_one(self):
        cs = self._simple()
        with pytest.raises(UnsatisfiedWitness, match="constant 1"):
            cs.check_satisfied([2, 9, 3])

    def test_satisfied_rows_are_the_evaluations(self):
        cs = self._simple()
        assert cs.satisfied_rows([1, 9, 3]) == ([3], [3], [9])
        assert cs.satisfied_rows([1, 9 - R, 3 + R]) == ([3], [3], [9])

    @pytest.mark.parametrize("bad, message", [
        ([1, 10, 3], "constraint 0"),
        ([1, 9], "entries"),
        ([2, 9, 3], "constant 1"),
    ])
    def test_satisfied_rows_refuse_like_check_satisfied(self, bad, message):
        cs = self._simple()
        with pytest.raises(UnsatisfiedWitness, match=message) as rows_error:
            cs.satisfied_rows(bad)
        with pytest.raises(UnsatisfiedWitness) as check_error:
            cs.check_satisfied(bad)
        assert str(rows_error.value) == str(check_error.value)

    def test_empty_system_satisfied(self):
        cs = ConstraintSystem()
        assert cs.is_satisfied([1])

    def test_public_inputs_of(self):
        cs = self._simple()
        assert cs.public_inputs_of([1, 9, 3]) == [9]


class TestStats:
    def test_stats(self):
        cs = ConstraintSystem()
        y = cs.allocate_public("y")
        x = cs.allocate_private("x")
        cs.enforce(LC.variable(x), LC.variable(x), LC.variable(y))
        stats = cs.stats()
        assert stats["constraints"] == 1
        assert stats["variables"] == 3
        assert stats["public_inputs"] == 1
        assert stats["nonzero_coefficients"] == 3

    def test_repr(self):
        assert "ConstraintSystem" in repr(ConstraintSystem())
