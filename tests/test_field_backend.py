"""Field-arithmetic tests: :class:`PythonFieldOps` against Python's own
big-int arithmetic on edge values and random residues.

The G1 MSM's compiled kernel is not a field backend; its limbs and its
parity with the pure path are in ``test_native_msm.py``.
"""

import random

import pytest

from repro.curves.bn254 import P, R
from repro.field.backend import (
    PythonFieldOps,
    active_field_backend,
    get_field_ops,
)
from repro.field.prime import Fp, Fr, batch_inverse_ints

EDGE_VALUES = [0, 1, 2, 3, P - 1, P - 2, P // 2, 1 << 255]


def _random_residues(count, seed=1234):
    rng = random.Random(seed)
    return [rng.randrange(P) for _ in range(count)]


class TestSelection:
    def test_one_backend_named_python(self):
        # Benchmark records carry this name and refuse to compare runs
        # whose names differ.
        assert active_field_backend() == "python"
        assert get_field_ops(P).name == "python"

    def test_ops_cached_per_modulus(self):
        first = get_field_ops(P)
        assert get_field_ops(P) is first
        assert get_field_ops(R) is not first
        assert Fp.ops is first
        assert Fr.ops.modulus == R


class TestOpsAgreement:
    @pytest.mark.parametrize("modulus", [P, R])
    def test_mulmod_inverse_exp_match_builtins(self, modulus):
        ops = PythonFieldOps(modulus)
        values = [v % modulus for v in EDGE_VALUES] + _random_residues(16)
        rng = random.Random(99)
        for a in values:
            b = rng.randrange(modulus)
            e = rng.randrange(1 << 64)
            na, nb = ops.wrap(a), ops.wrap(b)
            assert ops.unwrap(ops.mulmod(na, nb)) == a * b % modulus
            assert ops.unwrap(ops.addmod(na, nb)) == (a + b) % modulus
            assert ops.unwrap(ops.submod(na, nb)) == (a - b) % modulus
            assert ops.unwrap(ops.exp(na, e)) == pow(a, e, modulus)
            if a % modulus:
                assert ops.unwrap(ops.inv(na)) == pow(a, -1, modulus)
            else:
                with pytest.raises(ZeroDivisionError):
                    ops.inv(na)

    def test_batch_inverse_agrees_and_rejects_zero(self):
        values = _random_residues(50, seed=5)
        ops = get_field_ops(P)
        out = ops.batch_inverse(ops.wrap_many(values))
        assert ops.unwrap_many(out) == [pow(v, -1, P) for v in values]
        with pytest.raises(ZeroDivisionError):
            ops.batch_inverse(ops.wrap_many(values + [0]))

    def test_batch_inverse_ints_routed_through_backend(self):
        values = _random_residues(10, seed=7)
        out = batch_inverse_ints(values, P)
        assert out == [pow(v, -1, P) for v in values]

    def test_wrap_unwrap_canonicalize(self):
        ops = get_field_ops(P)
        assert ops.unwrap(ops.wrap(-1)) == P - 1
        assert ops.unwrap(ops.wrap(P)) == 0
        assert ops.unwrap_many(ops.wrap_many([P + 5, -3])) == [5, P - 3]
