"""Field-arithmetic backend tests.

Covers the backends' agreement on element-level arithmetic (edge values
and random residues), backend selection/fork semantics, and -- the
system-level guarantee everything else exists to protect -- Groth16 proof
byte-identity across field backends x compute backends.

Where real gmpy2 is importable (the CI field-backend matrix installs it)
the gmpy2 cases run against it; elsewhere a stub whose ``mpz`` is an int
subclass stands in, so the ``Gmpy2FieldOps`` plumbing is exercised on
every box and the stdlib path needs no dependency.
"""

import importlib.machinery
import random
import sys
import types

import pytest

from repro.curves.bn254 import P, R
from repro.curves.g1 import G1Point, jac_add, jac_to_affine_many
from repro.curves.msm import msm_g1, msm_g1_multi
from repro.field.backend import (
    _BACKEND_CLASSES,
    FIELD_BACKEND_ENV,
    Gmpy2FieldOps,
    PythonFieldOps,
    active_field_backend,
    available_field_backends,
    get_field_ops,
    gmpy2_available,
    reinit_field_backend_after_fork,
    resolve_field_backend,
    set_field_backend,
)
from repro.field.ntt import get_domain
from repro.field.prime import Fp, Fr, batch_inverse_ints

EDGE_VALUES = [0, 1, 2, 3, P - 1, P - 2, P // 2, 1 << 255]


@pytest.fixture(autouse=True)
def _unpin_backend_after_test():
    yield
    set_field_backend(None)


class _FakeMpz(int):
    """Stand-in for ``gmpy2.mpz``: an int subclass (operator-compatible)."""


def _install_fake_gmpy2(monkeypatch):
    mod = types.ModuleType("gmpy2")
    mod.__spec__ = importlib.machinery.ModuleSpec("gmpy2", loader=None)
    mod.mpz = _FakeMpz
    mod.powmod = lambda a, e, m: _FakeMpz(pow(int(a), int(e), int(m)))
    mod.invert = lambda a, m: _FakeMpz(pow(int(a), -1, int(m)))
    mod.version = lambda: "fake-0"
    monkeypatch.setitem(sys.modules, "gmpy2", mod)


@pytest.fixture
def gmpy2_or_stub(monkeypatch):
    """Make a second backend selectable on every box: real gmpy2 where it
    is installed, else the int-subclass stub (which exercises the same
    ``Gmpy2FieldOps`` code; see :class:`TestGmpy2PlumbingViaStub`)."""
    if not gmpy2_available():
        _install_fake_gmpy2(monkeypatch)
    return "gmpy2"


def _random_residues(count, seed=1234):
    rng = random.Random(seed)
    return [rng.randrange(P) for _ in range(count)]


def _all_ops(modulus):
    """Call under ``gmpy2_or_stub`` to get both backends everywhere."""
    ops = [PythonFieldOps(modulus)]
    if gmpy2_available():
        ops.append(Gmpy2FieldOps(modulus))
    return ops


# ---------------------------------------------------------------- selection --


class TestSelection:
    def test_default_resolution_prefers_gmpy2_when_importable(self, monkeypatch):
        monkeypatch.delenv(FIELD_BACKEND_ENV, raising=False)
        expected = "gmpy2" if gmpy2_available() else "python"
        assert resolve_field_backend() == expected
        assert resolve_field_backend("auto") == expected

    def test_env_variable_selects_backend(self, monkeypatch, gmpy2_or_stub):
        monkeypatch.setenv(FIELD_BACKEND_ENV, "gmpy2")
        set_field_backend(None)  # drop any pin so the env is consulted
        assert active_field_backend() == "gmpy2"
        assert get_field_ops(P).name == "gmpy2"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown field backend"):
            resolve_field_backend("cuda")

    @pytest.mark.parametrize("retired", ["numpy", "montgomery"])
    def test_retired_names_fail_loudly(self, monkeypatch, retired):
        # The message lists what IS valid, built from the backend table.
        valid = ", ".join(repr(n) for n in [*_BACKEND_CLASSES, "auto"])
        assert valid == "'python', 'gmpy2', 'auto'"
        with pytest.raises(ValueError) as pinned:
            set_field_backend(retired)
        assert f"unknown field backend {retired!r}" in str(pinned.value)
        assert valid in str(pinned.value)
        monkeypatch.setenv(FIELD_BACKEND_ENV, retired)
        set_field_backend(None)
        with pytest.raises(ValueError, match=valid):
            active_field_backend()

    def test_gmpy2_without_library_is_an_error_not_a_downgrade(self):
        if gmpy2_available():
            pytest.skip("gmpy2 installed: explicit selection is valid here")
        with pytest.raises(ValueError, match="gmpy2 is not importable"):
            resolve_field_backend("gmpy2")

    def test_set_and_restore_roundtrip(self, gmpy2_or_stub):
        set_field_backend("python")
        previous = set_field_backend("gmpy2")
        assert previous == "python"
        assert active_field_backend() == "gmpy2"
        set_field_backend(previous)
        assert active_field_backend() == "python"

    def test_ops_cached_per_modulus_and_swapped_on_switch(self, gmpy2_or_stub):
        set_field_backend("python")
        first = get_field_ops(P)
        assert get_field_ops(P) is first
        set_field_backend("gmpy2")
        assert get_field_ops(P) is not first
        assert get_field_ops(P).name == "gmpy2"

    def test_reinit_after_fork_drops_pin(self, monkeypatch):
        monkeypatch.setenv(FIELD_BACKEND_ENV, "auto")
        set_field_backend("python")
        monkeypatch.setattr(
            "repro.field.backend.gmpy2_available", lambda: True
        )
        reinit_field_backend_after_fork()
        # Back to environment resolution, as a worker process would be:
        # the pin said python, `auto` now says gmpy2.
        assert active_field_backend() == "gmpy2"

    def test_prime_field_ops_property_tracks_active_backend(self, gmpy2_or_stub):
        set_field_backend("gmpy2")
        assert Fp.ops.name == "gmpy2"
        assert Fr.ops.modulus == R


# --------------------------------------------------------------- arithmetic --


class TestOpsAgreement:
    @pytest.mark.parametrize("modulus", [P, R])
    def test_mulmod_inverse_exp_agree_across_backends(self, modulus, gmpy2_or_stub):
        all_ops = _all_ops(modulus)
        values = [v % modulus for v in EDGE_VALUES] + _random_residues(16)
        rng = random.Random(99)
        for a in values:
            b = rng.randrange(modulus)
            e = rng.randrange(1 << 64)
            expected_mul = a * b % modulus
            expected_exp = pow(a, e, modulus)
            for ops in all_ops:
                na, nb = ops.wrap(a), ops.wrap(b)
                assert ops.unwrap(ops.mulmod(na, nb)) == expected_mul
                assert ops.unwrap(ops.addmod(na, nb)) == (a + b) % modulus
                assert ops.unwrap(ops.submod(na, nb)) == (a - b) % modulus
                assert ops.unwrap(ops.exp(na, e)) == expected_exp
                if a % modulus:
                    assert ops.unwrap(ops.inv(na)) == pow(a, -1, modulus)
                else:
                    with pytest.raises(ZeroDivisionError):
                        ops.inv(na)

    def test_batch_inverse_agrees_and_rejects_zero(self, gmpy2_or_stub):
        values = _random_residues(50, seed=5)
        expected = [pow(v, -1, P) for v in values]
        for ops in _all_ops(P):
            out = ops.batch_inverse(ops.wrap_many(values))
            assert ops.unwrap_many(out) == expected
            with pytest.raises(ZeroDivisionError):
                ops.batch_inverse(ops.wrap_many(values + [0]))

    def test_batch_inverse_ints_routed_through_backend(self):
        values = _random_residues(10, seed=7)
        out = batch_inverse_ints(values, P)
        assert [int(v) for v in out] == [pow(v, -1, P) for v in values]

    def test_wrap_unwrap_canonicalize(self, gmpy2_or_stub):
        for ops in _all_ops(P):
            assert ops.unwrap(ops.wrap(-1)) == P - 1
            assert ops.unwrap(ops.wrap(P)) == 0
            assert ops.unwrap_many(ops.wrap_many([P + 5, -3])) == [5, P - 3]


# ------------------------------------------------------------------ kernels --


def _g1_inputs(n, seed=7):
    rng = random.Random(seed)
    g = G1Point.generator()
    jacs, acc = [], (g.x, g.y, 1)
    for _ in range(n):
        jacs.append(acc)
        acc = jac_add(acc, (g.x, g.y, 1))
    points = jac_to_affine_many(jacs)
    return points, [rng.randrange(R) for _ in range(n)]


class TestKernelParityAcrossBackends:
    def test_msm_g1_identical_across_backends(self, gmpy2_or_stub):
        points, scalars = _g1_inputs(96)
        # Edge cases inside one MSM: infinities, zero scalars, negatives.
        points[3] = None
        scalars[5] = 0
        scalars[7] = R - 1
        reference = None
        for name in available_field_backends():
            set_field_backend(name)
            ops = get_field_ops(P)
            native = [
                None if p is None else (ops.wrap(p[0]), ops.wrap(p[1]))
                for p in points
            ]
            result = jac_to_affine_many([msm_g1(native, scalars)])[0]
            result = None if result is None else (int(result[0]), int(result[1]))
            if reference is None:
                reference = result
            else:
                assert result == reference, f"backend {name} diverged"

    def test_msm_g1_multi_identical_across_backends(self, gmpy2_or_stub):
        points, scalars = _g1_inputs(64, seed=21)
        lists = [points, points[::-1]]
        reference = None
        for name in available_field_backends():
            set_field_backend(name)
            outs = msm_g1_multi(lists, scalars)
            outs = [
                None if a is None else (int(a[0]), int(a[1]))
                for a in jac_to_affine_many(outs)
            ]
            if reference is None:
                reference = outs
            else:
                assert outs == reference, f"backend {name} diverged"

    def test_ntt_identical_across_backends(self, gmpy2_or_stub):
        values = [random.Random(4).randrange(R) for _ in range(64)]
        domain = get_domain(64)
        reference = [int(v) for v in domain.fft(values)]
        for name in available_field_backends():
            set_field_backend(name)
            d = get_domain(64)
            assert d.backend == name
            assert [int(v) for v in d.fft(values)] == reference
            assert [int(v) for v in d.ifft(d.fft(values))] == [
                v % R for v in values
            ]

    def test_domain_registry_keyed_by_backend(self, gmpy2_or_stub):
        set_field_backend("python")
        d_py = get_domain(32)
        set_field_backend("gmpy2")
        d_gmp = get_domain(32)
        assert d_py is not d_gmp
        assert (d_py.backend, d_gmp.backend) == ("python", "gmpy2")
        set_field_backend("python")
        assert get_domain(32) is d_py


# ------------------------------------------------------- proof byte-identity --


@pytest.mark.skipif(
    gmpy2_available(), reason="real gmpy2 installed; stub would shadow it"
)
class TestGmpy2PlumbingViaStub:
    """Exercise the exact Gmpy2FieldOps code paths the CI matrix runs,
    without the dependency: a stub gmpy2 whose mpz is an int subclass.

    This cannot test GMP performance, but it does pin the boundary
    plumbing -- wrap/unwrap placement, native flow through MSM/NTT/
    pairing, serialization canonicalization -- that real-mpz runs rely
    on.
    """

    def test_backend_resolves_and_ops_agree(self, monkeypatch):
        monkeypatch.delenv(FIELD_BACKEND_ENV, raising=False)
        _install_fake_gmpy2(monkeypatch)
        assert gmpy2_available()
        assert resolve_field_backend() == "gmpy2"  # auto prefers gmpy2
        set_field_backend("gmpy2")
        ops = get_field_ops(P)
        assert ops.name == "gmpy2"
        a, b = 1234567, P - 3
        assert ops.unwrap(ops.mulmod(ops.wrap(a), ops.wrap(b))) == a * b % P
        assert ops.unwrap(ops.inv(ops.wrap(a))) == pow(a, -1, P)
        assert ops.unwrap(ops.exp(ops.wrap(a), 77)) == pow(a, 77, P)

    def test_proofs_byte_identical_vs_python_backend(self, monkeypatch):
        from repro.engine import ProvingEngine

        set_field_backend("python")
        engine = ProvingEngine()
        compiled, synthesis = engine.synthesize("chain-12", _mul_chain(12))
        reference = engine.prove(
            compiled, synthesis, seed=5, setup_seed=6
        ).to_bytes()

        _install_fake_gmpy2(monkeypatch)
        set_field_backend("gmpy2")
        engine2 = ProvingEngine()
        compiled2, synthesis2 = engine2.synthesize("chain-12", _mul_chain(12))
        proof = engine2.prove(compiled2, synthesis2, seed=5, setup_seed=6)
        assert proof.to_bytes() == reference
        assert engine2.verify(compiled2, synthesis2.public_values, proof)


def _mul_chain(depth, x=3):
    def synthesize(b):
        out = b.public_output("y")
        w = b.private_input("x", x)
        acc = w
        for _ in range(depth):
            acc = b.mul(acc, w)
        b.bind_output(out, acc + 1)

    return synthesize


class TestProofByteIdentity:
    """Groth16 proofs must be byte-identical across field backends x
    compute backends (python x gmpy2-or-stub x serial x process) -- the
    acceptance bar for any kernel refactor."""

    def _proofs_under(self, field_backend, compute_backend):
        from repro.engine import ProvingEngine

        set_field_backend(field_backend)
        engine = ProvingEngine(backend=compute_backend)
        compiled, synthesis = engine.synthesize("chain-16", _mul_chain(16))
        proofs = engine.prove_batch(
            compiled, [synthesis] * 2, seeds=[11, 12], setup_seed=42
        )
        assert engine.verify(compiled, synthesis.public_values, proofs[0])
        vk = engine.setup(compiled).verifying_key.to_bytes()
        return [p.to_bytes() for p in proofs], vk

    def test_byte_identical_across_field_and_compute_backends(self, gmpy2_or_stub):
        from repro.parallel import ProcessBackend, SerialBackend

        reference_proofs, reference_vk = self._proofs_under(
            "python", SerialBackend()
        )
        for field_backend in available_field_backends():
            process = ProcessBackend(2)
            try:
                for compute in (SerialBackend(), process):
                    proofs, vk = self._proofs_under(field_backend, compute)
                    assert proofs == reference_proofs, (
                        f"proof bytes diverged under field={field_backend} "
                        f"compute={compute.name}"
                    )
                    assert vk == reference_vk
            finally:
                process.close()

    def test_setup_keys_byte_identical_across_field_backends(self, gmpy2_or_stub):
        from repro.snark.groth16 import setup
        from repro.circuit.builder import CircuitBuilder

        def build():
            b = CircuitBuilder("k")
            out = b.public_output("y")
            w = b.private_input("x", 5)
            b.bind_output(out, b.mul(w, w) + 1)
            return b.cs

        reference = None
        for name in available_field_backends():
            set_field_backend(name)
            keypair = setup(build(), seed=9)
            blob = (
                keypair.verifying_key.to_bytes(),
                keypair.proving_key.alpha_g1.x,
                keypair.proving_key.alpha_g1.y,
            )
            blob = (blob[0], int(blob[1]), int(blob[2]))
            if reference is None:
                reference = blob
            else:
                assert blob == reference, f"setup diverged under {name}"
