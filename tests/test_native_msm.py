"""The compiled G1 MSM (:mod:`repro.curves.native`) against the pure path.

* the limbs: the library's Fp multiply/add/subtract against Python ``%``;
* the MSM's exceptional cases on both paths, against double-and-add;
* the two paths give byte-identical proofs, keys and verdicts, on serial
  and process compute backends;
* every way the library can be missing -- no compiler, a failed build, a
  corrupt cached file, a wrong known answer -- leaves the pure path, the
  same proof bytes and one log line; many threads' first use builds once;
* ``GET /stats`` and ``zkrownn serve`` say which path runs.
"""

import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import native
from repro.curves.bn254 import P, R
from repro.curves.g1 import G1Point, jac_add, jac_to_affine_many
from repro.curves.msm import msm_g1, msm_g1_multi, naive_msm_g1

G = G1Point.generator()


@pytest.fixture(scope="module")
def kernel():
    kernel = native.g1_kernel()
    if kernel is None:
        pytest.skip(f"no native G1 MSM here: {native.status()['reason']}")
    return kernel


@pytest.fixture
def fresh_load(monkeypatch, tmp_path):
    """Forget the process's loaded library for one test, with the cache in
    ``tmp_path``; the real state comes back afterwards."""
    monkeypatch.setattr(native, "_STATE", None)
    monkeypatch.setattr(native, "_PINNED", False)
    monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
    return tmp_path


def _fallback_lines(caplog):
    return [r for r in caplog.records if "g1_msm_fallback" in r.getMessage()]


def _affine(p: G1Point):
    return None if p.is_infinity() else (p.x, p.y)


# -------------------------------------------------------------------- limbs --

_LIMB_EDGES = [0, 1, P - 1, (1 << 256) % P]
_limb_values = st.one_of(st.sampled_from(_LIMB_EDGES), st.integers(0, P - 1))


class TestLimbs:
    @pytest.mark.parametrize("a", _LIMB_EDGES)
    @pytest.mark.parametrize("b", _LIMB_EDGES)
    def test_edges(self, kernel, a, b):
        assert kernel.fp("mul", a, b) == a * b % P
        assert kernel.fp("add", a, b) == (a + b) % P
        assert kernel.fp("sub", a, b) == (a - b) % P

    @settings(max_examples=200, deadline=None)
    @given(a=_limb_values, b=_limb_values)
    def test_random(self, kernel, a, b):
        assert kernel.fp("mul", a, b) == a * b % P
        assert kernel.fp("add", a, b) == (a + b) % P
        assert kernel.fp("sub", a, b) == (a - b) % P


# ------------------------------------------------------- exceptional cases --


def _check(points, scalars):
    want = G1Point.from_jacobian(naive_msm_g1(points, scalars))
    assert G1Point.from_jacobian(msm_g1(points, scalars)) == want
    return want


@pytest.mark.usefixtures("g1_msm_path")
class TestExceptionalCases:
    def test_same_point_twice_in_one_bucket(self):
        p = _affine(G * 5)
        assert _check([p, p], [3, 3]) == G * 30
        assert _check([p, p, p], [R - 3, R - 3, 1]) == G * (5 * (2 * R - 5) % R)

    def test_point_and_its_negation_in_one_bucket(self):
        p, q = _affine(G * 11), _affine(-(G * 11))
        assert _check([p, q], [9, 9]).is_infinity()
        assert _check([p, q, _affine(G)], [9, 9, 4]) == G * 4

    def test_scalars_at_or_above_r_and_negative(self):
        points = [_affine(G * k) for k in (1, 2, 3, 4)]
        _check(points, [R, R + 1, 2 * R - 1, -5])
        assert _check([_affine(G)], [-1]) == -G

    def test_all_zero_scalars(self):
        points = [_affine(G), _affine(G * 2)]
        assert _check(points, [0, R]).is_infinity()
        results = msm_g1_multi([points, points], [0, 0])
        assert all(G1Point.from_jacobian(r).is_infinity() for r in results)

    def test_none_points(self):
        assert _check([None, _affine(G), None], [5, 7, 9]) == G * 7
        assert _check([None, None], [1, 2]).is_infinity()

    def test_single_point(self):
        assert _check([_affine(G * 3)], [7]) == G * 21

    def test_recoding_carry_into_the_spare_window(self):
        # All-ones digits recode to -1 with a carry in every window, so the
        # last carry lands beyond the scalar's own bit length.
        for bits in (120, 253, 64, 11):
            _check([_affine(G), _affine(G * 2)], [(1 << bits) - 1] * 2)

    def test_many_points_sharing_buckets(self):
        rng = random.Random(3)
        pool = [_affine(G * k) for k in (1, 2, 3)] + [_affine(-(G * 2))]
        points = [rng.choice(pool) for _ in range(300)]
        scalars = [rng.choice([1, 2, R - 1, rng.randrange(R)]) for _ in points]
        _check(points, scalars)


def test_paths_agree_on_a_large_msm(kernel):
    """A few thousand distinct points (the H-query's shape): the compiled
    result equals the pure pipeline's exactly."""
    rng = random.Random(7)
    jacs, acc = [], (G.x, G.y, 1)
    for _ in range(2048):
        jacs.append(acc)
        acc = jac_add(acc, (G.x, G.y, 1))
    points = jac_to_affine_many(jacs)
    points[17] = None
    scalars = [rng.randrange(R) for _ in points]
    scalars[5] = 0
    got = msm_g1_multi([points, points[::-1]], scalars)
    with native.pin_pure():
        want = msm_g1_multi([points, points[::-1]], scalars)
    assert jac_to_affine_many(got) == jac_to_affine_many(want)


# --------------------------------------------------------- byte identity --


def _mul_chain(depth, x=3):
    def synthesize(b):
        out = b.public_output("y")
        w = b.private_input("x", x)
        acc = w
        for _ in range(depth):
            acc = b.mul(acc, w)
        b.bind_output(out, acc + 1)

    return synthesize


def _chain_proof_bytes():
    from repro.engine import ProvingEngine

    engine = ProvingEngine()
    compiled, synthesis = engine.synthesize("chain-12", _mul_chain(12))
    proof = engine.prove(compiled, synthesis, seed=5, setup_seed=6)
    assert engine.verify(compiled, synthesis.public_values, proof)
    return proof.to_bytes()


@pytest.fixture(scope="module")
def chain_reference():
    """The chain circuit's proof on the pure path: the bytes every path
    and every fallback must reproduce."""
    with native.pin_pure():
        return _chain_proof_bytes()


class TestProofByteIdentity:
    """Proofs are byte-identical across MSM paths x compute backends."""

    def _proofs(self, compute_backend):
        from repro.engine import ProvingEngine

        engine = ProvingEngine(backend=compute_backend)
        compiled, synthesis = engine.synthesize("chain-16", _mul_chain(16))
        proofs = [
            engine.prove(compiled, synthesis, seed=seed, setup_seed=42)
            for seed in (11, 12)
        ]
        assert engine.verify(compiled, synthesis.public_values, proofs[0])
        vk = engine.setup(compiled).verifying_key.to_bytes()
        return [p.to_bytes() for p in proofs], vk

    def test_byte_identical_across_msm_paths_and_compute_backends(self, kernel):
        from repro.parallel import ProcessBackend, SerialBackend

        with native.pin_pure():
            reference = self._proofs(SerialBackend())
        process = ProcessBackend(2)
        try:
            # Spawned workers load the library on their own.
            for compute in (SerialBackend(), process):
                assert self._proofs(compute) == reference, compute.name
        finally:
            process.close()

    def test_chain_proof_identical_on_the_native_path(self, kernel, chain_reference):
        assert _chain_proof_bytes() == chain_reference


# ---------------------------------------------------------------- fallback --


class TestFallback:
    def test_no_compiler(self, fresh_load, monkeypatch, caplog, chain_reference):
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        caplog.set_level(logging.WARNING, logger="zkrownn.curves")
        assert native.g1_kernel() is None
        assert native.status() == {"g1_msm": "python", "reason": native.NO_COMPILER}
        assert _chain_proof_bytes() == chain_reference
        assert len(_fallback_lines(caplog)) == 1

    def test_corrupt_cached_library(
        self, kernel, fresh_load, monkeypatch, caplog, chain_reference
    ):
        cc = native.shutil.which("cc")
        native._library_path(cc).write_bytes(b"\x7fELF not a library")
        caplog.set_level(logging.WARNING, logger="zkrownn.curves")
        assert native.g1_kernel() is None
        assert native.status()["reason"] == native.LOAD_FAILED
        assert _chain_proof_bytes() == chain_reference
        (line,) = _fallback_lines(caplog)
        assert native.LOAD_FAILED in line.getMessage()

    def test_build_failure(self, kernel, fresh_load, monkeypatch, tmp_path, caplog):
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        caplog.set_level(logging.WARNING, logger="zkrownn.curves")
        assert native.g1_kernel() is None
        assert native.status()["reason"] == native.BUILD_FAILED
        assert len(_fallback_lines(caplog)) == 1
        # The failed build's temporary file does not stay behind.
        assert [p.name for p in tmp_path.iterdir()] == ["broken.c"]

    def test_self_check_refuses_a_wrong_answer(self, kernel, fresh_load, monkeypatch):
        right = native.G1Kernel.msm_many

        def off_by_one(self, points_lists, scalars):
            return right(self, points_lists, [s + 1 for s in scalars])

        monkeypatch.setattr(native.G1Kernel, "msm_many", off_by_one)
        assert native.g1_kernel() is None
        assert native.status()["reason"] == native.SELF_CHECK_FAILED

    def test_builds_once_then_loads_from_the_cache(self, kernel, fresh_load):
        assert native.g1_kernel() is not None
        (built,) = fresh_load.iterdir()
        assert built.name.startswith("g1msm-") and built.suffix == ".so"
        stamp = built.stat().st_mtime_ns
        native._STATE = None
        assert native.g1_kernel() is not None
        assert built.stat().st_mtime_ns == stamp

    def test_concurrent_first_use_builds_once(self, kernel, fresh_load):
        """More threads than cores race to the first MSM: one build, one
        shared kernel, and every thread's MSM is right."""
        import sys
        import threading

        barrier = threading.Barrier(8)
        got = []

        def first_use():
            barrier.wait(timeout=30)
            got.append((native.g1_kernel(), msm_g1([_affine(G)], [9])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=first_use) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8
        assert len({id(k) for k, _ in got}) == 1 and got[0][0] is not None
        assert all(G1Point.from_jacobian(r) == G * 9 for _, r in got)
        assert [p.suffix for p in fresh_load.iterdir()] == [".so"]

    def test_cache_directory_is_private(self, monkeypatch, tmp_path):
        monkeypatch.setattr(native.Path, "home", lambda: tmp_path)
        path = tmp_path / ".cache" / "zkrownn"
        path.mkdir(parents=True, mode=0o755)
        path.chmod(0o755)
        assert native._cache_dir() == path
        assert path.stat().st_mode & 0o777 == 0o700


# ----------------------------------------------------------------- reports --


class TestReportedPath:
    def _stats(self, tmp_path):
        from repro.engine import ProvingEngine
        from repro.parallel import SerialBackend
        from repro.service import ClaimRegistry, ProofService

        service = ProofService(
            ClaimRegistry(tmp_path), engine=ProvingEngine(backend=SerialBackend())
        )
        return service.stats()["kernels"]

    def test_stats_native(self, kernel, tmp_path):
        assert self._stats(tmp_path) == {"g1_msm": "native", "reason": None}

    def test_stats_python(self, tmp_path):
        with native.pin_pure():
            assert self._stats(tmp_path) == {
                "g1_msm": "python", "reason": native.PINNED
            }

    def test_serve_line(self, kernel, fresh_load, monkeypatch):
        from repro.cli import _g1_msm_line

        assert _g1_msm_line() == "native"
        monkeypatch.setattr(native, "_STATE", None)
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        assert _g1_msm_line() == "python (no compiler)"
