"""The compiled quotient (``compute_h`` in :mod:`repro.native`) against
the pure path.

* the Fr limbs against Python ``%`` (the Fp limbs are in
  ``tests/test_native_msm.py``: one limb layer, two moduli);
* the single NTT and the whole quotient against the pure transforms, at
  every size up to 2^10 and on the MNIST-MLP shape (4,683 constraints in
  a domain of 8,192);
* every way the library can be missing -- no compiler, a corrupt cached
  file, a wrong known answer -- leaves the pure quotient, the same proof
  bytes and one log line for the kernel.

``tests/test_snark_qap.py::TestAgainstReferenceQuotient`` runs the
textbook oracle on both paths; ``tests/test_native_msm.py``'s proof-byte
tests pin every kernel at once, so they cover this one too.
"""

import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.curves import native as g1_native
from repro.field.ntt import get_domain, ntt
from repro.field.prime import BN254_R as R
from repro.snark import qap
from repro.snark.qap import QuotientKernel, compute_h


@pytest.fixture(scope="module")
def kernel():
    kernel = native.kernel("compute_h")
    if kernel is None:
        pytest.skip(f"no native quotient here: {native.status()['compute_h']}")
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
    return [r for r in caplog.records if "compute_h_fallback" in r.getMessage()]


# -------------------------------------------------------------------- limbs --

_LIMB_EDGES = [0, 1, R - 1, (1 << 256) % R, (R + 1) // 2]
_limb_values = st.one_of(st.sampled_from(_LIMB_EDGES), st.integers(0, R - 1))


class TestFrLimbs:
    @pytest.mark.parametrize("a", _LIMB_EDGES)
    @pytest.mark.parametrize("b", _LIMB_EDGES)
    def test_edges(self, kernel, a, b):
        assert kernel.fr("mul", a, b) == a * b % R
        assert kernel.fr("add", a, b) == (a + b) % R
        assert kernel.fr("sub", a, b) == (a - b) % R

    @settings(max_examples=200, deadline=None)
    @given(a=_limb_values, b=_limb_values)
    def test_random(self, kernel, a, b):
        assert kernel.fr("mul", a, b) == a * b % R
        assert kernel.fr("add", a, b) == (a + b) % R
        assert kernel.fr("sub", a, b) == (a - b) % R


# -------------------------------------------------------------- transforms --


@pytest.mark.parametrize("log_n", range(11))
def test_ntt_matches_the_pure_transform(kernel, log_n):
    n = 1 << log_n
    rng = random.Random(log_n)
    values = [rng.randrange(R) for _ in range(n)]
    values[0] = R - 1
    domain = get_domain(n)
    assert kernel.ntt(values, domain.omega) == ntt(values, domain.omega)
    # And back: the inverse root, then 1/n.
    there = kernel.ntt(values, domain.omega)
    back = kernel.ntt(there, domain.omega_inv)
    assert [v * pow(n, -1, R) % R for v in back] == values


@pytest.mark.parametrize("log_n", range(1, 11))
def test_quotient_matches_the_pure_path(kernel, log_n):
    """Arbitrary values (not a satisfied system), rows full, partly zero
    and all zero."""
    n = 1 << log_n
    domain = get_domain(n)
    rng = random.Random(100 + log_n)
    for m in sorted({n, n // 2 + 1, 1, 0}):
        evals = [[rng.randrange(R) for _ in range(m)] for _ in range(3)]
        assert kernel.quotient(domain, *evals) == qap._quotient(domain, *evals)


def test_refuses_more_rows_than_points(kernel):
    with pytest.raises(ValueError):
        kernel.quotient(get_domain(4), [1] * 5, [1] * 5, [1] * 5)


def test_mlp_shape_is_identical_on_both_paths(kernel):
    """The benchmark's MNIST-MLP extraction shape: the H-query's scalars
    from both paths are the same ints."""
    from repro.bench.table1 import BENCH_FORMAT, SCALES
    from repro.engine import ProvingEngine
    from repro.nn import mnist_mlp_scaled
    from repro.watermark.keys import WatermarkKeys
    from repro.zkrownn import (
        CircuitConfig,
        extraction_structure_key,
        extraction_synthesizer,
    )

    scale = SCALES["tiny"]
    rng = np.random.default_rng(5)
    model = mnist_mlp_scaled(
        input_dim=scale.mlp_input, hidden=scale.mlp_hidden, rng=rng
    )
    triggers = rng.uniform(0, 1, (scale.mlp_triggers, scale.mlp_input))
    feature_dim = int(np.prod(model.forward_to(triggers[:1], 1).shape[1:]))
    keys = WatermarkKeys(
        embed_layer=1,
        target_class=0,
        trigger_inputs=triggers,
        projection=rng.standard_normal((feature_dim, scale.wm_bits)),
        signature=rng.integers(0, 2, scale.wm_bits).astype(np.int64),
    )
    config = CircuitConfig(theta=1.0, fixed_point=BENCH_FORMAT)
    compiled, synthesis = ProvingEngine().synthesize(
        extraction_structure_key(model, keys, config),
        extraction_synthesizer(model, keys, config),
    )
    cs, z = compiled.cs, synthesis.assignment
    assert (cs.num_constraints, qap.qap_domain(cs).size) == (4683, 8192)
    h = compute_h(cs, z)
    with native.pin_pure():
        assert compute_h(cs, z) == h
    assert h[-1] == 0  # deg h <= n - 2 for a satisfied system


# ---------------------------------------------------------------- fallback --


def _chain_proof_bytes():
    from repro.engine import ProvingEngine

    def synthesize(b):
        out = b.public_output("y")
        w = b.private_input("x", 3)
        acc = w
        for _ in range(9):
            acc = b.mul(acc, w)
        b.bind_output(out, acc + 1)

    engine = ProvingEngine()
    compiled, synthesis = engine.synthesize("chain-9", synthesize)
    return engine.prove(compiled, synthesis, seed=5, setup_seed=6).to_bytes()


@pytest.fixture(scope="module")
def chain_reference():
    with native.pin_pure():
        return _chain_proof_bytes()


class TestFallback:
    def test_no_compiler(self, fresh_load, monkeypatch, caplog, chain_reference):
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        caplog.set_level(logging.WARNING, logger="zkrownn.native")
        assert native.kernel("compute_h") is None
        assert native.status()["compute_h"] == {
            "path": "python", "reason": native.NO_COMPILER
        }
        assert _chain_proof_bytes() == chain_reference
        assert len(_fallback_lines(caplog)) == 1

    def test_corrupt_cached_library(
        self, kernel, fresh_load, monkeypatch, caplog, chain_reference
    ):
        cc = native.shutil.which("cc")
        native._library_path(cc).write_bytes(b"\x7fELF not a library")
        caplog.set_level(logging.WARNING, logger="zkrownn.native")
        assert native.kernel("compute_h") is None
        assert native.status()["compute_h"]["reason"] == native.LOAD_FAILED
        assert _chain_proof_bytes() == chain_reference
        (line,) = _fallback_lines(caplog)
        assert native.LOAD_FAILED in line.getMessage()

    def test_wrong_known_answer_refuses_only_this_kernel(
        self, kernel, fresh_load, monkeypatch, caplog, chain_reference
    ):
        right = QuotientKernel.quotient

        def off_by_one(self, domain, ua, va, wa):
            h = right(self, domain, ua, va, wa)
            return [(h[0] + 1) % R] + h[1:]

        monkeypatch.setattr(QuotientKernel, "quotient", off_by_one)
        caplog.set_level(logging.WARNING, logger="zkrownn.native")
        assert native.kernel("compute_h") is None
        assert native.status()["compute_h"]["reason"] == native.SELF_CHECK_FAILED
        # The G1 MSM from the same library still runs natively.
        assert g1_native.g1_kernel() is not None
        assert _chain_proof_bytes() == chain_reference
        assert len(_fallback_lines(caplog)) == 1

    def test_pin_pure_pins_this_kernel(self, kernel):
        with native.pin_pure():
            assert native.kernel("compute_h") is None
            assert native.status()["compute_h"]["reason"] == native.PINNED
        assert native.kernel("compute_h") is kernel
