"""The compiled fixed-base combs (``fixed_base`` in :mod:`repro.native`)
against the pure path.

* the Fp2 limbs against :class:`repro.field.tower.Fp2Element`, including
  coefficients at or above ``P`` and the inverse of zero;
* native ``mul_many`` against the pinned-pure lockstep comb and against
  double-and-add (``jac_scalar_mul``, ``G2Point * s``) on the boundary
  scalars, zeros mapping to the identity, in batches across
  ``_COMB_TILE``;
* the library's sources and headers are the package directory's, and an
  edit to any header moves the content address;
* no compiler, or a wrong known answer, leaves the pure comb, one log
  line and the same key bytes.

``tests/test_snark_groth16.py::TestGoldenKeys`` pins seeded keys on both
paths; ``tests/native/driver.c`` runs the combs under the sanitizers.
"""

import logging
import random
import shutil
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.curves.bn254 import P, R
from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point
from repro.curves.msm import _COMB_TILE, CombKernel
from repro.field.tower import Fp2Element
from repro.snark.groth16 import _generator_tables

G1 = G1Point.generator()
G2 = G2Point.generator()

#: 0, 1, (R -+ 1) / 2, R - 1, R, R + 5 and 2^256 - 1.
BOUNDARIES = [0, 1, (R - 1) // 2, (R + 1) // 2, R - 1, R, R + 5, (1 << 256) - 1]


@pytest.fixture(scope="module")
def kernel():
    kernel = native.kernel("fixed_base")
    if kernel is None:
        pytest.skip(f"no native comb here: {native.status()['fixed_base']}")
    return kernel


@pytest.fixture(scope="module")
def tables():
    return _generator_tables()


@pytest.fixture
def fresh_load(monkeypatch, tmp_path):
    """Forget the process's loaded library for one test, with the cache in
    ``tmp_path``; the real state comes back afterwards."""
    monkeypatch.setattr(native, "_STATE", None)
    monkeypatch.setattr(native, "_PINNED", False)
    monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
    return tmp_path


def _fallback_lines(caplog):
    return [r for r in caplog.records if "fixed_base_fallback" in r.getMessage()]


# -------------------------------------------------------------------- limbs --

_COEFF_EDGES = [0, 1, P - 1, P, P + 1, (1 << 256) - 1]
#: 0, 1, u, p - 1 and elements with a coefficient of at least p.
_ELEMENT_EDGES = [(0, 0), (1, 0), (0, 1), (P - 1, 0), (P - 1, P - 1), (P, P + 1)]
_coeffs = st.one_of(st.sampled_from(_COEFF_EDGES), st.integers(0, (1 << 256) - 1))
_elements = st.tuples(_coeffs, _coeffs)


def _pair(e: Fp2Element):
    return (e.c0, e.c1)


class TestFp2Limbs:
    @pytest.mark.parametrize("a", _ELEMENT_EDGES)
    @pytest.mark.parametrize("b", _ELEMENT_EDGES)
    def test_edges(self, kernel, a, b):
        assert kernel.fp2("mul", a, b) == _pair(Fp2Element(*a) * Fp2Element(*b))

    @pytest.mark.parametrize("a", _ELEMENT_EDGES)
    def test_edges_square_and_inverse(self, kernel, a):
        x = Fp2Element(*a)
        assert kernel.fp2("sqr", a) == _pair(x.square())
        if not x.is_zero():
            assert kernel.fp2("inv", a) == _pair(x.inverse())

    @settings(max_examples=200, deadline=None)
    @given(a=_elements, b=_elements)
    def test_random(self, kernel, a, b):
        x, y = Fp2Element(*a), Fp2Element(*b)
        assert kernel.fp2("mul", a, b) == _pair(x * y)
        assert kernel.fp2("sqr", a) == _pair(x.square())
        if not x.is_zero():
            assert kernel.fp2("inv", a) == _pair(x.inverse())

    @pytest.mark.parametrize("zero", [(0, 0), (P, 0), (0, P), (P, 2 * P)])
    def test_inverse_of_zero_is_zero(self, kernel, zero):
        """The contract: ``inv(0)`` is 0, not an error (``fp_inv`` raises
        zero to ``p - 2``); the comb never inverts a zero."""
        assert kernel.fp2("inv", zero) == (0, 0)


# -------------------------------------------------------- against the pure --


def _both_paths(table, scalars):
    got = table.mul_many(scalars)
    with native.pin_pure():
        want = table.mul_many(scalars)
    return got, want


_scalars = st.lists(
    st.one_of(st.sampled_from(BOUNDARIES), st.integers(0, (1 << 256) - 1)),
    max_size=24,
)


class TestAgainstThePurePath:
    @settings(max_examples=25, deadline=None)
    @given(scalars=_scalars)
    def test_g1_matches_the_lockstep_comb(self, kernel, tables, scalars):
        got, want = _both_paths(tables[0], scalars)
        assert got == want

    @settings(max_examples=10, deadline=None)
    @given(scalars=_scalars)
    def test_g2_matches_the_lockstep_comb(self, kernel, tables, scalars):
        got, want = _both_paths(tables[1], scalars)
        assert got == want

    def test_boundaries_against_double_and_add(self, kernel, tables):
        g1_points = [G1Point.from_jacobian(p) for p in tables[0].mul_many(BOUNDARIES)]
        assert g1_points == [G1 * s for s in BOUNDARIES]
        assert tables[1].mul_many(BOUNDARIES) == [G2 * s for s in BOUNDARIES]
        # Zero mod R is the identity: 0 and R.
        assert g1_points[0].is_infinity() and g1_points[5].is_infinity()

    def test_an_all_zero_batch(self, kernel, tables):
        zeros = [0, R, 2 * R, 0]
        assert all(p[2] == 0 for p in tables[0].mul_many(zeros))
        assert all(p.is_infinity() for p in tables[1].mul_many(zeros))
        assert tables[0].mul_many([]) == [] and tables[1].mul_many([]) == []

    def test_scalars_outside_the_byte_range_are_reduced(self, kernel, tables):
        scalars = [-1, -R - 3, 1 << 300, -(1 << 256), 5]
        for table in tables:
            got, want = _both_paths(table, scalars)
            assert got == want

    @pytest.mark.parametrize("group", [0, 1])
    def test_batches_across_the_tile(self, kernel, tables, group, monkeypatch):
        """More scalars than one ``_COMB_TILE`` (and many of ``comb.c``'s
        smaller tiles), repeats and zeros among them, split over three C
        calls."""
        monkeypatch.setattr(CombKernel, "_BATCH", 500)
        rng = random.Random(group)
        scalars = [rng.randrange(R) for _ in range(_COMB_TILE + 40)]
        scalars[3] = scalars[_COMB_TILE + 5] = 0
        scalars[7:10] = [scalars[6]] * 3
        scalars[-8:] = BOUNDARIES
        got, want = _both_paths(tables[group], scalars)
        assert got == want


# ------------------------------------------------------------------ sources --


class TestSourceList:
    def test_sources_and_headers_are_the_package_directory(self):
        here = native._HERE
        assert set(native.SOURCES) == set(here.glob("*.c"))
        assert set(native.HEADERS) == set(here.glob("*.h"))
        assert {p.name for p in native.HEADERS} >= {
            "mont.h", "bn254.h", "fp2.h", "jacobian.h"
        }

    def test_any_header_edit_moves_the_library_path(self, monkeypatch, tmp_path):
        copy = tmp_path / "native"
        copy.mkdir()
        for path in native.SOURCES + native.HEADERS:
            shutil.copy(path, copy / path.name)
        monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
        # Only the compiler's path, size and time enter the address.
        cc = shutil.which("cc") or sys.executable

        def address():
            sources, headers = native._listing(copy)
            monkeypatch.setattr(native, "SOURCES", sources)
            monkeypatch.setattr(native, "HEADERS", headers)
            return native._library_path(cc)

        base = address()
        for header in sorted(copy.glob("*.h")):
            original = header.read_bytes()
            header.write_bytes(original + b"\n")
            assert address() != base, header.name
            header.write_bytes(original)
        assert address() == base
        (copy / "extra.h").write_text("/* a new header */\n")
        assert address() != base


# ---------------------------------------------------------------- fallback --


def _key_bytes():
    from repro.snark import ConstraintSystem, LinearCombination as LC, setup

    cs = ConstraintSystem()
    out = cs.allocate_public("y")
    prev = cs.allocate_private("x0")
    for i in range(24):
        nxt = cs.allocate_private(f"x{i + 1}")
        cs.enforce(LC.variable(prev) + LC.constant(i), LC.variable(prev), LC.variable(nxt))
        prev = nxt
    cs.enforce(LC.variable(prev), LC.constant(1), LC.variable(out))
    keypair = setup(cs, seed=3)
    return keypair.proving_key.to_bytes() + keypair.verifying_key.to_bytes()


@pytest.fixture(scope="module")
def key_reference():
    """The key on the pure path: the bytes every fallback must reproduce."""
    with native.pin_pure():
        return _key_bytes()


class TestFallback:
    def test_native_keys_match(self, kernel, key_reference):
        assert _key_bytes() == key_reference

    def test_no_compiler(self, fresh_load, monkeypatch, caplog, key_reference):
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        caplog.set_level(logging.WARNING, logger="zkrownn.native")
        assert native.kernel("fixed_base") is None
        assert native.status()["fixed_base"] == {
            "path": "python", "reason": native.NO_COMPILER
        }
        assert _key_bytes() == key_reference
        assert len(_fallback_lines(caplog)) == 1

    def test_wrong_known_answer_refuses_only_this_kernel(
        self, kernel, fresh_load, monkeypatch, caplog, key_reference
    ):
        right = CombKernel.mul_many

        def off_by_one(self, group, table, window, scalars):
            return right(self, group, table, window, [s + 1 for s in scalars])

        monkeypatch.setattr(CombKernel, "mul_many", off_by_one)
        caplog.set_level(logging.WARNING, logger="zkrownn.native")
        assert native.kernel("fixed_base") is None
        assert native.status()["fixed_base"]["reason"] == native.SELF_CHECK_FAILED
        # The other kernels from the same library still run natively.
        assert native.kernel("g1_msm") is not None
        assert native.kernel("compute_h") is not None
        assert _key_bytes() == key_reference
        assert len(_fallback_lines(caplog)) == 1

    def test_pin_pure_pins_this_kernel(self, kernel):
        with native.pin_pure():
            assert native.kernel("fixed_base") is None
            assert native.status()["fixed_base"]["reason"] == native.PINNED
        assert native.kernel("fixed_base") is kernel
