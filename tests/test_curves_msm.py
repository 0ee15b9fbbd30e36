"""Tests for multi-scalar multiplication and fixed-base tables."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import msm as msm_mod
from repro.curves.bn254 import P, R
from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point
from repro.curves.glv import GLV_LAMBDA, glv_decompose
from repro.curves.msm import (
    FixedBaseTableG1,
    FixedBaseTableG2,
    msm_g1,
    msm_g1_multi,
    msm_g2,
    naive_msm_g1,
    naive_msm_g2,
    pippenger_window_size,
)

G = G1Point.generator()
H = G2Point.generator()


def _affine(p: G1Point):
    return None if p.is_infinity() else (p.x, p.y)


class TestPippengerG1:
    @pytest.mark.parametrize("n", [1, 2, 5, 33, 150])
    def test_matches_naive(self, n, rng):
        points = [_affine(G * rng.randrange(1, 1000)) for _ in range(n)]
        scalars = [rng.randrange(R) for _ in range(n)]
        fast = G1Point.from_jacobian(msm_g1(points, scalars))
        slow = G1Point.from_jacobian(naive_msm_g1(points, scalars))
        assert fast == slow

    def test_scalar_sum_identity(self, rng):
        # sum k_i * G == (sum k_i) * G
        scalars = [rng.randrange(R) for _ in range(20)]
        points = [_affine(G)] * 20
        got = G1Point.from_jacobian(msm_g1(points, scalars))
        assert got == G * (sum(scalars) % R)

    def test_empty(self):
        assert G1Point.from_jacobian(msm_g1([], [])).is_infinity()

    def test_all_zero_scalars(self):
        points = [_affine(G), _affine(G * 2)]
        assert G1Point.from_jacobian(msm_g1(points, [0, 0])).is_infinity()

    def test_infinity_points_skipped(self):
        points = [None, _affine(G)]
        got = G1Point.from_jacobian(msm_g1(points, [5, 7]))
        assert got == G * 7

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            msm_g1([_affine(G)], [1, 2])

    def test_negative_wrap(self):
        got = G1Point.from_jacobian(msm_g1([_affine(G)], [R - 1]))
        assert got == -G


@pytest.mark.usefixtures("g1_msm_path")
@pytest.mark.parametrize("g1_msm_path", ["python"], indirect=True)
class TestPippengerG1Pure(TestPippengerG1):
    """:class:`TestPippengerG1` on the pure-Python G1 path (the class itself runs
    on whichever path the process has, the compiled one where it loads)."""


class TestPippengerG2:
    @pytest.mark.parametrize("n", [1, 3, 20])
    def test_matches_naive(self, n, rng):
        points = [H * rng.randrange(1, 50) for _ in range(n)]
        scalars = [rng.randrange(R) for _ in range(n)]
        assert msm_g2(points, scalars) == naive_msm_g2(points, scalars)

    def test_empty(self):
        assert msm_g2([], []).is_infinity()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            msm_g2([H], [])


class TestSignedG2MSM:
    def test_matches_naive(self):
        rng = random.Random(31)
        points, acc = [], H
        for _ in range(24):
            points.append(acc)
            acc = acc + H
        scalars = [rng.randrange(R) for _ in range(24)]
        assert msm_g2(points, scalars) == naive_msm_g2(points, scalars)

    def test_edge_cases(self):
        assert msm_g2([], []).is_infinity()
        assert msm_g2([H], [0]).is_infinity()
        assert msm_g2([G2Point.infinity()], [5]).is_infinity()
        assert msm_g2([H], [1]) == H
        assert msm_g2([H, H], [3, R - 3]).is_infinity()
        # Duplicate points exercise the shared-x (doubling) branch of the
        # batched Fp2 affine addition.
        assert msm_g2([H, H, H], [7, 7, 1]) == H * 15
        assert msm_g2([H], [R - 1]) == -H
        with pytest.raises(ValueError):
            msm_g2([H], [1, 2])


class TestWindowHeuristic:
    def test_monotone(self):
        sizes = [pippenger_window_size(n) for n in (1, 10, 100, 1000, 10**5)]
        assert sizes == sorted(sizes)

    def test_small_inputs(self):
        assert pippenger_window_size(1) >= 1

    # The measured static table is the only source of window widths: pin
    # both sides of every breakpoint so a moved edge shows up here.
    @pytest.mark.parametrize(
        "n, width",
        [
            (0, 3), (7, 3),
            (8, 5), (63, 5),
            (64, 6), (255, 6),
            (256, 7), (1023, 7),
            (1024, 9), (4095, 9),
            (4096, 10), (32767, 10),
            (32768, 12), (10**6, 12),
        ],
    )
    def test_static_table(self, n, width):
        assert pippenger_window_size(n) == width


# -- the one pipeline against the naive reference ------------------------------
#
# A small pool of multiples of the generators, closed under negation and
# with repeats, so drawn point lists collide inside buckets (doubling and
# cancellation branches of the batched affine add) far more often than
# random points would.
_G1_POOL = [_affine(G * k) for k in (1, 2, 3, 5, 64)]
_G1_POOL += [(x, -y % P) for x, y in _G1_POOL[:3]] + [None]
_G2_POOL = [H, H * 2, H * 7, -H, -(H * 2), G2Point.infinity()]

# The signed recoding carries out of the last natural window -- into the
# spare one the scatter allocates -- when a bucketed magnitude's bit
# length is a multiple of the window width and its top digit exceeds half.
# 120 ones do that at every width small inputs get (3, 5, 6), and
# ``a +- a*lambda`` GLV-splits back into exactly those halves; the
# all-ones full-width scalars do the same to G2, which does not split.
_ONES_120 = (1 << 120) - 1
_ADVERSARIAL_SCALARS = [
    0, 1, 2, R - 1, R, R + 1, 2 * R - 1, 2 * R,
    _ONES_120,
    (_ONES_120 + _ONES_120 * GLV_LAMBDA) % R,
    (_ONES_120 - _ONES_120 * GLV_LAMBDA) % R,
    (1 << 250) - 1, (1 << 252) - 1, (1 << 256) - 1,
]
_msm_scalars = st.one_of(
    st.sampled_from(_ADVERSARIAL_SCALARS),
    st.integers(0, 15),
    st.integers(0, R - 1),
    st.integers(R, 1 << 260),
)


@st.composite
def _msm_case(draw):
    n = draw(st.integers(0, 10))
    scalars = draw(st.lists(_msm_scalars, min_size=n, max_size=n))
    sets = draw(st.integers(1, 3))
    g1_lists = [
        draw(st.lists(st.sampled_from(_G1_POOL), min_size=n, max_size=n))
        for _ in range(sets)
    ]
    if n and draw(st.booleans()):
        g1_lists[-1] = [None] * n  # an all-infinity set beside live ones
    g2_points = draw(st.lists(st.sampled_from(_G2_POOL), min_size=n, max_size=n))
    return scalars, g1_lists, g2_points


class TestPipelineAgainstNaive:
    """``msm_g1``, ``msm_g1_multi`` and ``msm_g2`` are one body; drive all
    three entry points against the double-and-add reference."""

    @settings(max_examples=60, deadline=None)
    @given(case=_msm_case())
    def test_differential(self, case):
        scalars, g1_lists, g2_points = case
        want = [
            G1Point.from_jacobian(naive_msm_g1(ps, scalars)) for ps in g1_lists
        ]
        multi = msm_g1_multi(g1_lists, scalars)
        assert [G1Point.from_jacobian(p) for p in multi] == want
        assert [
            G1Point.from_jacobian(msm_g1(ps, scalars)) for ps in g1_lists
        ] == want
        assert msm_g2(g2_points, scalars) == naive_msm_g2(g2_points, scalars)

    def test_recoding_carry_reaches_the_spare_window(self):
        """Pin the adversarial scalar: its halves really do carry out of
        the last natural window, and the MSM still gets it right."""
        s = (_ONES_120 + _ONES_120 * GLV_LAMBDA) % R
        assert glv_decompose(s) == (_ONES_120, _ONES_120)
        c = pippenger_window_size(2)
        assert _ONES_120.bit_length() % c == 0
        pt = _affine(G)
        grids, windows = msm_mod._scatter_signed(
            [pt, pt], [_ONES_120] * 2, c, msm_mod._neg_affine_g1
        )
        stride = (1 << (c - 1)) + 1
        top = max(i // stride for i, bucket in enumerate(grids) if bucket)
        assert top == _ONES_120.bit_length() // c < windows
        assert G1Point.from_jacobian(msm_g1([pt], [s])) == G * s

    def test_keyword_arguments(self):
        got = msm_g1(points=[_affine(G)], scalars=[5])
        assert G1Point.from_jacobian(got) == G * 5
        assert msm_g2(points=[H], scalars=[5]) == H * 5

    def test_length_mismatch_in_any_set(self):
        with pytest.raises(ValueError):
            msm_g1_multi([[_affine(G)], [_affine(G), _affine(G)]], [1])


@pytest.mark.usefixtures("g1_msm_path")
@pytest.mark.parametrize("g1_msm_path", ["python"], indirect=True)
class TestPipelineAgainstNaivePure(TestPipelineAgainstNaive):
    """:class:`TestPipelineAgainstNaive` on the pure-Python G1 path (the class itself runs
    on whichever path the process has, the compiled one where it loads)."""


class TestFixedBaseG1:
    @pytest.fixture(scope="class")
    def table(self):
        return FixedBaseTableG1((G.x, G.y), window=4)

    def test_matches_scalar_mul(self, table, rng):
        for _ in range(5):
            k = rng.randrange(R)
            assert G1Point.from_jacobian(table.mul(k)) == G * k

    def test_zero(self, table):
        assert G1Point.from_jacobian(table.mul(0)).is_infinity()

    def test_one(self, table):
        assert G1Point.from_jacobian(table.mul(1)) == G

    def test_order(self, table):
        assert G1Point.from_jacobian(table.mul(R)).is_infinity()

    def test_mul_many(self, table):
        results = table.mul_many([2, 3])
        assert G1Point.from_jacobian(results[0]) == G * 2
        assert G1Point.from_jacobian(results[1]) == G * 3


class TestFixedBaseG2:
    @pytest.fixture(scope="class")
    def table(self):
        return FixedBaseTableG2(H, window=4)

    def test_matches_scalar_mul(self, table, rng):
        for _ in range(3):
            k = rng.randrange(R)
            assert table.mul(k) == H * k

    def test_zero(self, table):
        assert table.mul(0).is_infinity()

    def test_mul_many(self, table):
        assert table.mul_many([5])[0] == H * 5


# Scalars the lockstep comb must get right: the identity cases (0, R, 2R),
# the ends of the range, values above R, and small values whose high
# windows are all zero (their lanes stay empty for most of the walk).
_comb_scalars = st.lists(
    st.one_of(
        st.sampled_from([0, 1, 2, R - 1, R, R + 1, 2 * R, 2**256 + 5]),
        st.integers(0, 255),
        st.integers(0, R - 1),
        st.integers(R, 2**260),
    ),
    max_size=12,
)

_TABLES = {}


def _table(group, window):
    """Tables depend on (base, window) only; ``None`` = the default window."""
    if (group, window) not in _TABLES:
        kwargs = {} if window is None else {"window": window}
        _TABLES[group, window] = (
            FixedBaseTableG1((G.x, G.y), **kwargs)
            if group == "g1"
            else FixedBaseTableG2(H, **kwargs)
        )
    return _TABLES[group, window]


class TestLockstepMulMany:
    """``mul_many`` (lockstep batched affine) against the per-scalar ``mul``."""

    @staticmethod
    def _check(group, window, scalars):
        table = _table(group, window)
        want = {s: table.mul(s) for s in set(scalars)}
        many = table.mul_many(scalars)
        assert len(many) == len(scalars)
        for s, got in zip(scalars, many):
            if group == "g1":
                assert got[2] == (0 if s % R == 0 else 1)  # already normalized
                assert G1Point.from_jacobian(got) == G1Point.from_jacobian(want[s])
            else:
                assert got.is_infinity() == (s % R == 0)
                assert got == want[s]

    @pytest.mark.parametrize("group", ["g1", "g2"])
    @pytest.mark.parametrize("window", [4, None])
    @given(scalars=_comb_scalars)
    def test_matches_mul(self, group, window, scalars):
        self._check(group, window, scalars)

    @pytest.mark.parametrize("group", ["g1", "g2"])
    def test_empty_and_single(self, group):
        self._check(group, 4, [])
        self._check(group, 4, [R - 2])
        self._check(group, 4, [0])

    @pytest.mark.parametrize("group", ["g1", "g2"])
    def test_longer_than_one_tile(self, group, rng):
        """Tile boundaries: repeated scalars from a small pool, so the
        per-scalar reference stays cheap while the list spans two tiles."""
        pool = [0, 1, 77, R - 1, R] + [rng.randrange(R) for _ in range(12)]
        self._check(
            group, 4, [rng.choice(pool) for _ in range(msm_mod._COMB_TILE + 37)]
        )


class TestSharedScalarMultiMsm:
    """msm_g1_multi: several point sets, one scalar vector, one recoding."""

    def _inputs(self, rng, n, *, none_every=0):
        points = []
        for i in range(n):
            if none_every and i % none_every == 1:
                points.append(None)
            else:
                points.append(_affine(G * rng.randrange(1, 5000)))
        return points

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 200])
    def test_matches_independent_msms(self, n, rng):
        scalars = [rng.randrange(2 * R) for _ in range(n)]
        lists = [self._inputs(rng, n), self._inputs(rng, n)]
        got = [G1Point.from_jacobian(p) for p in msm_g1_multi(lists, scalars)]
        want = [G1Point.from_jacobian(msm_g1(ps, scalars)) for ps in lists]
        assert got == want

    def test_independent_infinity_patterns(self, rng):
        # The point sets may have None entries at DIFFERENT positions; the
        # shared recoding must not couple them.
        n = 60
        scalars = [0 if i % 9 == 4 else rng.randrange(R) for i in range(n)]
        lists = [
            self._inputs(rng, n, none_every=7),
            self._inputs(rng, n, none_every=5),
            self._inputs(rng, n, none_every=3),
        ]
        got = [G1Point.from_jacobian(p) for p in msm_g1_multi(lists, scalars)]
        want = [G1Point.from_jacobian(naive_msm_g1(ps, scalars)) for ps in lists]
        assert got == want

    def test_all_zero_scalars(self, rng):
        points = self._inputs(rng, 8)
        results = msm_g1_multi([points, points], [0] * 8)
        assert all(G1Point.from_jacobian(p).is_infinity() for p in results)

    def test_empty_and_length_mismatch(self, rng):
        assert msm_g1_multi([], []) == []
        with pytest.raises(ValueError):
            msm_g1_multi([[_affine(G)]], [1, 2])

    def test_single_list_equals_msm_g1(self, rng):
        n = 90
        points = self._inputs(rng, n)
        scalars = [rng.randrange(R) for _ in range(n)]
        (got,) = msm_g1_multi([points], scalars)
        assert G1Point.from_jacobian(got) == G1Point.from_jacobian(
            msm_g1(points, scalars)
        )



@pytest.mark.usefixtures("g1_msm_path")
@pytest.mark.parametrize("g1_msm_path", ["python"], indirect=True)
class TestSharedScalarMultiMsmPure(TestSharedScalarMultiMsm):
    """:class:`TestSharedScalarMultiMsm` on the pure-Python G1 path (the class itself runs
    on whichever path the process has, the compiled one where it loads)."""