"""Multi-scalar multiplication and fixed-base tables.

Groth16 cost structure:

* the trusted setup computes thousands of ``scalar * G`` products for a
  *fixed* base (the group generator) -- served by the comb-style
  :class:`FixedBaseTableG1` / :class:`FixedBaseTableG2`, whose tables are
  built with batch-affine addition (one shared inversion per digit) and
  whose ``mul_many`` runs the compiled comb of the ``fixed_base`` kernel
  (:class:`CombKernel`) when one loaded, else walks all scalars through
  the windows in lockstep, one shared inversion per batched affine
  addition (:func:`_lockstep_comb`);
* the prover computes a handful of large *variable-base* MSMs
  ``sum_i  s_i * P_i`` -- served by :func:`msm_g1` / :func:`msm_g1_multi`
  / :func:`msm_g2`.

There is ONE variable-base pipeline (:func:`_pippenger`) and ONE comb
table (:class:`_FixedBaseTable`); both are written against a small
group-ops record (:class:`_GroupOps`) and the public G1/G2 names are thin
adapters that pick the record and convert points at the edge.  The
pipeline stacks four classic optimizations on top of textbook Pippenger
bucketing:

1. **signed scalars**: a scalar above ``(R - 1) / 2`` is folded into its
   point as ``(R - s) * (-P)``, the same product.  A prover's witness is
   quantised -- magnitudes of at most ~36 bits -- but a small negative
   ``-k`` arrives as ``R - k``; folded, it is ``k`` again, and since the
   window count follows the largest magnitude, the witness and instance
   MSMs run ~36-bit windows instead of 254-bit ones;
2. **GLV splitting** (G1 only, :mod:`repro.curves.glv`): every magnitude
   of 128 bits or more becomes two ~127-bit halves via the curve's
   cube-root-of-unity endomorphism, halving the number of digit windows
   (a shorter one is left whole: its halves would be no shorter).  The
   split is the one stage several point sets sharing a scalar vector have
   in common, so :func:`msm_g1_multi` pays it once;
3. **signed digits**: base-``2^c`` digits recoded into ``[-2^(c-1),
   2^(c-1)]`` so negative digits reuse the (free) point negation and the
   bucket count halves;
4. **batch-affine buckets**: bucket contents are summed with plain affine
   addition whose slope denominators are inverted together (Montgomery's
   trick, :func:`~repro.field.prime.batch_inverse_ints`), ~6 modular
   multiplications per add versus ~12 for a Jacobian mixed add.

G2 runs the same stages over Fp2 coordinates with each round's Fp2
inversions amortized through :func:`~repro.curves.g2.g2_batch_affine_add`
and no GLV split (the G2 endomorphism has a different eigenvalue).  The
G2 MSM is the largest interpreted kernel of a prove (~20% of a warm MLP
prove).  A full-width scalar in an otherwise short MSM still sets every
window's width, which is why the prover passes its G2 blinding scalar as
eight 32-bit limbs against precomputed ``2^(32 k) * delta`` (see
:mod:`repro.snark.groth16`).

Every G1 point set goes to the compiled kernel of
:mod:`repro.curves.native` when one is loaded (the pipeline above then
runs for G2 only) and through the Python pipeline otherwise; the kernel
reduces and folds each scalar the same way, in C.  Both return the same
group element, so nothing downstream can tell them apart.

The naive double-and-add versions (:func:`naive_msm_g1` /
:func:`naive_msm_g2`) remain the reference the pipeline is
property-tested against.
"""

from __future__ import annotations

import ctypes
import functools
import random
import time
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from ..field.tower import Fp2Element
from ..native import kernel as _native_kernel
from ..obs import metrics as _obs_metrics
from .bn254 import G1_GENERATOR, G2_GENERATOR, P, R
from .g1 import (
    G1_INFINITY_JAC,
    JacobianPoint,
    jac_add,
    jac_add_mixed,
    jac_double,
    jac_is_infinity,
    jac_scalar_mul,
    jac_to_affine_many,
)
from .g2 import (
    G2_INFINITY_JAC,
    G2Point,
    g2_batch_affine_add,
    g2_from_jacobian,
    g2_jac_add_mixed,
    g2_jac_double,
    g2_jac_is_infinity,
    g2_jac_to_affine_many,
)
from .glv import glv_decompose, glv_endomorphism
from . import native

__all__ = [
    "msm_g1",
    "msm_g1_multi",
    "msm_g2",
    "naive_msm_g1",
    "naive_msm_g2",
    "FixedBaseTableG1",
    "FixedBaseTableG2",
    "pippenger_window_size",
]

AffinePoint = Optional[Tuple[int, int]]

SCALAR_BITS = 254

#: Scalars above this are folded to ``s - R`` (negative, shorter).
_HALF_R = (R - 1) // 2
#: Magnitudes below this skip the GLV split.
_GLV_MIN = 1 << 128


def pippenger_window_size(n: int) -> int:
    """Bucket-window width for an MSM over ``n`` (point, scalar) pairs.

    ``n`` counts the pairs the buckets actually see -- for G1 the GLV
    *split* half-scalar pairs, ~2x the input length.  The breakpoints
    were measured on the signed-digit batch-affine pipeline, where cheap
    bucket adds shift the optimum up by roughly one window width compared
    to textbook Jacobian bucketing (see ``benchmarks/bench_msm_kernels.py``).
    """
    # Best c measured (see bench_msm_kernels): 5 at 32 pairs, 6 at 128,
    # 7 at 512, 9 at 2048, 10 at 8192.
    if n < 8:
        return 3
    if n < 64:
        return 5
    if n < 256:
        return 6
    if n < 1024:
        return 7
    if n < 4096:
        return 9
    if n < 32768:
        return 10
    return 12


# -- batch-affine primitives ---------------------------------------------------


def _batch_affine_add(
    ps: Sequence[Tuple[int, int]], qs: Sequence[Tuple[int, int]]
) -> List[AffinePoint]:
    """Element-wise affine addition ``ps[i] + qs[i]`` with one inversion.

    All inputs must be finite points; the output is ``None`` where the sum
    is the point at infinity.  Equal points take the tangent (doubling)
    slope -- the group has odd order, so ``y`` is never zero there.

    Two passes: the forward pass classifies each pair and folds its slope
    denominator into one running product; the backward pass peels off the
    individual inverses (Montgomery's trick) and finishes the chord/tangent
    formulas in place, ~6 modular multiplications per addition.
    """
    p = P
    dens: List[int] = []
    nums: List[Optional[int]] = []
    prefix: List[int] = []
    da, na, pa = dens.append, nums.append, prefix.append
    acc = 1
    for (x1, y1), (x2, y2) in zip(ps, qs):
        # Inputs are canonical (< P), so the chord denominator x2 - x1 needs
        # no reduction: it is zero exactly when the x-coordinates collide,
        # and a negative representative multiplies correctly mod P.
        d = x2 - x1
        if d:
            num: Optional[int] = y2 - y1
        elif (y1 + y2) % p == 0:
            num = None
            d = 1
        else:
            num = 3 * x1 * x1
            d = 2 * y1
        da(d)
        na(num)
        pa(acc)
        acc = acc * d % p
    inv = pow(acc, -1, p)
    out: List[AffinePoint] = []
    oa = out.append
    for d, num, pre, p1, q1 in zip(
        reversed(dens), reversed(nums), reversed(prefix), reversed(ps), reversed(qs)
    ):
        inv_i = inv * pre % p
        inv = inv * d % p
        if num is None:
            oa(None)
            continue
        slope = num * inv_i % p
        x1, y1 = p1
        x3 = (slope * slope - x1 - q1[0]) % p
        oa((x3, (slope * (x1 - x3) - y1) % p))
    out.reverse()
    return out


BatchAffineAdd = Callable[[Sequence, Sequence], List]


def _neg_affine_g1(p: Tuple[int, int]) -> Tuple[int, int]:
    """Affine negation over raw Fp residues."""
    return (p[0], P - p[1])


def _neg_affine_g2(p) -> tuple:
    return (p[0], -p[1])


def _coords_g2(p) -> Tuple[int, int, int, int]:
    return (p[0].c0, p[0].c1, p[1].c0, p[1].c1)


def _from_coords_g2(c: Sequence[int]) -> tuple:
    return (Fp2Element(c[0], c[1]), Fp2Element(c[2], c[3]))


def _same(p):
    return p


class _GroupOps(NamedTuple):
    """Everything the MSM pipeline and the comb table know about a group.

    Affine points are ``(x, y)`` pairs of the group's coordinate type
    (``None`` = infinity); Jacobian points are whatever the group's
    ``jac_*`` functions trade in.  A different bucket reducer (say a
    vectorised one for very large inputs) would plug in as one
    ``batch_add`` here rather than as a parallel pipeline.
    """

    #: Affine negation.
    neg: Callable[[Any], Any]
    #: Element-wise affine addition of two point lists, one shared inversion.
    batch_add: BatchAffineAdd
    jac_double: Callable[[Any], Any]
    #: Jacobian + affine; from :attr:`infinity` it lifts the affine point.
    jac_add_mixed: Callable[[Any, Any], Any]
    is_infinity: Callable[[Any], bool]
    #: The point at infinity in Jacobian form.
    infinity: Any
    #: Batch normalization, Jacobian -> affine (``None`` for infinity).
    to_affine_many: Callable[[Sequence], List]
    #: GLV endomorphism on affine points, or ``None`` for "do not split".
    endo: Optional[Callable[[Any], Any]]
    #: The group's prefix in the compiled combs' names (``zk_g1_comb``).
    name: str
    #: Affine point -> its Fp coordinates, in the compiled layout's order.
    coords: Callable[[Any], Tuple[int, ...]]
    #: The inverse of :attr:`coords`.
    from_coords: Callable[[Tuple[int, ...]], Any]


_G1 = _GroupOps(
    neg=_neg_affine_g1,
    batch_add=_batch_affine_add,
    jac_double=jac_double,
    jac_add_mixed=jac_add_mixed,
    is_infinity=jac_is_infinity,
    infinity=G1_INFINITY_JAC,
    to_affine_many=jac_to_affine_many,
    endo=glv_endomorphism,
    name="g1",
    coords=_same,
    from_coords=_same,
)

_G2 = _GroupOps(
    neg=_neg_affine_g2,
    batch_add=g2_batch_affine_add,
    jac_double=g2_jac_double,
    jac_add_mixed=g2_jac_add_mixed,
    is_infinity=g2_jac_is_infinity,
    infinity=G2_INFINITY_JAC,
    to_affine_many=g2_jac_to_affine_many,
    endo=None,
    name="g2",
    coords=_coords_g2,
    from_coords=_from_coords_g2,
)


# -- the variable-base pipeline ------------------------------------------------


def _reduce_buckets(buckets: List[List], batch_add: BatchAffineAdd) -> List:
    """Sum each bucket's points, batching every round's additions together.

    Tree reduction over *all* buckets (typically every window's at once):
    each round pairs up the remaining points in every bucket and performs
    the whole round's additions with a single shared inversion, so ``m``
    scattered points cost ``O(log(max bucket load))`` inversions instead of
    ``m``.  Mutates ``buckets``; returns one affine point (or ``None``) per
    bucket.  Generic over the affine representation: ``batch_add`` supplies
    the element-wise addition (G1 or Fp2 G2).
    """
    pairs_p: List = []
    pairs_q: List = []
    active: List[Tuple[int, int]] = []  # (bucket index, pair count)
    while True:
        del pairs_p[:]
        del pairs_q[:]
        del active[:]
        for b, lst in enumerate(buckets):
            k = len(lst) >> 1
            if k:
                active.append((b, k))
                pairs_p.extend(lst[0 : 2 * k : 2])
                pairs_q.extend(lst[1 : 2 * k : 2])
        if not active:
            break
        sums = batch_add(pairs_p, pairs_q)
        idx = 0
        for b, k in active:
            lst = buckets[b]
            merged = [s for s in sums[idx : idx + k] if s is not None]
            idx += k
            if len(lst) & 1:
                merged.append(lst[-1])
            buckets[b] = merged
    return [lst[0] if lst else None for lst in buckets]


def _scatter_signed(
    points: Sequence, scalars: Sequence[int], c: int, neg: Callable[[Any], Any]
) -> Tuple[List[List], int]:
    """Scatter signed base-``2^c`` digits into the flat bucket grid.

    Buckets are laid out flat as ``window * (half + 1) + |digit|``; one
    spare window beyond ``bit_length // c`` absorbs the worst-case
    recoding carry.  ``neg`` negates an affine point (group-specific), so
    the same scatter serves G1 and Fp2 G2.  Scalars must be non-negative.
    """
    half = 1 << (c - 1)
    full = 1 << c
    mask = full - 1
    windows = max(s.bit_length() for s in scalars) // c + 2
    stride = half + 1
    grids: List[List] = [[] for _ in range(windows * stride)]
    for p, s in zip(points, scalars):
        neg_p = None
        base = 0
        while s:
            d = s & mask
            s >>= c
            if d > half:
                d -= full
                s += 1
            if d > 0:
                grids[base + d].append(p)
            elif d:
                if neg_p is None:
                    neg_p = neg(p)
                grids[base - d].append(neg_p)
            base += stride
    return grids, windows


def _window_sums(
    grids: List[List], windows: int, c: int, batch_add: BatchAffineAdd
) -> List:
    """Per-window bucket sums ``sum_b b * bucket[w][b]`` (affine or None).

    Window independence is exploited twice: every window's buckets join one
    global tree reduction (maximally wide inversion batches), and the
    per-window suffix sums advance in lockstep so each of their steps is a
    single batched affine addition across windows.  Generic over the
    affine representation via ``batch_add``.
    """
    sums = _reduce_buckets(grids, batch_add)
    half = 1 << (c - 1)
    stride = half + 1
    # Suffix-sum trick per window, all windows in lockstep: step b performs
    # `running += bucket[b]` as one batched affine addition of width
    # `windows`, and the running value after each step is recorded --
    # `window_sum = sum_b running_b`, so the recorded points feed one final
    # (wide, log-depth) tree reduction instead of a second sequential sweep.
    running: List = [None] * windows
    runnings: List[List] = [[] for _ in range(windows)]
    idxs: List[int] = []
    ps: List = []
    qs: List = []
    for b in range(half, 0, -1):
        del idxs[:], ps[:], qs[:]
        for w in range(windows):
            pt = sums[w * stride + b]
            if pt is None:
                continue
            r = running[w]
            if r is None:
                running[w] = pt
            else:
                idxs.append(w)
                ps.append(r)
                qs.append(pt)
        if ps:
            for w, r2 in zip(idxs, batch_add(ps, qs)):
                running[w] = r2
        for w in range(windows):
            r = running[w]
            if r is not None:
                runnings[w].append(r)
    return _reduce_buckets(runnings, batch_add)


def _positional_combine(group: _GroupOps, window_sum: List, c: int):
    """``total = sum_w 2^(c*w) * window_sum[w]`` in Jacobian coordinates.

    The only Jacobian stage of the pipeline: ``c`` doublings + 1 mixed
    addition per window; everything before it is affine with shared
    inversions (see :func:`_window_sums`).
    """
    total = group.infinity
    for w in range(len(window_sum) - 1, -1, -1):
        if not group.is_infinity(total):
            for _ in range(c):
                total = group.jac_double(total)
        pt = window_sum[w]
        if pt is not None:
            total = group.jac_add_mixed(total, pt)
    return total


def _pippenger(
    group: _GroupOps, points_lists: Sequence[Sequence], scalars: Sequence[int]
) -> List:
    """``[sum_i scalars[i] * points[i] for points in points_lists]``, Jacobian.

    The one variable-base pipeline: GLV split (when the group has an
    endomorphism) -> :func:`_scatter_signed` -> global bucket tree ->
    lockstep suffix sums -> :func:`_positional_combine`.  Points are affine
    pairs of the group's coordinate type, ``None`` = infinity.  G1 point
    sets go to the compiled kernel instead whenever
    :func:`~repro.curves.native.g1_kernel` has one; its G1 coordinates must
    then be non-negative ints below ``2^256`` (canonical ones are).

    Only the scalar-side work is shared between point sets: reduction mod
    ``R``, zero skipping, the sign fold and the GLV decomposition run once
    per scalar.
    Everything point-set-specific -- applying the endomorphism, sign flips,
    the window width (chosen from the set's surviving pair count), digit
    recoding inside the scatter, reduction -- runs per set.  Replaying one
    recoding across sets was measured slower than recoding inline, so there
    is no separate digit list.  ``None`` entries may appear in any point
    set independently; each set drops its own.
    """
    for points in points_lists:
        if len(points) != len(scalars):
            raise ValueError("points and scalars must have equal length")
    if group is _G1:
        kernel = native.g1_kernel()
        if kernel is not None:
            return kernel.msm_many(points_lists, scalars)
    endo = group.endo
    neg = group.neg
    # One pass over the scalars; the split of each is handed to every point
    # set before moving on, so nothing scalar-sized is kept besides the
    # per-set inputs of the scatter.  A scalar above (R - 1) / 2 is folded
    # to -(R - s), so a small negative stays small; negative magnitudes and
    # negative GLV halves flip the point's sign instead, so every bucketed
    # magnitude is non-negative.  A magnitude below 2^128 is not split: its
    # halves would be no shorter than it is.
    sets: List[Tuple[List, List[int]]] = [([], []) for _ in points_lists]
    for i, s in enumerate(scalars):
        s %= R
        if s == 0:
            continue
        if s > _HALF_R:
            s -= R
        if endo is not None and abs(s) >= _GLV_MIN:
            k1, k2 = glv_decompose(s)
        else:
            k1, k2 = s, 0
        for points, (set_points, set_scalars) in zip(points_lists, sets):
            p = points[i]
            if p is None:
                continue
            if k1:
                set_points.append(p if k1 > 0 else neg(p))
                set_scalars.append(abs(k1))
            if k2:
                q = endo(p)
                set_points.append(q if k2 > 0 else neg(q))
                set_scalars.append(abs(k2))
    results: List = []
    for set_points, set_scalars in sets:
        if not set_points:
            results.append(group.infinity)
            continue
        c = pippenger_window_size(len(set_points))
        grids, windows = _scatter_signed(set_points, set_scalars, c, neg)
        results.append(
            _positional_combine(
                group, _window_sums(grids, windows, c, group.batch_add), c
            )
        )
    return results


def _profiled_msm(group: str):
    """Opt-in duration profiling for an MSM entry point.

    Off (the default): one module-global read per MSM call -- an MSM is
    thousands of field operations, so the check is unmeasurable.  On
    (``ZKROWNN_PROFILE_KERNELS``): each call lands in the
    ``zkrownn_msm_seconds`` histogram, bucketed by scalar count.  Every
    decorated entry point names its last parameter ``scalars``, so the
    count is found whether it arrives positionally or by keyword
    (``mul_many`` methods are covered too).
    """
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _obs_metrics.kernel_profiling_enabled():
                return fn(*args, **kwargs)
            scalars = kwargs["scalars"] if "scalars" in kwargs else args[-1]
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            _obs_metrics.observe_kernel(
                "msm", len(scalars), time.perf_counter() - t0, group=group
            )
            return out
        return wrapper
    return wrap


@_profiled_msm("g1")
def msm_g1(points: Sequence[AffinePoint], scalars: Sequence[int]) -> JacobianPoint:
    """GLV + signed-window Pippenger MSM over G1.

    ``points`` are affine ``(x, y)`` tuples (``None`` = infinity, skipped);
    returns a Jacobian point.  Equal to ``msm_g1_multi([points],
    scalars)[0]`` -- it calls the same :func:`_pippenger` body directly so
    a profiled call is observed once, under ``group="g1"``.
    """
    return _pippenger(_G1, [points], scalars)[0]


@_profiled_msm("g1multi")
def msm_g1_multi(
    points_lists: Sequence[Sequence[AffinePoint]], scalars: Sequence[int]
) -> List[JacobianPoint]:
    """Several MSMs sharing ONE scalar vector (and its GLV split).

    Groth16's A and B1 commitments multiply *different* point sets by the
    *same* witness vector; reducing and decomposing each scalar once
    serves every set.  Results equal ``[msm_g1(ps, scalars) for ps in
    points_lists]`` exactly.

    ``None`` entries (infinity) may appear in any point set independently.
    """
    return _pippenger(_G1, points_lists, scalars)


@_profiled_msm("g2")
def msm_g2(points: Sequence[G2Point], scalars: Sequence[int]) -> G2Point:
    """Signed-window + batch-affine Pippenger MSM over G2.

    The G1 pipeline with the G2 record: each scalar's sign folded into its
    point, signed base-``2^c`` digits, one global bucket tree reduction,
    lockstep suffix sums, with every batched affine addition sharing a
    single Fp2 inversion through :func:`~repro.curves.g2.g2_batch_affine_add`
    (whose one base-field inversion Montgomery's trick amortizes across
    the whole round).  No GLV split: the G2 endomorphism (psi) has a
    different eigenvalue.  The prover's B commitment is this MSM over the
    witness, ~20% of a warm MLP prove with short windows.
    """
    affine = [None if p.is_infinity() else (p.x, p.y) for p in points]
    return g2_from_jacobian(_pippenger(_G2, [affine], scalars)[0])


def naive_msm_g1(points: Sequence[AffinePoint], scalars: Sequence[int]) -> JacobianPoint:
    """Reference MSM: independent double-and-add per term."""
    total = G1_INFINITY_JAC
    for p, s in zip(points, scalars):
        if p is None:
            continue
        total = jac_add(total, jac_scalar_mul((p[0], p[1], 1), s))
    return total


def naive_msm_g2(points: Sequence[G2Point], scalars: Sequence[int]) -> G2Point:
    total = G2Point.infinity()
    for p, s in zip(points, scalars):
        total = total + p * s
    return total


# -- fixed-base comb -----------------------------------------------------------

#: Scalars per lockstep pass of ``mul_many``: bounds the transient lane
#: lists; one shared inversion per window per tile is already noise.
_COMB_TILE = 1024

#: The default comb windows (see ``benchmarks/bench_msm_kernels.py``).
_G1_WINDOW = 8
_G2_WINDOW = 7


def _lockstep_comb(
    table: List[List], window: int, scalars: Sequence[int], batch_add: BatchAffineAdd
) -> List:
    """``s * base`` for every scalar off one comb table, all in lockstep.

    Walks the windows once per tile of scalars; per window, the selected
    table entry joins each scalar's *affine* accumulator through one
    batched addition with a shared inversion (``batch_add``), ~6 modular
    multiplications per add versus ~11 for the mixed Jacobian add of the
    single-scalar ``mul``.  Zero digits and still-empty accumulators skip
    the lane.  Returns affine points, ``None`` where ``s % R == 0``.

    The pure path of :meth:`_FixedBaseTable._mul_many`, and the oracle
    :meth:`CombKernel.self_check` holds the compiled comb to.
    """
    mask = (1 << window) - 1
    out: List = []
    idxs: List[int] = []
    ps: List = []
    qs: List = []
    for lo in range(0, len(scalars), _COMB_TILE):
        rem = [s % R for s in scalars[lo : lo + _COMB_TILE]]
        accs: List = [None] * len(rem)
        for row in table:
            del idxs[:], ps[:], qs[:]
            for i, s in enumerate(rem):
                d = s & mask
                if d:
                    acc = accs[i]
                    if acc is None:
                        accs[i] = row[d]
                    else:
                        idxs.append(i)
                        ps.append(acc)
                        qs.append(row[d])
            if ps:
                for i, acc in zip(idxs, batch_add(ps, qs)):
                    accs[i] = acc
            rem = [s >> window for s in rem]
        out.extend(accs)
    return out


def _pack_table(group: _GroupOps, table: List[List]) -> bytes:
    """A comb table's entries, row by row and digit 1 up, in the compiled
    combs' layout: each coordinate 32 little-endian bytes."""
    coords = group.coords
    return b"".join(
        [c.to_bytes(32, "little") for row in table for e in row[1:] for c in coords(e)]
    )


class CombKernel:
    """The library's fixed-base combs (``comb.c``): :func:`_lockstep_comb`
    for a G1 or G2 table in one call, plus the Fp2 operations the limb
    tests drive.  Loaded, checked and reported by :mod:`repro.native` as
    the ``fixed_base`` kernel."""

    #: Bytes per affine point out of each group's comb.
    _WIDTH = {"g1": 64, "g2": 128}
    #: Scalars per C call: bounds what one call allocates, in C and here,
    #: to ~2 MB, so setup's peak memory does not grow with the key; each
    #: call reloads the table (~1 ms for G1's).
    _BATCH = 4096

    def __init__(self, lib: ctypes.CDLL):
        buf = ctypes.c_char_p
        self._comb = {}
        for group in self._WIDTH:
            fn = getattr(lib, f"zk_{group}_comb")
            fn.argtypes = [ctypes.c_size_t, ctypes.c_uint, buf, buf, buf]
            fn.restype = ctypes.c_int
            self._comb[group] = fn
        self._fp2 = {}
        for op, arity in (("mul", 2), ("sqr", 1), ("inv", 1)):
            fn = getattr(lib, f"zk_fp2_{op}")
            fn.argtypes = [buf] * (arity + 1)
            fn.restype = None
            self._fp2[op] = fn

    def mul_many(
        self, group: _GroupOps, table: bytes, window: int, scalars: Sequence[int]
    ) -> List:
        """``s * base`` per scalar off a table :func:`_pack_table` packed:
        the group's affine points, ``None`` where ``s % R == 0``.  Scalars
        in ``[0, 2^256)`` go to C as they are (it reduces them); others are
        reduced here first."""
        out: List = []
        for lo in range(0, len(scalars), self._BATCH):
            out.extend(
                self._call(group, table, window, scalars[lo : lo + self._BATCH])
            )
        return out

    def _call(
        self, group: _GroupOps, table: bytes, window: int, scalars: Sequence[int]
    ) -> List:
        try:
            packed = b"".join([s.to_bytes(32, "little") for s in scalars])
        except OverflowError:
            packed = b"".join([(s % R).to_bytes(32, "little") for s in scalars])
        n, width = len(scalars), self._WIDTH[group.name]
        out = ctypes.create_string_buffer(width * n)
        rc = self._comb[group.name](n, window, table, packed, out)
        if rc < 0:
            raise MemoryError("native comb could not allocate its accumulators")
        if rc:
            raise ValueError(f"native comb refused window {window}")
        raw = out.raw
        ints = [int.from_bytes(raw[o : o + 32], "little") for o in range(0, len(raw), 32)]
        from_coords = group.from_coords
        return [
            from_coords(c) if any(c) else None
            for c in zip(*[iter(ints)] * (width // 32))
        ]

    def fp2(self, op: str, *args: Tuple[int, int]) -> Tuple[int, int]:
        """One Fp2 operation in the library's limbs (``op``: ``mul`` on two
        elements, ``sqr`` or ``inv`` on one), each a ``(c0, c1)`` pair of
        ints below ``2^256``; ``inv`` of zero is zero."""
        out = ctypes.create_string_buffer(64)
        self._fp2[op](
            *(c0.to_bytes(32, "little") + c1.to_bytes(32, "little") for c0, c1 in args),
            out,
        )
        raw = out.raw
        return int.from_bytes(raw[:32], "little"), int.from_bytes(raw[32:], "little")

    def self_check(self) -> bool:
        """Known answers from :func:`_lockstep_comb`, at each group's
        default window, then one Fp2 product and inverse.

        The tables hold +-1..4 times the generator, so accumulators keep
        meeting their next entry (a doubling) and its negation (the
        identity); the scalars are the boundaries ``0, 1, (R +- 1) / 2,
        R - 1, R, R + 5, 2^256 - 1`` and two seeded full-width ones.
        """
        rng = random.Random(0xC0B)
        scalars = [
            0, 1, (R - 1) // 2, (R + 1) // 2, R - 1, R, R + 5, (1 << 256) - 1,
            rng.randrange(R), rng.randrange(R),
        ]
        for group, base, window in (
            (_G1, G1_GENERATOR, _G1_WINDOW), (_G2, G2_GENERATOR, _G2_WINDOW)
        ):
            multiples = [group.jac_add_mixed(group.infinity, base)]
            for _ in range(3):
                multiples.append(group.jac_add_mixed(multiples[-1], base))
            pool = group.to_affine_many(multiples)
            pool += [group.neg(p) for p in pool]
            rows = (SCALAR_BITS + window - 1) // window
            picks = [
                [(7 * k + d) % len(pool) for d in range(1, 1 << window)]
                for k in range(rows)
            ]
            table = [[None] + [pool[i] for i in row] for row in picks]
            # Each pool point packed once: the table repeats them.
            packed_pool = [_pack_table(group, [[None, p]]) for p in pool]
            packed = b"".join([packed_pool[i] for row in picks for i in row])
            want = _lockstep_comb(table, window, scalars, group.batch_add)
            if self.mul_many(group, packed, window, scalars) != want:
                return False
        a, b = Fp2Element(P - 1, 5), Fp2Element(3, P - 2)
        return (
            self.fp2("mul", (P - 1, 5), (3 + P, P - 2)) == _pair(a * b)
            and self.fp2("inv", (P - 1, 5)) == _pair(a.inverse())
        )


def _pair(e: Fp2Element) -> Tuple[int, int]:
    return (e.c0, e.c1)


class _FixedBaseTable:
    """Comb-method fixed-base multiplier over one group record.

    Precomputes ``digit * 2^(w*i) * base`` for every window ``i`` and digit,
    so each subsequent scalar multiplication costs only ``ceil(254/w)``
    additions: mixed Jacobian ones in :meth:`_mul` and in the compiled
    comb, batched affine ones (:func:`_lockstep_comb`) in the pure
    :meth:`_mul_many`.  Used by the trusted setup, which multiplies the
    generators by thousands of evaluation scalars.

    The table is built in affine coordinates: the per-window bases come from
    one Jacobian doubling chain batch-normalized at the end, and every
    digit's row entries are produced by a single batched affine addition
    across all windows -- ``2^w - 2`` shared inversions total, instead of a
    Jacobian add plus a dedicated inversion per table entry.

    ``base_affine`` must hold canonical residues: the whole doubling/batch-add
    table build (and every later addition against its entries) runs on them
    unconverted.
    """

    def __init__(self, group: _GroupOps, base_affine, window: int):
        self._group = group
        self.window = window
        self.windows = (SCALAR_BITS + window - 1) // window
        bases_jac: List = []
        base_jac = group.jac_add_mixed(group.infinity, base_affine)
        for _ in range(self.windows):
            bases_jac.append(base_jac)
            for _ in range(window):
                base_jac = group.jac_double(base_jac)
        bases = group.to_affine_many(bases_jac)
        rows: List[List] = [[None, b] for b in bases]
        accs = list(bases)
        # digit d = 2 .. 2^w - 1: one batched add of `base` into every row.
        for _ in range((1 << window) - 2):
            accs = group.batch_add(accs, bases)
            for row, acc in zip(rows, accs):
                row.append(acc)
        self.table: List[List] = rows
        #: The table in the compiled layout, packed on the first compiled
        #: ``_mul_many`` and kept.
        self._packed: Optional[bytes] = None

    def _mul(self, scalar: int):
        """``scalar * base`` as a Jacobian point."""
        s = scalar % R
        add_mixed = self._group.jac_add_mixed
        acc = self._group.infinity
        mask = (1 << self.window) - 1
        for i in range(self.windows):
            digit = (s >> (i * self.window)) & mask
            if digit:
                entry = self.table[i][digit]
                if entry is not None:
                    acc = add_mixed(acc, entry)
        return acc

    def _mul_many(self, scalars: Sequence[int]) -> List:
        """``scalar * base`` per scalar, affine (``None`` = infinity): the
        compiled comb when the ``fixed_base`` kernel loaded, else
        :func:`_lockstep_comb`."""
        kernel = _native_kernel("fixed_base")
        if kernel is not None:
            if self._packed is None:
                self._packed = _pack_table(self._group, self.table)
            return kernel.mul_many(self._group, self._packed, self.window, scalars)
        return _lockstep_comb(
            self.table, self.window, scalars, self._group.batch_add
        )


class FixedBaseTableG1(_FixedBaseTable):
    """Comb-method fixed-base multiplier for G1 (see :class:`_FixedBaseTable`).

    Takes an affine ``(x, y)`` int pair, returns Jacobian points.
    """

    def __init__(self, base_affine: Tuple[int, int], window: int = _G1_WINDOW):
        super().__init__(_G1, (base_affine[0] % P, base_affine[1] % P), window)

    def mul(self, scalar: int) -> JacobianPoint:
        """Return ``scalar * base`` as a Jacobian point."""
        return self._mul(scalar)

    @_profiled_msm("g1_fixed")
    def mul_many(self, scalars: Sequence[int]) -> List[JacobianPoint]:
        """``[mul(s) for s in scalars]``, already normalized (``z`` is 1 or 0)."""
        return [
            G1_INFINITY_JAC if aff is None else (aff[0], aff[1], 1)
            for aff in self._mul_many(scalars)
        ]


class FixedBaseTableG2(_FixedBaseTable):
    """Comb-method fixed-base multiplier for G2 (see :class:`_FixedBaseTable`).

    Takes and returns :class:`~repro.curves.g2.G2Point`; rows hold affine
    ``(x, y)`` Fp2 pairs.  Per-mul time falls with the window on both
    paths while the table build, Python work once per process, doubles
    per bit.  On the compiled path 7 is where build plus comb is least for
    the MLP key's 4,812 G2 scalars (6 ties), and 8 would add ~60 ms to
    every process's first setup (``bench_msm_kernels`` records the sweep).
    """

    def __init__(self, base: G2Point, window: int = _G2_WINDOW):
        super().__init__(_G2, (base.x, base.y), window)

    def mul(self, scalar: int) -> G2Point:
        return g2_from_jacobian(self._mul(scalar))

    @_profiled_msm("g2_fixed")
    def mul_many(self, scalars: Sequence[int]) -> List[G2Point]:
        """``[mul(s) for s in scalars]``, through the compiled comb or
        :func:`_lockstep_comb`."""
        return [
            G2Point.infinity() if aff is None else G2Point(aff[0], aff[1])
            for aff in self._mul_many(scalars)
        ]
