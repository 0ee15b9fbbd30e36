"""Multi-scalar multiplication and fixed-base tables.

Groth16 cost structure:

* the trusted setup computes thousands of ``scalar * G`` products for a
  *fixed* base (the group generator) -- served by the comb-style
  :class:`FixedBaseTableG1` / :class:`FixedBaseTableG2`, whose tables are
  built with batch-affine addition (one shared inversion per digit) and
  whose ``mul_many`` walks all scalars through the windows in lockstep,
  again one shared inversion per batched affine addition;
* the prover computes a handful of large *variable-base* MSMs
  ``sum_i  s_i * P_i`` -- served by :func:`msm_g1` / :func:`msm_g2`.

The G1 hot path stacks three classic optimizations on top of textbook
Pippenger bucketing:

1. **GLV splitting** (:mod:`repro.curves.glv`): every 254-bit scalar
   becomes two ~127-bit halves via the curve's cube-root-of-unity
   endomorphism, halving the number of digit windows;
2. **signed digits**: base-``2^c`` digits recoded into ``[-2^(c-1),
   2^(c-1)]`` so negative digits reuse the (free) point negation and the
   bucket count halves;
3. **batch-affine buckets**: bucket contents are summed with plain affine
   addition whose slope denominators are inverted together (Montgomery's
   trick, :func:`~repro.field.prime.batch_inverse_ints`), ~6 modular
   multiplications per add versus ~12 for a Jacobian mixed add.

The G2 MSM (:func:`msm_g2`) runs the same signed-window + batch-affine
treatment over Fp2 coordinates, sharing the scatter/reduce kernel with
G1 and amortizing each round's Fp2 inversions through
:func:`~repro.curves.g2.g2_batch_affine_add`.

Field backends: the bucket arithmetic operates on whatever native
residues the active :mod:`repro.field.backend` supplies -- plain ints by
default, ``mpz`` under gmpy2 (callers wrap key material once at the
boundary, e.g. ``prepare_proving_key``) -- and under the ``montgomery``
backend the G1 batch-affine inner loops switch to Montgomery-form REDC
kernels (:func:`_batch_affine_add_mont`), converting points on entry and
window sums on exit only.  Results are identical across backends.

The PR-1 unsigned-window Jacobian paths are kept as
:func:`msm_g1_unsigned` / :func:`msm_g2_unsigned` -- the baselines the
kernel benchmark measures against -- and the naive double-and-add
versions (:func:`naive_msm_g1`) remain the reference the fast paths are
property-tested against.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..field.backend import get_field_ops
from ..obs import metrics as _obs_metrics
from .bn254 import P, R
from .g1 import (
    G1_INFINITY_JAC,
    JacobianPoint,
    jac_add,
    jac_add_mixed,
    jac_double,
    jac_scalar_mul,
    jac_to_affine_many,
)
from .g2 import (
    G2_INFINITY_JAC,
    G2Jacobian,
    G2Point,
    g2_batch_affine_add,
    g2_from_jacobian,
    g2_jac_add,
    g2_jac_add_mixed,
    g2_jac_double,
    g2_jac_to_affine_many,
    g2_to_jacobian,
    g2_wrap,
)
from .glv import glv_decompose, glv_endomorphism

__all__ = [
    "msm_g1",
    "msm_g1_multi",
    "msm_g1_unsigned",
    "msm_g2",
    "msm_g2_unsigned",
    "naive_msm_g1",
    "naive_msm_g2",
    "FixedBaseTableG1",
    "FixedBaseTableG2",
    "pippenger_window_size",
]

AffinePoint = Optional[Tuple[int, int]]

SCALAR_BITS = 254


def pippenger_window_size(n: int, *, signed: bool = True) -> int:
    """Bucket-window width for an MSM over ``n`` (point, scalar) pairs.

    ``signed=True`` is the GLV + signed-digit path (``n`` counts the
    *split* half-scalar pairs, so callers pass ~2x the input length); its
    breakpoints were re-measured on that path, where cheap batch-affine
    bucket adds shift the optimum up by roughly one window width compared
    to the unsigned Jacobian path (see ``benchmarks/bench_msm_kernels.py``).
    ``signed=False`` keeps the PR-1 heuristic used by the unsigned
    reference path and the G2 MSM.

    When a machine profile is loaded (``zkrownn tune``), its measured
    per-size window overrides take precedence over these static
    dev-box breakpoints; the tables below are the fallback.
    """
    from ..tuning.profile import pippenger_window_override

    override = pippenger_window_override(n, signed=signed)
    if override is not None:
        return override
    if signed:
        # Breakpoints measured on _signed_window_msm (see
        # bench_msm_kernels): best c was 5 at 32 pairs, 6 at 128, 7 at 512,
        # 9 at 2048, 10 at 8192.
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
    if n < 4:
        return 1
    if n < 32:
        return 3
    if n < 256:
        return 5
    if n < 2048:
        return 7
    if n < 16384:
        return 9
    return 11


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


def _batch_affine_add_mont(
    ps: Sequence[Tuple[int, int]], qs: Sequence[Tuple[int, int]], ops
) -> List[AffinePoint]:
    """Montgomery-form twin of :func:`_batch_affine_add`.

    Coordinates are canonical Montgomery residues in ``[0, p)``; every
    multiplication is an inline REDC (shift-and-mask, no ``%``), and the
    only divisions left in the whole pass are inside the single
    ``mont_inv``.  Outputs are canonicalized with conditional adds so the
    next round's collision detection (``x2 - x1 == 0``) stays exact --
    the correctness condition Montgomery laziness must not relax.
    """
    p = ops.modulus
    mask = ops.mont_mask
    np_ = ops.mont_nprime
    bits = ops.mont_bits
    dens: List[int] = []
    nums: List[Optional[int]] = []
    prefix: List[int] = []
    da, na, pa = dens.append, nums.append, prefix.append
    acc = ops.mont_one
    for (x1, y1), (x2, y2) in zip(ps, qs):
        d = x2 - x1
        if d:
            num: Optional[int] = y2 - y1
        elif (y1 + y2) % p == 0:
            num = None
            d = ops.mont_one
        else:
            # Tangent slope: one REDC keeps the numerator small enough
            # (< 3p) that the slope product below stays inside REDC's
            # |t| < R*p input window.
            t = x1 * x1
            num = 3 * ((t + (((t & mask) * np_) & mask) * p) >> bits)
            d = 2 * y1
        da(d)
        na(num)
        pa(acc)
        t = acc * d
        acc = (t + (((t & mask) * np_) & mask) * p) >> bits
        if acc >= p:
            acc -= p
        elif acc < 0:
            acc += p
    inv = ops.mont_inv(acc)
    out: List[AffinePoint] = []
    oa = out.append
    for d, num, pre, p1, q1 in zip(
        reversed(dens), reversed(nums), reversed(prefix), reversed(ps), reversed(qs)
    ):
        t = inv * pre
        inv_i = (t + (((t & mask) * np_) & mask) * p) >> bits
        if inv_i >= p:
            # Canonical: the slope product below needs |num * inv_i| < R*p,
            # and |num| can reach 3p (tangent case).
            inv_i -= p
        t = inv * d
        inv = (t + (((t & mask) * np_) & mask) * p) >> bits
        if inv >= p:
            inv -= p
        elif inv < 0:
            inv += p
        if num is None:
            oa(None)
            continue
        t = num * inv_i
        slope = (t + (((t & mask) * np_) & mask) * p) >> bits
        x1, y1 = p1
        t = slope * slope
        x3 = ((t + (((t & mask) * np_) & mask) * p) >> bits) - x1 - q1[0]
        if x3 < 0:
            x3 += p
            if x3 < 0:
                x3 += p
        elif x3 >= p:
            x3 -= p
        t = slope * (x1 - x3)
        # REDC of a negative product can land one modulus low, so like x3
        # this needs up to two upward corrections to stay canonical.
        y3 = ((t + (((t & mask) * np_) & mask) * p) >> bits) - y1
        if y3 < 0:
            y3 += p
            if y3 < 0:
                y3 += p
        elif y3 >= p:
            y3 -= p
        oa((x3, y3))
    out.reverse()
    return out


BatchAffineAdd = Callable[[Sequence, Sequence], List]


def _reduce_buckets(
    buckets: List[List], batch_add: BatchAffineAdd = _batch_affine_add
) -> List:
    """Sum each bucket's points, batching every round's additions together.

    Tree reduction over *all* buckets (typically every window's at once):
    each round pairs up the remaining points in every bucket and performs
    the whole round's additions with a single shared inversion, so ``m``
    scattered points cost ``O(log(max bucket load))`` inversions instead of
    ``m``.  Mutates ``buckets``; returns one affine point (or ``None``) per
    bucket.  Generic over the affine representation: ``batch_add`` supplies
    the element-wise addition (plain G1, Montgomery G1, or Fp2 G2).
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


def _signed_digits(s: int, c: int) -> List[Tuple[int, int]]:
    """Signed base-``2^c`` recoding of a non-negative scalar.

    Returns ``(window, digit)`` pairs with ``digit`` in ``[-2^(c-1),
    2^(c-1)] \\ {0}``, windows ascending -- exactly the digits the scatter
    loop of :func:`_signed_window_msm` derives inline.  Factored out so
    :func:`msm_g1_multi` can recode each scalar once and replay the digits
    against several point sets.
    """
    half = 1 << (c - 1)
    full = 1 << c
    mask = full - 1
    out: List[Tuple[int, int]] = []
    w = 0
    while s:
        d = s & mask
        s >>= c
        if d > half:
            d -= full
            s += 1
        if d:
            out.append((w, d))
        w += 1
    return out


def _neg_affine_g1(p: Tuple[int, int]) -> Tuple[int, int]:
    """Affine negation over raw Fp residues (valid in Montgomery form too:
    the Montgomery map is Fp-linear, so ``p - M(y) = M(p - y)``)."""
    return (p[0], P - p[1])


def _neg_affine_g2(p) -> tuple:
    return (p[0], -p[1])


def _scatter_signed(
    points: Sequence, scalars: Sequence[int], c: int, neg=_neg_affine_g1
) -> Tuple[List[List], int]:
    """Scatter signed base-``2^c`` digits into the flat bucket grid.

    Buckets are laid out flat as ``window * (half + 1) + |digit|``; one
    spare window beyond ``bit_length // c`` absorbs the worst-case
    recoding carry.  ``neg`` negates an affine point (group-specific), so
    the same scatter serves plain G1, Montgomery-form G1 and Fp2 G2.
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
    return _suffix_window_sums(sums, windows, c, batch_add)


def _suffix_window_sums(
    sums: List, windows: int, c: int, batch_add: BatchAffineAdd
) -> List:
    """Lockstep suffix sums over per-bucket totals (one point or None each).

    Split out of :func:`_window_sums` so the numpy bucket path can feed
    its vectorized grid reduction into the identical suffix stage: the
    suffix steps are width-``windows`` batches (~13 lanes), far below
    where vectorized kernels pay for their dispatch, so every backend
    shares this python implementation.
    """
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


def _positional_combine_g1(window_sum: List[AffinePoint], c: int) -> JacobianPoint:
    """``total = sum_w 2^(c*w) * window_sum[w]`` in Jacobian coordinates."""
    total = G1_INFINITY_JAC
    for w in range(len(window_sum) - 1, -1, -1):
        if total[2] != 0:
            for _ in range(c):
                total = jac_double(total)
        pt = window_sum[w]
        if pt is not None:
            total = jac_add_mixed(total, pt)
    return total


def _signed_window_msm(
    points: Sequence[Tuple[int, int]], scalars: Sequence[int], c: int
) -> JacobianPoint:
    """Pippenger over non-negative scalars with signed windows + batch affine.

    Only the final positional combine (``c`` doublings + 1 addition per
    window) runs in Jacobian coordinates; everything before it is affine
    with shared inversions (see :func:`_window_sums`).
    """
    grids, windows = _scatter_signed(points, scalars, c)
    return _positional_combine_g1(
        _window_sums(grids, windows, c, _batch_affine_add), c
    )


def _signed_window_msm_mont(
    points: Sequence[Tuple[int, int]], scalars: Sequence[int], c: int, ops
) -> JacobianPoint:
    """The signed-window MSM with its bucket arithmetic in Montgomery form.

    Points convert to Montgomery residues once on the way in (two REDCs per
    coordinate), every bucket/suffix addition runs through
    :func:`_batch_affine_add_mont`, and only the ~``windows`` surviving
    window sums convert back before the Jacobian positional combine --
    "converting at serialization boundaries only", applied to one kernel.
    """
    to_m = ops.to_mont
    mpoints = [(to_m(x), to_m(y)) for x, y in points]
    grids, windows = _scatter_signed(mpoints, scalars, c)

    def batch_add(ps, qs):
        return _batch_affine_add_mont(ps, qs, ops)

    sums = _window_sums(grids, windows, c, batch_add)
    from_m = ops.from_mont
    plain = [None if s is None else (from_m(s[0]), from_m(s[1])) for s in sums]
    return _positional_combine_g1(plain, c)


#: Below this many split pairs the numpy bucket path falls back to the
#: plain python kernel: vectorized rounds are dispatch-bound at narrow
#: widths (the full-MSM crossover measured ~8k pairs, i.e. ~4k points,
#: on the dev box), and results are byte-identical either way so routing
#: by size is safe.
NUMPY_MSM_MIN_PAIRS = 8192

#: Once a bucket-reduction round narrows below this many additions the
#: remaining rounds hand off to the shared-inversion python kernel --
#: per-round crossover, distinct from the whole-MSM routing floor above.
NUMPY_ROUND_MIN_PAIRS = 4096


def _scatter_signed_idx(
    scalars: Sequence[int], c: int, point_idx: Optional[Sequence[int]] = None
) -> Tuple[List[int], List[int], List[int], int]:
    """Signed-digit scatter emitting flat arrays instead of bucket lists.

    Returns ``(bucket_ids, point_indices, negate_flags, windows)`` --
    the same digits :func:`_scatter_signed` would produce, but as
    parallel lists ready to become numpy index arrays: entry ``k`` says
    point ``point_indices[k]`` (negated when ``negate_flags[k]``) lands
    in flat bucket ``bucket_ids[k]``.  ``point_idx`` maps scalar
    positions to point columns (identity when omitted).
    """
    half = 1 << (c - 1)
    full = 1 << c
    mask = full - 1
    windows = max(s.bit_length() for s in scalars) // c + 2
    stride = half + 1
    bids: List[int] = []
    pids: List[int] = []
    negs: List[int] = []
    ba, pa, na = bids.append, pids.append, negs.append
    for i, s in enumerate(scalars):
        col = i if point_idx is None else point_idx[i]
        base = 0
        while s:
            d = s & mask
            s >>= c
            if d > half:
                d -= full
                s += 1
            if d > 0:
                ba(base + d)
                pa(col)
                na(0)
            elif d:
                ba(base - d)
                pa(col)
                na(1)
            base += stride
    return bids, pids, negs, windows


def _numpy_window_sums(ctx, xs, ys, bids, pids, negs, n_buckets):
    """Gather scattered digits into limb arrays and reduce every bucket.

    ``xs, ys`` are the Montgomery-domain limb pool of the (finite) input
    points; fancy indexing materializes one column per scattered digit,
    negative digits negate ``y`` in-place on their slice, and the whole
    grid collapses through :func:`~repro.field.limb.reduce_bucket_grid`.
    Returns plain canonical bucket sums ready for the shared python
    suffix stage.
    """
    import numpy as np

    from ..field.limb import reduce_bucket_grid

    bid_arr = np.asarray(bids, dtype=np.int64)
    idx_arr = np.asarray(pids, dtype=np.int64)
    x = xs[:, idx_arr]
    y = ys[:, idx_arr]
    neg_arr = np.asarray(negs, dtype=bool)
    if neg_arr.any():
        sel = np.flatnonzero(neg_arr)
        y[:, sel] = ctx.negmod(y[:, sel])
    # Late rounds narrow below the vectorization crossover; hand them to
    # the shared-inversion python rounds (the int conversion happens at
    # exit regardless, so the handoff costs nothing extra).
    return reduce_bucket_grid(
        ctx,
        x,
        y,
        bid_arr,
        n_buckets,
        min_pairs=NUMPY_ROUND_MIN_PAIRS,
        tail_reduce=lambda buckets: _reduce_buckets(
            buckets, _batch_affine_add
        ),
    )


def _signed_window_msm_numpy(
    points: Sequence[Tuple[int, int]], scalars: Sequence[int], c: int
) -> JacobianPoint:
    """The signed-window MSM with vectorized limb-array bucket rounds.

    Point coordinates convert once into Montgomery-domain ``(L, n)``
    limb arrays; every bucket-reduction round then runs as a handful of
    wide numpy kernel passes (:func:`~repro.field.limb.batch_affine_add_limbs`)
    instead of ~6 CPython big-int multiplies per addition.  The
    scatter/recoding and the narrow suffix stage stay on the shared
    python code paths -- they are per-digit bookkeeping and ~13-lane
    batches respectively, where vectorization cannot pay.  Results are
    byte-identical to the other backends.
    """
    from ..field.limb import get_limb_context

    ctx = get_limb_context(P)
    xs = ctx.to_mont(ctx.to_limbs([p[0] for p in points]))
    ys = ctx.to_mont(ctx.to_limbs([p[1] for p in points]))
    bids, pids, negs, windows = _scatter_signed_idx(scalars, c)
    stride = (1 << (c - 1)) + 1
    sums = _numpy_window_sums(ctx, xs, ys, bids, pids, negs, windows * stride)
    return _positional_combine_g1(
        _suffix_window_sums(sums, windows, c, _batch_affine_add), c
    )


def _combine_windows(
    grids: List[List[Tuple[int, int]]], windows: int, c: int
) -> JacobianPoint:
    """Reduce scattered signed-window G1 buckets to one Jacobian point.

    Kept as the composition the scatter loops target: global bucket tree,
    lockstep suffix sums (:func:`_window_sums`), positional combine.
    """
    return _positional_combine_g1(
        _window_sums(grids, windows, c, _batch_affine_add), c
    )


def _profiled_msm(group: str):
    """Opt-in duration profiling for an MSM entry point.

    Off (the default): one module-global read per MSM call -- an MSM is
    thousands of field operations, so the check is unmeasurable.  On
    (``ZKROWNN_PROFILE_KERNELS``): each call lands in the
    ``zkrownn_msm_seconds`` histogram, bucketed by scalar count (the
    last argument, so ``mul_many`` methods are covered too).
    """
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            if not _obs_metrics.kernel_profiling_enabled():
                return fn(*args)
            t0 = time.perf_counter()
            out = fn(*args)
            _obs_metrics.observe_kernel(
                "msm", len(args[-1]), time.perf_counter() - t0, group=group
            )
            return out
        return wrapper
    return wrap


@_profiled_msm("g1")
def msm_g1(points: Sequence[AffinePoint], scalars: Sequence[int]) -> JacobianPoint:
    """GLV + signed-window Pippenger MSM over G1.

    ``points`` are affine ``(x, y)`` tuples (``None`` = infinity, skipped);
    returns a Jacobian point.  Each surviving pair is split into two
    half-width pairs via the GLV endomorphism; negative halves flip the
    point's sign so every bucketed scalar is non-negative.  The bucket
    arithmetic runs in Montgomery form when the active field backend asks
    for it (``ZKROWNN_FIELD_BACKEND=montgomery``); results are identical.
    """
    if len(points) != len(scalars):
        raise ValueError("points and scalars must have equal length")
    split_points: List[Tuple[int, int]] = []
    split_scalars: List[int] = []
    for p, s in zip(points, scalars):
        if p is None:
            continue
        s %= R
        if s == 0:
            continue
        k1, k2 = glv_decompose(s)
        if k1:
            split_points.append(p if k1 > 0 else (p[0], P - p[1]))
            split_scalars.append(k1 if k1 > 0 else -k1)
        if k2:
            q = glv_endomorphism(p)
            split_points.append(q if k2 > 0 else (q[0], P - q[1]))
            split_scalars.append(k2 if k2 > 0 else -k2)
    if not split_points:
        return G1_INFINITY_JAC
    c = pippenger_window_size(len(split_points))
    ops = get_field_ops(P)
    if ops.montgomery_kernels:
        return _signed_window_msm_mont(split_points, split_scalars, c, ops)
    if ops.numpy_kernels and len(split_points) >= NUMPY_MSM_MIN_PAIRS:
        return _signed_window_msm_numpy(split_points, split_scalars, c)
    return _signed_window_msm(split_points, split_scalars, c)


@_profiled_msm("g1multi")
def msm_g1_multi(
    points_lists: Sequence[Sequence[AffinePoint]], scalars: Sequence[int]
) -> List[JacobianPoint]:
    """Several MSMs sharing ONE scalar vector (and its recoding work).

    Groth16's A and B1 commitments multiply *different* point sets by the
    *same* witness vector; decomposing and recoding each scalar once and
    replaying the digits against every point set saves the whole
    non-arithmetic half of the second MSM (GLV splits, signed-digit
    carries, window bookkeeping).  Point-set-specific work -- applying the
    endomorphism, sign flips, bucket scatter, reduction -- still runs per
    set, so results equal ``[msm_g1(ps, scalars) for ps in points_lists]``
    exactly.

    ``None`` entries (infinity) may appear in any point set independently;
    they are skipped at scatter time, after the shared recoding.
    """
    for points in points_lists:
        if len(points) != len(scalars):
            raise ValueError("points and scalars must have equal length")
    if not points_lists:
        return []
    # Shared phase: one GLV split per scalar, then (once the split count
    # fixes the window width) one signed recoding per half-scalar.
    splits: List[Tuple[int, bool, bool]] = []  # (input index, use endo, negate)
    magnitudes: List[int] = []
    for i, s in enumerate(scalars):
        s %= R
        if s == 0:
            continue
        k1, k2 = glv_decompose(s)
        if k1:
            splits.append((i, False, k1 < 0))
            magnitudes.append(abs(k1))
        if k2:
            splits.append((i, True, k2 < 0))
            magnitudes.append(abs(k2))
    if not splits:
        return [G1_INFINITY_JAC] * len(points_lists)
    c = pippenger_window_size(len(splits))
    digit_lists = [_signed_digits(k, c) for k in magnitudes]
    windows = max(d[-1][0] for d in digit_lists) + 1
    half = 1 << (c - 1)
    stride = half + 1
    ops = get_field_ops(P)
    if ops.numpy_kernels and len(splits) >= NUMPY_MSM_MIN_PAIRS:
        return _msm_g1_multi_numpy(points_lists, splits, digit_lists, windows, c)
    mont = ops.montgomery_kernels
    if mont:
        to_m = ops.to_mont
        from_m = ops.from_mont

        def batch_add(ps, qs):
            return _batch_affine_add_mont(ps, qs, ops)

    results: List[JacobianPoint] = []
    for points in points_lists:
        grids: List[List[Tuple[int, int]]] = [[] for _ in range(windows * stride)]
        for (i, endo, negate), digits in zip(splits, digit_lists):
            p = points[i]
            if p is None:
                continue
            if endo:
                p = glv_endomorphism(p)
            if negate:
                p = (p[0], P - p[1])
            if mont:
                p = (to_m(p[0]), to_m(p[1]))
            neg_p: Optional[Tuple[int, int]] = None
            for w, d in digits:
                if d > 0:
                    grids[w * stride + d].append(p)
                else:
                    if neg_p is None:
                        neg_p = (p[0], P - p[1])
                    grids[w * stride - d].append(neg_p)
        if mont:
            sums = _window_sums(grids, windows, c, batch_add)
            plain = [
                None if s is None else (from_m(s[0]), from_m(s[1])) for s in sums
            ]
            results.append(_positional_combine_g1(plain, c))
        else:
            results.append(_combine_windows(grids, windows, c))
    return results


def _msm_g1_multi_numpy(
    points_lists: Sequence[Sequence[AffinePoint]],
    splits: Sequence[Tuple[int, bool, bool]],
    digit_lists: Sequence[List[Tuple[int, int]]],
    windows: int,
    c: int,
) -> List[JacobianPoint]:
    """The shared-recoding multi-MSM with numpy limb bucket rounds.

    The GLV splits and signed digits are already computed once by
    :func:`msm_g1_multi`; this replays them per point set, building each
    set's Montgomery limb pool and flat digit arrays, then reduces the
    grid with the vectorized kernel.  ``None`` entries in a point set
    drop that set's corresponding digits, exactly like the scalar paths.
    """
    from ..field.limb import get_limb_context

    ctx = get_limb_context(P)
    stride = (1 << (c - 1)) + 1
    results: List[JacobianPoint] = []
    for points in points_lists:
        split_pts: List[Tuple[int, int]] = []
        col_of_split: List[int] = []
        for i, endo, negate in splits:
            p = points[i]
            if p is None:
                col_of_split.append(-1)
                continue
            if endo:
                p = glv_endomorphism(p)
            if negate:
                p = (p[0], P - p[1])
            col_of_split.append(len(split_pts))
            split_pts.append(p)
        if not split_pts:
            results.append(G1_INFINITY_JAC)
            continue
        xs = ctx.to_mont(ctx.to_limbs([p[0] for p in split_pts]))
        ys = ctx.to_mont(ctx.to_limbs([p[1] for p in split_pts]))
        bids: List[int] = []
        pids: List[int] = []
        negs: List[int] = []
        ba, pa, na = bids.append, pids.append, negs.append
        for col, digits in zip(col_of_split, digit_lists):
            if col < 0:
                continue
            for w, d in digits:
                if d > 0:
                    ba(w * stride + d)
                    pa(col)
                    na(0)
                else:
                    ba(w * stride - d)
                    pa(col)
                    na(1)
        sums = _numpy_window_sums(ctx, xs, ys, bids, pids, negs, windows * stride)
        results.append(
            _positional_combine_g1(
                _suffix_window_sums(sums, windows, c, _batch_affine_add), c
            )
        )
    return results


def msm_g1_unsigned(
    points: Sequence[AffinePoint], scalars: Sequence[int]
) -> JacobianPoint:
    """The PR-1 Pippenger MSM: unsigned windows, Jacobian bucket adds.

    Kept verbatim as the baseline ``bench_msm_kernels`` measures the GLV +
    signed-window path against, and as a second fast implementation for
    differential property tests.
    """
    if len(points) != len(scalars):
        raise ValueError("points and scalars must have equal length")
    pairs = [
        (p, s % R)
        for p, s in zip(points, scalars)
        if p is not None and s % R != 0
    ]
    if not pairs:
        return G1_INFINITY_JAC
    c = pippenger_window_size(len(pairs), signed=False)
    mask = (1 << c) - 1
    windows = (SCALAR_BITS + c - 1) // c
    total = G1_INFINITY_JAC
    for w in range(windows - 1, -1, -1):
        if total != G1_INFINITY_JAC:
            for _ in range(c):
                total = jac_double(total)
        shift = w * c
        buckets: List[JacobianPoint] = [G1_INFINITY_JAC] * (mask + 1)
        for point, scalar in pairs:
            digit = (scalar >> shift) & mask
            if digit:
                buckets[digit] = jac_add_mixed(buckets[digit], point)
        # Suffix-sum trick: sum_b b * bucket[b] with 2*(2^c) additions.
        running = G1_INFINITY_JAC
        window_sum = G1_INFINITY_JAC
        for b in range(mask, 0, -1):
            if buckets[b] != G1_INFINITY_JAC:
                running = jac_add(running, buckets[b])
            window_sum = jac_add(window_sum, running)
        total = jac_add(total, window_sum)
    return total


@_profiled_msm("g2")
def msm_g2(points: Sequence[G2Point], scalars: Sequence[int]) -> G2Point:
    """Signed-window + batch-affine Pippenger MSM over G2.

    The same kernel shape as the G1 path -- signed base-``2^c`` digits,
    one global bucket tree reduction, lockstep suffix sums -- with every
    batched affine addition sharing a single Fp2 inversion through
    :func:`~repro.curves.g2.g2_batch_affine_add` (whose one base-field
    inversion Montgomery's trick amortizes across the whole round).  No
    GLV split: the G2 endomorphism (psi) has a different eigenvalue and
    G2 MSMs are a single-digit percentage of prove time; signed windows
    alone halve the bucket count over the retired unsigned path
    (:func:`msm_g2_unsigned`, kept as the differential-test baseline).
    """
    if len(points) != len(scalars):
        raise ValueError("points and scalars must have equal length")
    pairs = [
        ((p.x, p.y), s % R)
        for p, s in zip(points, scalars)
        if not p.is_infinity() and s % R != 0
    ]
    if not pairs:
        return G2Point.infinity()
    c = pippenger_window_size(len(pairs))
    grids, windows = _scatter_signed(
        [p for p, _ in pairs], [s for _, s in pairs], c, neg=_neg_affine_g2
    )
    window_sum = _window_sums(grids, windows, c, g2_batch_affine_add)
    total = G2_INFINITY_JAC
    for w in range(windows - 1, -1, -1):
        if not total[2].is_zero():
            for _ in range(c):
                total = g2_jac_double(total)
        pt = window_sum[w]
        if pt is not None:
            total = g2_jac_add_mixed(total, pt)
    return g2_from_jacobian(total)


def msm_g2_unsigned(points: Sequence[G2Point], scalars: Sequence[int]) -> G2Point:
    """The PR-2 G2 MSM: unsigned windows, Jacobian bucket adds.

    Kept verbatim as the baseline the signed path is property-tested and
    benchmarked against.
    """
    if len(points) != len(scalars):
        raise ValueError("points and scalars must have equal length")
    pairs = [
        (g2_to_jacobian(p), s % R)
        for p, s in zip(points, scalars)
        if not p.is_infinity() and s % R != 0
    ]
    if not pairs:
        return G2Point.infinity()
    c = pippenger_window_size(len(pairs), signed=False)
    mask = (1 << c) - 1
    windows = (SCALAR_BITS + c - 1) // c
    total = G2_INFINITY_JAC
    for w in range(windows - 1, -1, -1):
        if not total[2].is_zero():
            for _ in range(c):
                total = g2_jac_double(total)
        shift = w * c
        buckets: List[G2Jacobian] = [G2_INFINITY_JAC] * (mask + 1)
        for point, scalar in pairs:
            digit = (scalar >> shift) & mask
            if digit:
                buckets[digit] = g2_jac_add(buckets[digit], point)
        running = G2_INFINITY_JAC
        window_sum = G2_INFINITY_JAC
        for b in range(mask, 0, -1):
            if not buckets[b][2].is_zero():
                running = g2_jac_add(running, buckets[b])
            window_sum = g2_jac_add(window_sum, running)
        total = g2_jac_add(total, window_sum)
    return g2_from_jacobian(total)


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


#: Scalars per lockstep pass of ``mul_many``: bounds the transient lane
#: lists; one shared inversion per window per tile is already noise.
_COMB_TILE = 1024


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


class FixedBaseTableG1:
    """Comb-method fixed-base multiplier for G1.

    Precomputes ``digit * 2^(w*i) * base`` for every window ``i`` and digit,
    so each subsequent scalar multiplication costs only ``ceil(254/w)``
    additions: mixed Jacobian ones in :meth:`mul`, batched affine ones
    (:func:`_lockstep_comb`) in :meth:`mul_many`.  Used by the trusted
    setup, which multiplies the generator by thousands of evaluation scalars.

    The table is built in affine coordinates: the per-window bases come from
    one Jacobian doubling chain batch-normalized at the end, and every
    digit's row entries are produced by a single batched affine addition
    across all windows -- ``2^w - 2`` shared inversions total, instead of a
    Jacobian add plus a dedicated inversion per table entry.
    """

    def __init__(self, base_affine: Tuple[int, int], window: int = 8):
        self.window = window
        self.windows = (SCALAR_BITS + window - 1) // window
        # One boundary conversion: the whole doubling/batch-add table build
        # (and every later mixed addition against its entries) runs on the
        # active backend's native residues.
        ops = get_field_ops(P)
        base_affine = (ops.wrap(base_affine[0]), ops.wrap(base_affine[1]))
        bases_jac: List[JacobianPoint] = []
        base_jac: JacobianPoint = (base_affine[0], base_affine[1], 1)
        for _ in range(self.windows):
            bases_jac.append(base_jac)
            for _ in range(window):
                base_jac = jac_double(base_jac)
        bases = jac_to_affine_many(bases_jac)
        rows: List[List[AffinePoint]] = [[None, b] for b in bases]
        accs = list(bases)
        # digit d = 2 .. 2^w - 1: one batched add of `base` into every row.
        for _ in range((1 << window) - 2):
            accs = _batch_affine_add(accs, bases)
            for row, acc in zip(rows, accs):
                row.append(acc)
        self.table: List[List[AffinePoint]] = rows

    def mul(self, scalar: int) -> JacobianPoint:
        """Return ``scalar * base`` as a Jacobian point."""
        s = scalar % R
        acc = G1_INFINITY_JAC
        mask = (1 << self.window) - 1
        for i in range(self.windows):
            digit = (s >> (i * self.window)) & mask
            if digit:
                entry = self.table[i][digit]
                if entry is not None:
                    acc = jac_add_mixed(acc, entry)
        return acc

    @_profiled_msm("g1_fixed")
    def mul_many(self, scalars: Sequence[int]) -> List[JacobianPoint]:
        """``[mul(s) for s in scalars]``, already normalized (``z`` is 1 or 0)."""
        return [
            G1_INFINITY_JAC if aff is None else (aff[0], aff[1], 1)
            for aff in _lockstep_comb(
                self.table, self.window, scalars, _batch_affine_add
            )
        ]


class FixedBaseTableG2:
    """Comb-method fixed-base multiplier for G2.

    Rows hold affine ``(x, y)`` Fp2 pairs built with batched affine
    additions (one Fp2 inversion per digit, shared across windows);
    :meth:`mul` accumulates them with mixed Jacobian additions,
    :meth:`mul_many` with lockstep batched affine ones.  Per-mul time
    keeps falling with the window while the table build doubles per bit;
    7 is where the next bit would add ~70 ms to every process's first
    setup (``bench_msm_kernels`` records the sweep).
    """

    def __init__(self, base: G2Point, window: int = 7):
        self.window = window
        self.windows = (SCALAR_BITS + window - 1) // window
        base = g2_wrap(base, get_field_ops(P))
        bases_jac: List[G2Jacobian] = []
        base_jac = g2_to_jacobian(base)
        for _ in range(self.windows):
            bases_jac.append(base_jac)
            for _ in range(window):
                base_jac = g2_jac_double(base_jac)
        bases = g2_jac_to_affine_many(bases_jac)
        rows: List[List[Optional[tuple]]] = [[None, b] for b in bases]
        accs = list(bases)
        for _ in range((1 << window) - 2):
            accs = g2_batch_affine_add(accs, bases)
            for row, acc in zip(rows, accs):
                row.append(acc)
        self.table: List[List[Optional[tuple]]] = rows

    def mul(self, scalar: int) -> G2Point:
        s = scalar % R
        acc = G2_INFINITY_JAC
        mask = (1 << self.window) - 1
        for i in range(self.windows):
            digit = (s >> (i * self.window)) & mask
            if digit:
                entry = self.table[i][digit]
                if entry is not None:
                    acc = g2_jac_add_mixed(acc, entry)
        return g2_from_jacobian(acc)

    @_profiled_msm("g2_fixed")
    def mul_many(self, scalars: Sequence[int]) -> List[G2Point]:
        """``[mul(s) for s in scalars]`` through :func:`_lockstep_comb`."""
        return [
            G2Point.infinity() if aff is None else G2Point(aff[0], aff[1])
            for aff in _lockstep_comb(
                self.table, self.window, scalars, g2_batch_affine_add
            )
        ]
