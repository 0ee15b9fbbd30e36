"""Number-theoretic transform over the BN254 scalar field.

The QAP reduction in Groth16 interpolates/evaluates polynomials over a
power-of-two multiplicative subgroup of Fr.  BN254's scalar field has
2-adicity 28, so domains up to 2^28 are available -- far beyond what the
pure-Python prover ever touches.

All functions work on lists of raw integers modulo ``Fr.modulus`` (the hot
path for proving) through one transform, :func:`ntt`: an in-place radix-2
loop with one big-int multiply per butterfly, which is the shape CPython
runs fastest (stage-at-a-time array butterflies measured 0.66-0.85x of it).
Every per-size constant is precomputed and cached:

* stage twiddle tables (one list per butterfly stage, derived from the
  top stage by stride-2 subsampling), so the NTT inner loop is a table
  lookup instead of a sequential ``w *= w_len`` multiply chain;
* bit-reversal permutation indices;
* coset-shift power vectors for :meth:`EvaluationDomain.coset_fft` /
  :meth:`~EvaluationDomain.coset_ifft`, replacing the per-call ``pow``
  chains.

:class:`EvaluationDomain` instances are themselves cached per size in a
process-wide registry (:func:`get_domain`) -- repeated proofs for circuits
of the same domain size (the ZKROWNN amortized lifecycle) never recompute
roots of unity or tables.

All tables and butterfly values are canonical residues (plain ints).
"""

from __future__ import annotations

import functools
import time
from typing import Dict, List, Sequence, Tuple

from ..obs import metrics as _obs_metrics
from .prime import BN254_R as R
from .prime import Fr

__all__ = ["EvaluationDomain", "get_domain", "ntt", "intt", "next_power_of_two"]


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= max(n, 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


_BITREV_CACHE: Dict[int, List[Tuple[int, int]]] = {}


def _bitrev_swaps(n: int) -> List[Tuple[int, int]]:
    """The ``i < j`` swap pairs of the bit-reversal permutation of size n."""
    swaps = _BITREV_CACHE.get(n)
    if swaps is None:
        swaps = []
        j = 0
        for i in range(1, n):
            bit = n >> 1
            while j & bit:
                j ^= bit
                bit >>= 1
            j |= bit
            if i < j:
                swaps.append((i, j))
        _BITREV_CACHE[n] = swaps
    return swaps


_TWIDDLE_CACHE: Dict[Tuple[int, int], List[List[int]]] = {}


def _stage_twiddles(n: int, omega: int) -> List[List[int]]:
    """Twiddle tables for every butterfly stage, smallest stage first.

    Stage for block length ``L`` uses ``w_L = omega^(n/L)`` and needs
    ``w_L^j`` for ``j < L/2``.  The top stage (``L = n``) table is built
    once by iterated multiplication; every smaller stage is its stride-2
    subsampling, so the whole cache costs ``n/2`` multiplications.
    Tables are cached per (size, root).
    """
    key = (n, int(omega))
    tables = _TWIDDLE_CACHE.get(key)
    if tables is None:
        top = _powers(omega % R, n // 2)
        tables = []
        length = 2
        while length < n:
            tables.append(top[:: n // length][: length // 2])
            length <<= 1
        tables.append(top)
        _TWIDDLE_CACHE[key] = tables
    return tables


def _profiled_ntt(direction: str):
    """Opt-in duration profiling for a transform entry point.

    Off (default): one module-global read per call.  On
    (``ZKROWNN_PROFILE_KERNELS``): the call lands in
    ``zkrownn_ntt_seconds`` bucketed by size.  An ``inv`` observation
    includes the forward transform it runs internally (which is *also*
    observed as ``fwd``) -- durations nest, counts do not dedupe.
    """
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(values, omega):
            if not _obs_metrics.kernel_profiling_enabled():
                return fn(values, omega)
            t0 = time.perf_counter()
            out = fn(values, omega)
            _obs_metrics.observe_kernel(
                "ntt", len(values), time.perf_counter() - t0,
                direction=direction,
            )
            return out
        return wrapper
    return wrap


@_profiled_ntt("fwd")
def ntt(values: Sequence[int], omega: int) -> List[int]:
    """In-order radix-2 NTT of ``values`` using primitive root ``omega``.

    ``len(values)`` must be a power of two and ``omega`` a primitive root of
    unity of exactly that order.  Twiddle tables and the bit-reversal
    permutation are cached per ``(size, omega)``; outputs are canonical
    residues.
    """
    n = len(values)
    if n & (n - 1):
        raise ValueError("NTT size must be a power of two")
    out = [v % R for v in values]
    if n <= 1:
        return out
    for i, j in _bitrev_swaps(n):
        out[i], out[j] = out[j], out[i]
    r = R  # a local: the butterfly below reads it three times per pair
    length = 2
    for twiddles in _stage_twiddles(n, omega):
        half = length >> 1
        for start in range(0, n, length):
            k = start
            for w in twiddles:
                kh = k + half
                odd = out[kh] * w % r
                even = out[k]
                out[k] = (even + odd) % r
                out[kh] = (even - odd) % r
                k += 1
        length <<= 1
    return out


@_profiled_ntt("inv")
def intt(values: Sequence[int], omega: int) -> List[int]:
    """Inverse NTT: recovers coefficients from evaluations."""
    n = len(values)
    out = ntt(values, pow(int(omega), -1, R))
    n_inv = pow(n, -1, R)
    return [v * n_inv % R for v in out]


class EvaluationDomain:
    """A multiplicative subgroup of Fr of power-of-two order.

    Provides forward/inverse NTT on the subgroup H = {omega^k} and on the
    coset gH (needed to divide by the vanishing polynomial, which is zero on
    H itself).  Prefer :func:`get_domain` over direct construction -- the
    registry shares one instance (and its precomputed tables) per size.
    """

    def __init__(self, size: int):
        size = next_power_of_two(size)
        self.size = size
        self.omega = Fr.root_of_unity(size).value if size > 1 else 1
        self.omega_inv = pow(self.omega, -1, R) if size > 1 else 1
        self._size_inv = pow(size, -1, R)
        # Coset shift: any element outside H works; a quadratic non-residue
        # can never be a 2-power root of unity.
        self.coset_shift = Fr.multiplicative_generator().value
        self.coset_shift_inv = pow(self.coset_shift, -1, R)
        self._coset_powers = _powers(self.coset_shift, size)
        # Fold the 1/n interpolation scale into the inverse-shift powers so
        # coset_ifft is one elementwise multiply.
        self._coset_inv_powers = [
            p * self._size_inv % R
            for p in _powers(self.coset_shift_inv, size)
        ]
        self._elements: List[int] = []

    # -- plain domain -----------------------------------------------------------

    def fft(self, coefficients: Sequence[int]) -> List[int]:
        """Evaluate a polynomial (coefficient form) on every domain point."""
        coeffs = list(coefficients) + [0] * (self.size - len(coefficients))
        if len(coeffs) > self.size:
            raise ValueError("polynomial degree exceeds domain size")
        if self.size == 1:
            return [coeffs[0] % R]
        return ntt(coeffs, self.omega)

    def ifft(self, evaluations: Sequence[int]) -> List[int]:
        """Interpolate: evaluations on the domain -> coefficient form."""
        if len(evaluations) != self.size:
            raise ValueError("need exactly one evaluation per domain point")
        if self.size == 1:
            return [evaluations[0] % R]
        n_inv = self._size_inv
        return [v * n_inv % R for v in ntt(evaluations, self.omega_inv)]

    # -- coset domain -------------------------------------------------------------

    def coset_fft(self, coefficients: Sequence[int]) -> List[int]:
        """Evaluate on the coset g*H (where the vanishing poly is non-zero)."""
        coeffs = list(coefficients) + [0] * (self.size - len(coefficients))
        if len(coeffs) > self.size:
            raise ValueError("polynomial degree exceeds domain size")
        shifted = [c * g % R for c, g in zip(coeffs, self._coset_powers)]
        if self.size == 1:
            return shifted
        return ntt(shifted, self.omega)

    def coset_ifft(self, evaluations: Sequence[int]) -> List[int]:
        """Inverse of :meth:`coset_fft`."""
        if len(evaluations) != self.size:
            raise ValueError("need exactly one evaluation per domain point")
        if self.size == 1:
            coeffs = [evaluations[0] % R]
            return coeffs
        coeffs = ntt(evaluations, self.omega_inv)
        # _coset_inv_powers carries the 1/n factor of the inverse NTT.
        return [c * g % R for c, g in zip(coeffs, self._coset_inv_powers)]

    # -- vanishing polynomial -----------------------------------------------------

    def vanishing_at(self, point: int) -> int:
        """t(x) = x^|H| - 1 evaluated at ``point``."""
        return (pow(point, self.size, R) - 1) % R

    def vanishing_on_coset(self) -> int:
        """t(x) on the coset is the constant g^|H| - 1 (same for all points)."""
        return (pow(self.coset_shift, self.size, R) - 1) % R

    def elements(self) -> List[int]:
        """All domain points omega^0 .. omega^(n-1) (cached; returns a copy)."""
        if not self._elements:
            self._elements = _powers(self.omega, self.size)
        return list(self._elements)

    def __repr__(self) -> str:
        return f"EvaluationDomain(size={self.size})"


def _powers(base: int, count: int) -> List[int]:
    """``[base^0, ..., base^(count-1)]`` mod R."""
    out = [1] * count
    acc = 1
    for i in range(1, count):
        acc = acc * base % R
        out[i] = acc
    return out


_DOMAIN_CACHE: Dict[int, EvaluationDomain] = {}


def get_domain(size: int) -> EvaluationDomain:
    """The process-wide :class:`EvaluationDomain` for ``size`` (rounded up).

    Domains are immutable once built; sharing them across proofs removes
    the root-of-unity search, twiddle-table build and coset power chains
    from every ``prove`` call after the first for a given circuit size.
    """
    size = next_power_of_two(size)
    domain = _DOMAIN_CACHE.get(size)
    if domain is None:
        domain = _DOMAIN_CACHE[size] = EvaluationDomain(size)
    return domain
