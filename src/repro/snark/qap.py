"""R1CS -> Quadratic Arithmetic Program reduction.

Groth16 (the paper's proof system) works over a QAP: per-variable
polynomials ``u_j, v_j, w_j`` interpolated over an evaluation domain H (one
point per constraint), such that the witness satisfies the R1CS iff

    u(X) * v(X) - w(X)  =  h(X) * t(X)

for some quotient ``h``, where ``t(X) = X^|H| - 1`` vanishes on H and
``u = sum_j z_j u_j`` etc.

Two operations are needed:

* at *setup*: evaluate every ``u_j, v_j, w_j`` at the toxic-waste point tau
  (:func:`evaluate_qap_at`), done in O(nnz + |H|) via the closed-form
  Lagrange-basis-at-a-point formula and batch inversion;
* at *proving*: compute the coefficients of ``h`` (:func:`compute_h`) via
  NTT on H and pointwise division on a coset (where ``t`` is a non-zero
  constant) -- in one call to the compiled ``compute_h`` kernel
  (:class:`QuotientKernel`, see :mod:`repro.native`) when one loaded, in
  Python otherwise; both give the same coefficients.
"""

from __future__ import annotations

import ctypes
import random
import struct
from itertools import chain
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from .. import native
from ..field.ntt import (
    EvaluationDomain,
    _powers,
    get_domain,
    next_power_of_two,
    ntt,
)
from ..field.prime import BN254_R as R
from ..field.prime import batch_inverse_ints
from .r1cs import ConstraintSystem

__all__ = [
    "QapEvaluation",
    "QuotientKernel",
    "evaluate_qap_at",
    "compute_h",
    "h_from_rows",
    "qap_domain",
]


class QapEvaluation:
    """Per-variable QAP polynomial evaluations at a fixed point tau."""

    __slots__ = ("u", "v", "w", "domain_size", "t_at_tau")

    def __init__(
        self,
        u: List[int],
        v: List[int],
        w: List[int],
        domain_size: int,
        t_at_tau: int,
    ):
        self.u = u
        self.v = v
        self.w = w
        self.domain_size = domain_size
        self.t_at_tau = t_at_tau


def qap_domain(cs: ConstraintSystem) -> EvaluationDomain:
    """The evaluation domain for a constraint system: the constraint count
    rounded up to a power of two (at least 2), with no slot to spare, so a
    count that is exactly a power of two fills its domain.

    Served from the process-wide registry, so repeated proofs for circuits
    of one size share the precomputed twiddle and coset-power tables.
    """
    return get_domain(next_power_of_two(max(cs.num_constraints, 2)))


def _lagrange_basis_at(domain: EvaluationDomain, tau: int) -> List[int]:
    """Evaluate all Lagrange basis polynomials L_k at ``tau``.

    Closed form over a multiplicative subgroup:
    ``L_k(tau) = omega^k * (tau^n - 1) / (n * (tau - omega^k))``.
    Falls back to the degenerate case tau in H (one-hot vector).
    """
    n = domain.size
    t_at_tau = domain.vanishing_at(tau)
    points = domain.elements()
    if t_at_tau == 0:
        return [1 if tau % R == pt else 0 for pt in points]
    inv_diffs = batch_inverse_ints([(tau - pt) % R for pt in points], R)
    scale = t_at_tau * pow(n, -1, R) % R
    return [points[k] * scale % R * inv_diffs[k] % R for k in range(n)]


def evaluate_qap_at(cs: ConstraintSystem, tau: int) -> QapEvaluation:
    """Evaluate u_j(tau), v_j(tau), w_j(tau) for every variable j."""
    domain = qap_domain(cs)
    lagrange = _lagrange_basis_at(domain, tau)
    m = cs.num_variables
    u = [0] * m
    v = [0] * m
    w = [0] * m
    for k, (a, b, c) in enumerate(cs.constraints):
        lk = lagrange[k]
        if lk == 0:
            continue
        for j, coeff in a.terms.items():
            u[j] = (u[j] + coeff * lk) % R
        for j, coeff in b.terms.items():
            v[j] = (v[j] + coeff * lk) % R
        for j, coeff in c.terms.items():
            w[j] = (w[j] + coeff * lk) % R
    return QapEvaluation(u, v, w, domain.size, domain.vanishing_at(tau))


def _assignment_evaluations(
    cs: ConstraintSystem, assignment: Sequence[int]
) -> Tuple[List[int], List[int], List[int]]:
    """Evaluate u(X), v(X), w(X) (witness-combined) on the domain H.

    On H, the k-th evaluation of u is simply <A_k, z>; rows past the
    constraint count are zero and left out.
    """
    ua, va, wa = [], [], []
    for a, b, c in cs.constraints:
        ua.append(a.evaluate(assignment))
        va.append(b.evaluate(assignment))
        wa.append(c.evaluate(assignment))
    return ua, va, wa


def _quotient(
    domain: EvaluationDomain, ua: List[int], va: List[int], wa: List[int]
) -> List[int]:
    """The pure path and the compiled kernel's oracle: ``h``'s
    coefficients from ``u``, ``v``, ``w`` on H (zero-padded to the domain).

    Interpolates the witness-combined polynomials from their values on H,
    re-evaluates ``u`` and ``v`` on the coset gH where ``t`` is the
    non-zero constant ``g^|H| - 1``, and interpolates their product back.
    ``w`` never visits the coset: interpolation is linear, so its
    coefficients are subtracted from the product's directly and the
    division by the constant follows.  Exact because ``deg h <= |H| - 2``.
    """
    pad = [0] * (domain.size - len(ua))
    u_coset = domain.coset_fft(domain.ifft(ua + pad))
    v_coset = domain.coset_fft(domain.ifft(va + pad))
    w_coeffs = domain.ifft(wa + pad)
    uv_coeffs = domain.coset_ifft([u * v % R for u, v in zip(u_coset, v_coset)])
    t_inv = pow(domain.vanishing_on_coset(), -1, R)
    # deg h <= |H| - 2, so the top coefficient must vanish; a non-zero value
    # means the assignment does not satisfy the R1CS.
    return [(uv - w) * t_inv % R for uv, w in zip(uv_coeffs, w_coeffs)]


def _pack(values: Iterable[int]) -> bytes:
    """32 little-endian bytes per value (each below ``2^256``)."""
    return b"".join([v.to_bytes(32, "little") for v in values])


def _unpack(raw: bytes) -> List[int]:
    return [int.from_bytes(v, "little") for (v,) in struct.iter_unpack("32s", raw)]


class QuotientKernel:
    """The library's quotient (``qap.c``): :func:`_quotient` -- six NTTs,
    the coset product and the division -- in one call, plus the single
    NTT and the Fr operations the tests drive."""

    def __init__(self, lib: ctypes.CDLL):
        buf, size = ctypes.c_char_p, ctypes.c_size_t
        self._h = lib.zk_qap_h
        self._h.argtypes = [size, size, buf, buf, buf]
        self._h.restype = ctypes.c_int
        self._ntt = lib.zk_fr_ntt
        self._ntt.argtypes = [size, buf, buf]
        self._ntt.restype = ctypes.c_int
        self._fr: Dict[str, Any] = {}
        for name in ("mul", "add", "sub"):
            fn = getattr(lib, f"zk_fr_{name}")
            fn.argtypes = [buf, buf, buf]
            fn.restype = None
            self._fr[name] = fn
        #: Domain size -> the packed constants ``qap.c`` reads (packed once).
        self._tables: Dict[int, bytes] = {}

    def _domain_tables(self, domain: EvaluationDomain) -> bytes:
        """The domain's constants in the form and order ``qap.c`` reads
        them: ``M(x) = x 2^256 mod R`` throughout, with ``1/n``, ``1/t``
        and the product's stray ``2^-256`` folded in (see its header)."""
        packed = self._tables.get(domain.size)
        if packed is None:
            fwd, inv, shift, unshift, size_inv = domain.tables()
            mont = (1 << 256) % R
            t_inv = pow(domain.vanishing_on_coset(), -1, R)
            shift_scale = size_inv * mont % R
            unshift_scale = t_inv * mont % R * mont % R  # unshift has 1/n
            packed = _pack(chain(
                (x * mont % R for x in fwd),
                (x * mont % R for x in inv),
                (x * shift_scale % R for x in shift),
                (x * unshift_scale % R for x in unshift),
                (size_inv * t_inv % R * mont % R,),
            ))
            self._tables[domain.size] = packed
        return packed

    @staticmethod
    def _check(rc: int, what: str) -> None:
        if rc < 0:
            raise MemoryError(f"native {what} could not allocate its vectors")
        if rc:
            raise ValueError(f"native {what} refused its arguments")

    def quotient(
        self, domain: EvaluationDomain, ua: List[int], va: List[int], wa: List[int]
    ) -> List[int]:
        """:func:`_quotient`, compiled: values canonical, at most one per
        domain point, the three lists of one length."""
        n, m = domain.size, len(ua)
        if not len(va) == len(wa) == m:
            raise ValueError("u, v and w need one value per row each")
        out = ctypes.create_string_buffer(32 * n)
        self._check(
            self._h(n, m, _pack(chain(ua, va, wa)), self._domain_tables(domain), out),
            "quotient",
        )
        return _unpack(out.raw)

    def ntt(self, values: Sequence[int], omega: int) -> List[int]:
        """:func:`repro.field.ntt.ntt` on canonical ``values``."""
        n = len(values)
        data = ctypes.create_string_buffer(_pack(values), 32 * n)
        twiddles = _pack(_powers(omega, n // 2))
        self._check(self._ntt(n, data, twiddles), "NTT")
        return _unpack(data.raw)

    def fr(self, op: str, a: int, b: int) -> int:
        """``a op b mod R`` in the library's limbs (``op``: mul/add/sub);
        ``a`` and ``b`` must be canonical."""
        out = ctypes.create_string_buffer(32)
        self._fr[op](a.to_bytes(32, "little"), b.to_bytes(32, "little"), out)
        return int.from_bytes(out.raw, "little")

    def self_check(self) -> bool:
        """Known answers from the pure path: the quotient on two- and
        sixteen-point domains (rows full, and partly zero), one NTT, and an
        Fr product at the top of the range."""
        rng = random.Random(0x9AB)
        for n, m in ((2, 2), (16, 11)):
            domain = get_domain(n)
            evals = [[rng.randrange(R) for _ in range(m)] for _ in range(3)]
            evals[0][0], evals[1][-1] = R - 1, 0
            if self.quotient(domain, *evals) != _quotient(domain, *evals):
                return False
        values = [rng.randrange(R) for _ in range(16)]
        omega = get_domain(16).omega
        return (
            self.ntt(values, omega) == ntt(values, omega)
            and self.fr("mul", R - 1, R - 1) == 1
        )


def compute_h(cs: ConstraintSystem, assignment: Sequence[int]) -> List[int]:
    """Coefficients of the quotient ``h(X) = (u v - w) / t``, one per
    domain point: the compiled kernel's when it loaded, else
    :func:`_quotient`'s (the same values)."""
    return h_from_rows(cs, *_assignment_evaluations(cs, assignment))


def h_from_rows(
    cs: ConstraintSystem, ua: List[int], va: List[int], wa: List[int]
) -> List[int]:
    """:func:`compute_h` from the rows' values on H, already evaluated
    (canonical, one per constraint), as
    :meth:`~repro.snark.r1cs.ConstraintSystem.satisfied_rows` returns
    them."""
    domain = qap_domain(cs)
    kernel = native.kernel("compute_h")
    if kernel is not None:
        return kernel.quotient(domain, ua, va, wa)
    return _quotient(domain, ua, va, wa)
