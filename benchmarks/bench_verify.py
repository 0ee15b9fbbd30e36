"""Verifier-side scaling: one-shot vs reused-key vs batched pairing checks.

The claim under measurement: auditing n proofs through one shared-loop
random-linear-combination batch costs far less than n independent
pairing checks -- three fixed pairings plus one live Miller loop per
proof under a single squaring chain and one final exponentiation,
instead of 4n pairings.  Proofs are minted with the zero-knowledge
simulator (trapdoor forgeries verify identically to honest proofs), so
a 100-proof registry costs milliseconds to build rather than minutes.

The asserted gate -- ``batched(100) <= 0.5 * (100 * single)`` -- is the
PR's acceptance floor, deliberately loose next to the observed gain so
CI noise never flakes it.

``test_verify_kernel_table`` records the kernels a single verification is
made of (Fp12 products, final exponentiation, the G2 subgroup check) and
gates them as machine-independent ratios, so a revert of the lazy-reduced
tower, the cyclotomic hard part or the endomorphism subgroup check trips CI
rather than waiting for someone to re-read a trace.
"""

from __future__ import annotations

import random
import time

from repro.curves.bn254 import P, R
from repro.curves.g2 import G2Point
from repro.curves.pairing import (
    _easy_part,
    final_exponentiation,
    final_exponentiation_naive,
)
from repro.field.tower import Fp2Element, Fp6Element, Fp12Element
from repro.snark import (
    ConstraintSystem,
    LinearCombination as LC,
    prepare_verifying_key,
    setup_with_trapdoor,
    simulate_proof,
    verify,
    verify_batch_prepared,
    verify_prepared,
)

BATCH_SIZES = (1, 10, 100)
SINGLE_SAMPLES = 5


def _square_circuit() -> ConstraintSystem:
    cs = ConstraintSystem()
    y = cs.allocate_public("y")
    x = cs.allocate_private("x")
    cs.enforce(LC.variable(x), LC.variable(x), LC.variable(y))
    return cs


def test_batched_verification_scaling(bench_json):
    cs = _square_circuit()
    keypair, trapdoor = setup_with_trapdoor(cs, seed=17)
    vk = keypair.verifying_key
    batch = [
        ([(v + 2) ** 2], simulate_proof(trapdoor, cs, [(v + 2) ** 2], seed=v))
        for v in range(max(BATCH_SIZES))
    ]

    # -- single: a one-shot check, the key prepared again for every proof ----
    t0 = time.perf_counter()
    for publics, proof in batch[:SINGLE_SAMPLES]:
        assert verify(vk, publics, proof)
    single_seconds = (time.perf_counter() - t0) / SINGLE_SAMPLES

    # -- prepared: the same path with the key's line tables reused ----------
    pvk = prepare_verifying_key(vk)
    t0 = time.perf_counter()
    for publics, proof in batch[:SINGLE_SAMPLES]:
        assert verify_prepared(pvk, publics, proof)
    prepared_seconds = (time.perf_counter() - t0) / SINGLE_SAMPLES

    # -- batched: one RLC multi-pairing per batch ----------------------------
    batched = {}
    for n in BATCH_SIZES:
        t0 = time.perf_counter()
        assert verify_batch_prepared(pvk, batch[:n], seed=1)
        batched[n] = time.perf_counter() - t0

    n_max = max(BATCH_SIZES)
    bench_json(
        "verify-scaling",
        single_seconds_per_proof=single_seconds,
        prepared_seconds_per_proof=prepared_seconds,
        batched_seconds={str(n): batched[n] for n in BATCH_SIZES},
        batched_seconds_per_proof={
            str(n): batched[n] / n for n in BATCH_SIZES
        },
        batched_speedup_at_max=(n_max * single_seconds) / batched[n_max],
    )
    print(f"\nsingle {single_seconds * 1e3:.1f}ms/proof, "
          f"prepared {prepared_seconds * 1e3:.1f}ms/proof, "
          f"batched(100) {batched[n_max] / n_max * 1e3:.1f}ms/proof")

    # The acceptance gate: batching 100 proofs must at least halve the
    # cost of 100 independent checks.
    assert batched[n_max] <= 0.5 * n_max * single_seconds, (
        f"batched(100) {batched[n_max]:.2f}s vs gate "
        f"{0.5 * n_max * single_seconds:.2f}s"
    )


def _best_seconds(kernels, rounds: int = 7):
    """Seconds per call of each ``name: (fn, calls)``: the fastest of
    ``rounds`` timings.  The rounds are interleaved across kernels so that a
    noisy second on a shared box slows every kernel's same round, not one
    side of a ratio."""
    best = {name: float("inf") for name in kernels}
    for _ in range(rounds):
        for name, (fn, calls) in kernels.items():
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best[name] = min(best[name], (time.perf_counter() - t0) / calls)
    return best


def test_verify_kernel_table(bench_json):
    """What one verification is made of, and the ratios a revert would trip.

    Every floor is a ratio of two timings taken seconds apart in this
    process, so it does not depend on the machine; each sits between the
    ratio measured before the kernel it guards was optimised and the ratio
    measured after (both in the assertion messages).
    """
    rng = random.Random(19)

    def fp2() -> Fp2Element:
        return Fp2Element(rng.randrange(P), rng.randrange(P))

    a, b = (
        Fp12Element(Fp6Element(fp2(), fp2(), fp2()), Fp6Element(fp2(), fp2(), fp2()))
        for _ in "ab"
    )
    c0, c3, c4 = (fp2() for _ in "034")
    cyclotomic = _easy_part(a)
    q = G2Point.generator() * rng.randrange(R)

    t = _best_seconds({
        "fp2_mul": (lambda: c0 * c3, 10000),
        "fp12_mul": (lambda: a * b, 500),
        "fp12_square": (a.square, 500),
        "fp12_mul_by_line": (lambda: a.mul_by_line(c0, c3, c4), 500),
        "fp12_cyclotomic_square": (cyclotomic.cyclotomic_square, 500),
        "final_exponentiation": (lambda: final_exponentiation(a), 2),
        "final_exponentiation_naive": (lambda: final_exponentiation_naive(a), 1),
        "g2_in_subgroup": (q.in_subgroup, 2),
        "g2_times_r": (lambda: (q * R).is_infinity(), 2),
    })
    ratios = {
        "square_over_fp2_mul": t["fp12_square"] / t["fp2_mul"],
        "mul_by_line_over_fp2_mul": t["fp12_mul_by_line"] / t["fp2_mul"],
        "cyclotomic_over_square": t["fp12_cyclotomic_square"] / t["fp12_square"],
        "in_subgroup_over_times_r": t["g2_in_subgroup"] / t["g2_times_r"],
        # Recorded, not gated: the naive chain rides the same Fp12 products.
        "naive_over_final_exponentiation": (
            t["final_exponentiation_naive"] / t["final_exponentiation"]
        ),
    }
    us = {f"{k}_us": v * 1e6 for k, v in t.items() if k.startswith("fp")}
    ms = {f"{k}_ms": v * 1e3 for k, v in t.items() if not k.startswith("fp")}
    bench_json("verify-kernels", **us, **ms, **ratios)
    print("\n" + ", ".join(f"{k} {v:.2f}" for k, v in {**us, **ms}.items()))

    assert ratios["square_over_fp2_mul"] <= 20, (
        f"Fp12 square is {ratios['square_over_fp2_mul']:.1f}x an Fp2 product "
        "(floor 20x; 30x with per-Fp2 reduction, 12-13.5x lazy-reduced)"
    )
    assert ratios["mul_by_line_over_fp2_mul"] <= 16, (
        f"mul_by_line is {ratios['mul_by_line_over_fp2_mul']:.1f}x an Fp2 "
        "product (floor 16x; 25x with per-Fp2 reduction, 11x lazy-reduced)"
    )
    assert ratios["cyclotomic_over_square"] <= 0.75, (
        f"cyclotomic_square is {ratios['cyclotomic_over_square']:.2f}x square "
        "(floor 0.75x; 0.63-0.65x measured)"
    )
    assert ratios["in_subgroup_over_times_r"] <= 0.4, (
        f"in_subgroup is {ratios['in_subgroup_over_times_r']:.2f}x r*Q "
        "(floor 0.4x; 1.0x as a multiplication by r, 0.17x as the psi identity)"
    )


def test_verify_batch_wire_overhead(bench_json):
    """The /verify-batch frame round trip is negligible next to pairings."""
    from repro.service import wire

    n = 100
    request = wire.VerifyBatchRequest(claim_ids=["a" * 64] * n, seed=1)
    result = wire.VerifyBatchResult(
        verdicts=[
            wire.BatchClaimVerdict("a" * 64, True, "accepted", 200)
            for _ in range(n)
        ],
        groups=[wire.BatchGroupVerdict("b" * 64, ["a" * 64] * n, True, 1.5)],
    )
    rounds = 50
    t0 = time.perf_counter()
    for _ in range(rounds):
        wire.decode_verify_batch_request(wire.encode_verify_batch_request(request))
        wire.decode_verify_batch_result(wire.encode_verify_batch_result(result))
    per_round_trip = (time.perf_counter() - t0) / rounds
    bench_json(
        "verify-batch-wire-overhead",
        claims_per_frame=n,
        request_frame_bytes=len(wire.encode_verify_batch_request(request)),
        result_frame_bytes=len(wire.encode_verify_batch_result(result)),
        round_trip_seconds=per_round_trip,
    )
    assert per_round_trip < 1.0
