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
"""

from __future__ import annotations

import time

from repro.parallel import ProcessBackend
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

    # -- parallel-batched: live Miller loops fanned out over processes -------
    backend = ProcessBackend(min_miller_pairs=8)
    try:
        t0 = time.perf_counter()
        assert verify_batch_prepared(pvk, batch, seed=1, backend=backend)
        parallel_seconds = time.perf_counter() - t0
        workers = backend.workers
    finally:
        backend.close()

    n_max = max(BATCH_SIZES)
    bench_json(
        "verify-scaling",
        single_seconds_per_proof=single_seconds,
        prepared_seconds_per_proof=prepared_seconds,
        batched_seconds={str(n): batched[n] for n in BATCH_SIZES},
        batched_seconds_per_proof={
            str(n): batched[n] / n for n in BATCH_SIZES
        },
        parallel_batched_seconds=parallel_seconds,
        parallel_workers=workers,
        batched_speedup_at_max=(n_max * single_seconds) / batched[n_max],
    )
    print(f"\nsingle {single_seconds * 1e3:.1f}ms/proof, "
          f"prepared {prepared_seconds * 1e3:.1f}ms/proof, "
          f"batched(100) {batched[n_max] / n_max * 1e3:.1f}ms/proof, "
          f"parallel(100, {workers}w) {parallel_seconds / n_max * 1e3:.1f}ms/proof")

    # The acceptance gate: batching 100 proofs must at least halve the
    # cost of 100 independent checks.
    assert batched[n_max] <= 0.5 * n_max * single_seconds, (
        f"batched(100) {batched[n_max]:.2f}s vs gate "
        f"{0.5 * n_max * single_seconds:.2f}s"
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
