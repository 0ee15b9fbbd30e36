"""Marketplace audit: batch-verifying many ownership claims at once.

A model marketplace hosts several variants of a network (the original and
two attacker-modified copies).  The owner files one ownership claim per
hosted variant -- all share the same circuit shape, hence one trusted
setup and one verification key.  The marketplace audits all claims with a
*single batched pairing check* (`OwnershipVerifier.verify_many`, built on
Groth16 batch verification: n + 3 Miller loops instead of 4n).

Also shows the fallback: slipping one forged claim into the batch makes
the batch check fail, and individual re-verification attributes blame.

Run:  python examples/marketplace_audit.py
"""

import time

import numpy as np

from repro.circuit import FixedPointFormat
from repro.datasets import mnist_like
from repro.nn import Adam, mnist_mlp_scaled, train_classifier
from repro.watermark import (
    EmbedConfig,
    embed_watermark,
    extract_watermark,
    finetune_attack,
    generate_keys,
    prune_attack,
)
from repro.engine import ProvingEngine
from repro.zkrownn import (
    CircuitConfig,
    OwnershipClaim,
    OwnershipVerifier,
    TrustedSetupParty,
    prove_ownership_with_engine,
)


def main():
    rng = np.random.default_rng(8)
    data = mnist_like(700, 150, image_size=4, seed=4)

    # --- Owner trains, watermarks, and the model gets copied around ----------
    print("[owner] training + watermarking ...")
    original = mnist_mlp_scaled(input_dim=16, hidden=32, rng=rng)
    train_classifier(original, data.x_train, data.y_train, Adam(0.005),
                     epochs=6, batch_size=32, rng=rng)
    keys = generate_keys(original, data.x_train, data.y_train,
                         embed_layer=1, wm_bits=8, min_triggers=4, rng=rng)
    keys.trigger_inputs = keys.trigger_inputs[:4]
    embed_watermark(original, keys, data.x_train, data.y_train,
                    config=EmbedConfig(epochs=30, seed=1, lambda_projection=5.0))

    variants = {
        "original": original,
        "finetuned-copy": finetune_attack(original, data.x_train, data.y_train,
                                          epochs=2, seed=5),
        "pruned-copy": prune_attack(original, 0.3),
    }
    for name, m in variants.items():
        print(f"  {name}: watermark BER = {extract_watermark(m, keys).ber:.3f}")

    # --- One setup serves every claim (same circuit shape) --------------------
    config = CircuitConfig(
        theta=0.125, fixed_point=FixedPointFormat(frac_bits=14, total_bits=40)
    )
    print("[notary] one trusted setup for the shared circuit shape ...")
    engine = ProvingEngine()
    party = TrustedSetupParty("notary", engine=engine)
    party.run_ceremony(original, keys, config, seed=31)

    # All variants share the circuit shape, so only the first claim pays
    # compilation; none pays setup again (the notary's engine already has
    # the keypair), and later claims reuse the prepared proving key.
    print("[owner] filing one claim per hosted variant (shared engine) ...")
    cases = []
    for name, model in variants.items():
        claim, job = prove_ownership_with_engine(
            engine, model, keys, config, seed=hash(name) % 1000
        )
        cases.append((model, claim))
        stage = "synthesize" if job.synthesis.resynthesized else "compile"
        print(f"  claim filed for {name} ({claim.size_bytes()} bytes, "
              f"{stage}+prove {sum(job.timings.values()):.2f} s)")
    stats = engine.stats
    print(f"[owner] engine: {stats.compile_misses} compile, "
          f"{stats.witness_resyntheses} witness replays, "
          f"{stats.setup_misses} setup (of {len(cases)} claims)")

    # --- The marketplace audits everything in one batch ------------------------
    # One verifier, one prepared key: the batched happy path is a single
    # multi-pairing, and the per-claim fallback that runs when a batch fails
    # (exercised by the forged claim below) reuses the same line tables.
    verifier = OwnershipVerifier(party.verifying_key)
    reports = verifier.verify_many(cases, seed=77)
    print(f"[marketplace] batch audit decisions: {[r.accepted for r in reports]}")
    assert all(r.accepted for r in reports)

    # Pairing-level cost comparison (same prechecks on both sides):
    # batch = n+3 Miller loops + 1 final exponentiation, individual = 5n.
    from repro.snark import verify as snark_verify
    from repro.snark import verify_batch as snark_verify_batch
    from repro.zkrownn import public_inputs_for

    instances = [
        (public_inputs_for(m, c.theta, c.wm_bits, c.embed_layer, config), c.proof)
        for m, c in cases
    ]
    t0 = time.perf_counter()
    assert snark_verify_batch(party.verifying_key, instances, seed=3)
    t_batch = time.perf_counter() - t0
    t0 = time.perf_counter()
    for publics, proof in instances:
        assert snark_verify(party.verifying_key, publics, proof)
    t_individual = time.perf_counter() - t0
    print(f"[marketplace] pairing work, batched:    {t_batch*1000:6.0f} ms")
    print(f"[marketplace] pairing work, one-by-one: {t_individual*1000:6.0f} ms")
    assert t_batch < t_individual

    # --- A forged claim in the batch gets attributed -----------------------------
    print("[marketplace] injecting a forged claim into the batch ...")
    good_claim = cases[0][1]
    corrupted = bytearray(good_claim.proof_bytes)
    corrupted[50] ^= 0x01
    forged = OwnershipClaim(
        proof_bytes=bytes(corrupted),
        theta=good_claim.theta,
        wm_bits=good_claim.wm_bits,
        embed_layer=good_claim.embed_layer,
        model_sha256=good_claim.model_sha256,
        frac_bits=good_claim.frac_bits,
        total_bits=good_claim.total_bits,
    )
    mixed = cases + [(cases[0][0], forged)]
    reports = verifier.verify_many(mixed, seed=78)
    decisions = [r.accepted for r in reports]
    print(f"[marketplace] decisions: {decisions}")
    assert decisions == [True, True, True, False]
    print("audit complete: genuine claims accepted, forgery isolated.")


if __name__ == "__main__":
    main()
