"""Tests for the ProvingEngine facade: caching, stats, and the amortized
ownership-claim path.

Acceptance property of the staged pipeline: proving a second ownership
claim for the same model shape skips compilation and setup entirely,
asserted via the engine's hit counters.
"""

import numpy as np
import pytest

from repro.circuit import FixedPointFormat
from repro.engine import ArtifactStore, ProvingEngine
from repro.nn import mnist_mlp_scaled
from repro.snark import setup
from repro.watermark.keys import WatermarkKeys
from repro.zkrownn import (
    CircuitConfig,
    OwnershipProver,
    OwnershipVerifier,
    extraction_structure_key,
    extraction_synthesizer,
    prove_ownership_with_engine,
)


def _chain_synth(x: int, y: int, length: int = 16):
    def synthesize(b):
        out = b.public_output("o")
        wx = b.private_input("x", x)
        wy = b.private_input("y", y)
        acc = wx
        for _ in range(length):
            acc = b.mul(acc, wy)
        b.bind_output(out, acc)
        return None

    return synthesize


class TestEngineCaching:
    def test_compile_miss_then_hit(self):
        engine = ProvingEngine()
        compiled1, res1 = engine.synthesize("k", _chain_synth(3, 5))
        compiled2, res2 = engine.synthesize("k", _chain_synth(7, 11))
        assert compiled1 is compiled2
        assert not res1.resynthesized and res2.resynthesized
        assert engine.stats.compile_misses == 1
        assert engine.stats.compile_hits == 1
        assert engine.stats.witness_resyntheses == 1

    def test_different_keys_compile_separately(self):
        engine = ProvingEngine()
        engine.synthesize("a", _chain_synth(3, 5, length=8))
        engine.synthesize("b", _chain_synth(3, 5, length=9))
        assert engine.stats.compile_misses == 2

    def test_setup_cached_by_digest(self):
        engine = ProvingEngine()
        compiled, _ = engine.synthesize("k", _chain_synth(3, 5))
        kp1 = engine.setup(compiled, seed=1)
        kp2 = engine.setup(compiled)
        assert kp1 is kp2
        assert engine.stats.setup_misses == 1
        assert engine.stats.setup_hits == 1

    def test_setup_is_single_flight_per_digest(self, tmp_path, monkeypatch):
        """Threads meeting a new shape run ONE setup and share its keypair.

        More threads than cores and a shortened switch interval: before
        the per-digest lock, every thread that probed the cache before the
        first setup finished ran its own and overwrote the cached keypair.
        """
        import sys
        import threading
        import time

        from repro.engine import engine as engine_mod

        engine = ProvingEngine(cache_dir=str(tmp_path))
        compiled, _ = engine.synthesize("k", _chain_synth(3, 5))
        keys = setup(compiled.cs, seed=1)
        n_threads = 6
        start_together = threading.Barrier(n_threads)
        setups, saves, got = [], [], []

        def slow_setup(cs, *, seed=None):
            setups.append(seed)
            time.sleep(0.2)  # every other thread arrives meanwhile
            return type(keys)(keys.proving_key, keys.verifying_key)  # distinct

        real_save = engine.artifact_store.save_keypair
        monkeypatch.setattr(engine_mod, "groth16_setup", slow_setup)
        monkeypatch.setattr(
            engine.artifact_store, "save_keypair",
            lambda digest, kp: (saves.append(digest), real_save(digest, kp)),
        )

        def worker():
            start_together.wait(timeout=10)
            got.append(engine.setup(compiled))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(setups) == 1 and saves == [compiled.digest]
        assert len(got) == n_threads and all(kp is got[0] for kp in got)
        assert engine.stats.setup_misses == 1
        assert engine.stats.setup_hits == n_threads - 1

    def test_prove_and_verify_roundtrip(self):
        engine = ProvingEngine()
        job = engine.prove_job("k", _chain_synth(3, 5), seed=2, setup_seed=1)
        assert engine.verify(job.compiled, job.public_values, job.proof)
        # A cached-keypair repeat proof (new witness values) also verifies.
        job2 = engine.prove_job("k", _chain_synth(4, 9), seed=3)
        assert job2.reused_circuit and job2.reused_keypair
        assert engine.verify(job2.compiled, job2.public_values, job2.proof)
        bad_public = list(job2.public_values)
        bad_public[0] = (bad_public[0] + 1) % 97
        assert not engine.verify(job2.compiled, bad_public, job2.proof)

    def test_prove_job_consults_the_setup_cache_once(self):
        engine = ProvingEngine()
        engine.prove_job("k", _chain_synth(3, 5), seed=2, setup_seed=1)
        assert engine.stats.setup_misses == 1
        assert engine.stats.setup_hits == 0
        engine.prove_job("k", _chain_synth(4, 9), seed=3)
        assert engine.stats.setup_misses == 1
        assert engine.stats.setup_hits == 1

    def test_prove_after_setup_counts_no_setup_hit(self):
        """Setup, then prove: one setup request, so one miss and no hit."""
        engine = ProvingEngine()
        compiled, synthesis = engine.synthesize("k", _chain_synth(3, 5))
        engine.setup(compiled, seed=1)
        proof = engine.prove(compiled, synthesis, seed=2)
        assert engine.verify(compiled, synthesis.public_values, proof)
        assert (engine.stats.setup_misses, engine.stats.setup_hits) == (1, 0)

    def test_trace_divergence_falls_back_to_rebuild(self):
        engine = ProvingEngine()
        engine.synthesize("k", _chain_synth(3, 5, length=8))
        compiled, result = engine.synthesize("k", _chain_synth(3, 5, length=12))
        assert engine.stats.trace_divergences == 1
        assert engine.stats.compile_misses == 2
        assert not result.resynthesized
        assert compiled.num_constraints > 8

    def test_disk_store_survives_engine_restart(self, tmp_path):
        engine = ProvingEngine(cache_dir=str(tmp_path))
        job = engine.prove_job("k", _chain_synth(3, 5), seed=2, setup_seed=1)
        assert engine.stats.setup_misses == 1

        fresh = ProvingEngine(cache_dir=str(tmp_path))
        compiled, res = fresh.synthesize("k", _chain_synth(6, 7))
        keypair = fresh.setup(compiled)
        assert fresh.stats.setup_misses == 0
        assert fresh.stats.setup_disk_hits == 1
        proof = fresh.prove(compiled, res, seed=9)
        assert fresh.verify(compiled, res.public_values, proof)
        # Same ceremony: the persisted VK verifies the first engine's proof.
        assert keypair.verifying_key.to_bytes() == \
            job.keypair.verifying_key.to_bytes()

    def test_artifact_store_corrupt_files_are_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load_keypair("nope") is None
        (tmp_path / "bad.pk").write_bytes(b"garbage")
        (tmp_path / "bad.vk").write_bytes(b"garbage")
        assert store.load_keypair("bad") is None

    def test_artifact_store_constraint_system_roundtrip(self, tmp_path):
        """The audit artifact (digest.r1cs) written at setup time loads back."""
        from repro.snark.serialize import serialize_r1cs

        engine = ProvingEngine(cache_dir=str(tmp_path))
        compiled, _ = engine.synthesize("k", _chain_synth(3, 5))
        engine.setup(compiled, seed=1)
        store = ArtifactStore(tmp_path)
        assert store.load_constraint_system("nope") is None
        restored = store.load_constraint_system(compiled.digest)
        assert restored is not None
        assert serialize_r1cs(restored) == serialize_r1cs(compiled.cs)

    def test_verify_without_setup_raises(self):
        prover_engine = ProvingEngine()
        job = prover_engine.prove_job("k", _chain_synth(3, 5), seed=2, setup_seed=1)
        cold = ProvingEngine()
        compiled, _ = cold.synthesize("k", _chain_synth(3, 5))
        with pytest.raises(ValueError, match="run setup first"):
            cold.verify(compiled, job.public_values, job.proof)

    def test_witness_check_rejects_before_setup(self):
        engine = ProvingEngine()

        def reject(synthesis):
            raise ValueError("nope")

        with pytest.raises(ValueError, match="nope"):
            engine.prove_job("k", _chain_synth(3, 5), witness_check=reject)
        # Compilation happened, but no setup was paid for the doomed proof.
        assert engine.stats.compile_misses == 1
        assert engine.stats.setup_misses == 0


# ------------------------------------------------------- ownership claims --


FMT = FixedPointFormat(frac_bits=12, total_bits=32)


def _tiny_ownership(model_seed: int):
    model = mnist_mlp_scaled(
        input_dim=8, hidden=4, rng=np.random.default_rng(model_seed)
    )
    krng = np.random.default_rng(1)
    keys = WatermarkKeys(
        embed_layer=1,
        target_class=0,
        trigger_inputs=krng.uniform(0, 1, (2, 8)),
        projection=krng.standard_normal((4, 4)),
        signature=krng.integers(0, 2, 4).astype(np.int64),
    )
    # theta=1.0: any extraction passes; these tests measure the pipeline,
    # not embedding quality (covered by the protocol tests).
    return model, keys, CircuitConfig(theta=1.0, fixed_point=FMT)


@pytest.fixture(scope="module")
def claim_engine():
    return ProvingEngine()


@pytest.fixture(scope="module")
def two_claims(claim_engine):
    model_a, keys, config = _tiny_ownership(0)
    model_b, _, _ = _tiny_ownership(42)
    claim_a, job_a = prove_ownership_with_engine(
        claim_engine, model_a, keys, config, seed=5, setup_seed=7
    )
    claim_b, job_b = prove_ownership_with_engine(
        claim_engine, model_b, keys, config, seed=6
    )
    return (model_a, claim_a, job_a), (model_b, claim_b, job_b), (keys, config)


class TestOwnershipThroughEngine:
    def test_second_claim_skips_compile_and_setup(self, claim_engine, two_claims):
        """The acceptance criterion: same model shape => the second claim
        never recompiles and never re-runs setup (hit counters)."""
        (_, _, job_a), (_, _, job_b), _ = two_claims
        assert not job_a.reused_circuit and job_a.synthesis.resynthesized is False
        assert job_b.reused_circuit and job_b.reused_keypair
        assert job_b.synthesis.resynthesized
        assert claim_engine.stats.compile_misses == 1
        assert claim_engine.stats.compile_hits >= 1
        assert claim_engine.stats.setup_misses == 1
        assert claim_engine.stats.trace_divergences == 0
        assert "compile_seconds" not in job_b.timings

    def test_both_claims_verify_under_shared_keypair(self, two_claims):
        """Cached keypair reuse produces proofs that verify."""
        (model_a, claim_a, job_a), (model_b, claim_b, job_b), _ = two_claims
        assert job_a.keypair is job_b.keypair
        verifier = OwnershipVerifier(job_a.keypair.verifying_key)
        report_a = verifier.verify(model_a, claim_a)
        report_b = verifier.verify(model_b, claim_b)
        assert report_a.accepted, report_a.reason
        assert report_b.accepted, report_b.reason
        # Claims are model-bound: swapping models must fail.
        assert not verifier.verify(model_a, claim_b).accepted

    def test_changed_config_misses_cache(self, claim_engine, two_claims):
        """A changed CircuitConfig is a different shape key => cache miss."""
        _, _, (keys, config) = two_claims
        model, _, _ = _tiny_ownership(0)
        changed = CircuitConfig(
            theta=1.0, fixed_point=FMT, sigmoid_degree=7
        )
        assert extraction_structure_key(model, keys, changed) != \
            extraction_structure_key(model, keys, config)
        misses_before = claim_engine.stats.compile_misses
        compiled, result = claim_engine.synthesize(
            extraction_structure_key(model, keys, changed),
            extraction_synthesizer(model, keys, changed),
        )
        assert claim_engine.stats.compile_misses == misses_before + 1
        assert not result.resynthesized

    def test_prover_object_engine_path(self, claim_engine, two_claims):
        """OwnershipProver.prove_ownership_cached rides the same caches."""
        _, _, (keys, config) = two_claims
        model, _, _ = _tiny_ownership(3)
        prover = OwnershipProver(model, keys, config, engine=claim_engine)
        setup_misses_before = claim_engine.stats.setup_misses
        claim = prover.prove_ownership_cached(seed=11)
        assert claim_engine.stats.setup_misses == setup_misses_before
        verifier = OwnershipVerifier(
            claim_engine.setup(claim_engine.compiled_for(
                extraction_structure_key(model, keys, config)
            )).verifying_key
        )
        assert verifier.verify(model, claim).accepted
