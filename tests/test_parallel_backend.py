"""Tests for the compute-backend subsystem and engine batch proving."""

import os

import pytest

from repro.curves.bn254 import R
from repro.curves.g1 import G1Point, jac_to_affine_many
from repro.curves.msm import naive_msm_g1
from repro.engine import ProvingEngine
from repro.parallel import (
    ComputeBackend,
    ProcessBackend,
    SerialBackend,
    get_backend,
)

G = G1Point.generator()


def _inputs(rng, n):
    points = [
        None if i % 17 == 5 else _affine(G * rng.randrange(1, 4000))
        for i in range(n)
    ]
    scalars = [0 if i % 13 == 3 else rng.randrange(2 * R) for i in range(n)]
    return points, scalars


def _affine(p: G1Point):
    return None if p.is_infinity() else (p.x, p.y)


class TestBackendSelection:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("ZKROWNN_BACKEND", raising=False)
        assert get_backend().name == "serial"

    def test_env_selects_process(self, monkeypatch):
        monkeypatch.setenv("ZKROWNN_BACKEND", "process")
        monkeypatch.setenv("ZKROWNN_WORKERS", "3")
        backend = get_backend()
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 3
        backend.close()

    def test_explicit_name_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("ZKROWNN_BACKEND", "process")
        assert get_backend("serial").name == "serial"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            get_backend("gpu")

    def test_engine_uses_env_backend(self, monkeypatch):
        monkeypatch.setenv("ZKROWNN_BACKEND", "serial")
        engine = ProvingEngine()
        assert engine.backend.name == "serial"


class TestSerialBackend:
    def test_msm_matches_naive(self, rng):
        points, scalars = _inputs(rng, 40)
        got = SerialBackend().msm_g1(points, scalars)
        expected = naive_msm_g1(points, scalars)
        assert jac_to_affine_many([got]) == jac_to_affine_many([expected])


class TestProcessBackend:
    @pytest.fixture(scope="class")
    def backend(self):
        backend = ProcessBackend(2, min_msm_chunk=8)
        yield backend
        backend.close()

    def test_chunked_msm_matches_naive(self, backend, rng):
        points, scalars = _inputs(rng, 64)
        got = backend.msm_g1(points, scalars)
        expected = naive_msm_g1(points, scalars)
        assert jac_to_affine_many([got]) == jac_to_affine_many([expected])

    def test_small_msm_stays_serial(self, rng):
        backend = ProcessBackend(2, min_msm_chunk=10**6)
        try:
            points, scalars = _inputs(rng, 16)
            got = backend.msm_g1(points, scalars)
            expected = naive_msm_g1(points, scalars)
            assert jac_to_affine_many([got]) == jac_to_affine_many([expected])
            assert backend._pool is None  # never spun up
        finally:
            backend.close()

    def test_length_mismatch(self, backend):
        with pytest.raises(ValueError):
            backend.msm_g1([_affine(G)], [1, 2])

    def test_multi_miller_fans_out_live_lanes_around_precomputed_ones(self):
        """The Groth16-batch lane mix: live pairs go to the workers,
        precomputed and infinity lanes stay behind, and the product is the
        serial kernel's raw Miller value."""
        from repro.curves.g2 import G2Point
        from repro.curves.pairing import multi_miller_loop, precompute_g2

        h = G2Point.generator()
        pairs = [(G * a, h * b) for a, b in ((3, 5), (7, 11), (13, 2))]
        pairs += [(G * 17, precompute_g2(h * 19)), (G1Point.infinity(), h),
                  (G * 23, precompute_g2(h))]
        backend = ProcessBackend(2, min_miller_pairs=4)
        try:
            assert backend.multi_miller(pairs) == multi_miller_loop(pairs)
            assert backend._pool is None  # three live pairs: below the floor
            backend.min_miller_pairs = 3
            assert backend.multi_miller(pairs) == multi_miller_loop(pairs)
            assert backend._pool is not None
        finally:
            backend.close()


def _chain_synthesizer(depth, x=3):
    def synthesize(b):
        out = b.public_output("y")
        w = b.private_input("x", x)
        acc = w
        for _ in range(depth):
            acc = b.mul(acc, w)
        b.bind_output(out, acc + 1)

    return synthesize


class TestProveBatch:
    def test_serial_and_process_proofs_byte_identical(self):
        seeds = [11, 22, 33]
        serial_engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = serial_engine.synthesize(
            "chain", _chain_synthesizer(8)
        )
        serial_proofs = serial_engine.prove_batch(
            compiled, [synthesis] * 3, seeds=seeds, setup_seed=5
        )

        backend = ProcessBackend(2)
        process_engine = ProvingEngine(backend=backend)
        compiled_p, synthesis_p = process_engine.synthesize(
            "chain", _chain_synthesizer(8)
        )
        try:
            process_proofs = process_engine.prove_batch(
                compiled_p, [synthesis_p] * 3, seeds=seeds, setup_seed=5
            )
        finally:
            backend.close()

        assert [p.to_bytes() for p in serial_proofs] == [
            p.to_bytes() for p in process_proofs
        ]
        for proof in serial_proofs:
            assert serial_engine.verify(compiled, synthesis.public_values, proof)

    def test_prove_batch_updates_stats(self):
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(4))
        proofs = engine.prove_batch(
            compiled, [synthesis, synthesis], seeds=[1, 2], setup_seed=3
        )
        assert len(proofs) == 2
        assert engine.stats.proofs == 2
        assert engine.stats.proof_batches == 1

    def test_prove_batch_seed_count_mismatch(self):
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(4))
        with pytest.raises(ValueError):
            engine.prove_batch(compiled, [synthesis], seeds=[1, 2])

    def test_prove_batch_accepts_raw_assignments(self):
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(4))
        proofs = engine.prove_batch(
            compiled, [synthesis.assignment], seeds=[7], setup_seed=3
        )
        assert engine.verify(compiled, synthesis.public_values, proofs[0])


class TestStreamingProve:
    """prove_batch with generators: synthesis pipelines with dispatch."""

    def test_generator_matches_sequence_path(self):
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(6))
        expected = engine.prove_batch(
            compiled, [synthesis] * 3, seeds=[4, 5, 6], setup_seed=9
        )
        streamed = engine.prove_batch(
            compiled,
            (synthesis for _ in range(3)),
            seeds=iter([4, 5, 6]),
            setup_seed=9,
        )
        assert [p.to_bytes() for p in streamed] == [p.to_bytes() for p in expected]

    def test_generator_default_seeds_are_fresh(self):
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(6))
        proofs = engine.prove_batch(
            compiled, (synthesis for _ in range(2)), setup_seed=9
        )
        assert len(proofs) == 2
        assert proofs[0].to_bytes() != proofs[1].to_bytes()

    def test_stream_is_pulled_lazily(self):
        # The backend must not materialize the whole generator before the
        # first proof: with a serial backend, synthesis i happens only
        # after proof i-1 completed.
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(6))
        events = []

        def gen():
            for i in range(3):
                events.append(("synth", i))
                yield synthesis, i + 1

        proofs = engine.prove_stream(compiled, gen(), setup_seed=9)
        assert len(proofs) == 3
        assert events == [("synth", 0), ("synth", 1), ("synth", 2)]

    def test_process_stream_matches_serial(self):
        serial_engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = serial_engine.synthesize(
            "chain", _chain_synthesizer(8)
        )
        expected = serial_engine.prove_batch(
            compiled, [synthesis] * 3, seeds=[1, 2, 3], setup_seed=5
        )

        backend = ProcessBackend(2)
        engine = ProvingEngine(backend=backend)
        compiled_p, synthesis_p = engine.synthesize("chain", _chain_synthesizer(8))
        try:
            streamed = engine.prove_batch(
                compiled_p,
                (synthesis_p for _ in range(3)),
                seeds=iter([1, 2, 3]),
                setup_seed=5,
            )
        finally:
            backend.close()
        assert [p.to_bytes() for p in streamed] == [p.to_bytes() for p in expected]


class TestPersistentProvePools:
    """ProcessBackend keeps per-digest prove pools warm across batches."""

    def test_pool_survives_across_batches(self):
        backend = ProcessBackend(2)
        engine = ProvingEngine(backend=backend)
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(8))
        try:
            engine.prove_batch(compiled, [synthesis] * 2, seeds=[1, 2], setup_seed=5)
            assert backend.prove_pool_keys() == [compiled.digest]
            pool_before = backend._prove_pools[compiled.digest]
            engine.prove_batch(compiled, [synthesis] * 2, seeds=[3, 4], setup_seed=5)
            # Same warm pool object: no re-fork for the second batch.
            assert backend._prove_pools[compiled.digest] is pool_before
            assert backend.prove_pool_keys() == [compiled.digest]
        finally:
            backend.close()
        assert backend.prove_pool_keys() == []

    def test_lru_eviction_bounds_pools(self):
        backend = ProcessBackend(2, max_prove_pools=1)
        engine = ProvingEngine(backend=backend)
        try:
            digests = []
            for depth in (6, 7):
                compiled, synthesis = engine.synthesize(
                    f"chain-{depth}", _chain_synthesizer(depth)
                )
                engine.prove_batch(
                    compiled, [synthesis] * 2, seeds=[1, 2], setup_seed=5
                )
                digests.append(compiled.digest)
            # Only the most recent digest's pool is warm.
            assert backend.prove_pool_keys() == [digests[-1]]
        finally:
            backend.close()

    def test_anonymous_key_uses_ephemeral_pool(self):
        from repro.snark.groth16 import prepare_proving_key

        backend = ProcessBackend(2)
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(8))
        keypair = engine.setup(compiled, seed=5)
        ppk = prepare_proving_key(keypair.proving_key)
        try:
            proofs = backend.prove_batch(
                ppk, compiled.cs, [synthesis.assignment] * 2, [7, 8]
            )
            assert backend.prove_pool_keys() == []  # nothing cached
            expected = SerialBackend().prove_batch(
                ppk, compiled.cs, [synthesis.assignment] * 2, [7, 8]
            )
            assert [p.to_bytes() for p in proofs] == [
                p.to_bytes() for p in expected
            ]
        finally:
            backend.close()


class TestStreamSeedExhaustion:
    def test_short_seed_iterable_raises_instead_of_truncating(self):
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(6))
        with pytest.raises(ValueError, match="ran short"):
            engine.prove_batch(
                compiled,
                (synthesis for _ in range(3)),
                seeds=iter([1, 2]),
                setup_seed=9,
            )


class TestConcurrentProvePools:
    def test_busy_pool_is_not_evicted_under_cap_pressure(self):
        import threading

        backend = ProcessBackend(2, max_prove_pools=1)
        engine = ProvingEngine(backend=backend)
        shapes = {}
        for depth in (6, 9):
            shapes[depth] = engine.synthesize(
                f"chain-{depth}", _chain_synthesizer(depth)
            )
        results = {}

        def run(depth):
            compiled, synthesis = shapes[depth]
            proofs = engine.prove_batch(
                compiled, [synthesis] * 2, seeds=[depth, depth + 1],
                setup_seed=5,
            )
            results[depth] = all(
                engine.verify(compiled, synthesis.public_values, p)
                for p in proofs
            )

        try:
            threads = [
                threading.Thread(target=run, args=(d,)) for d in (6, 9)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            # Both concurrent batches completed despite max_prove_pools=1:
            # eviction skipped the busy pool instead of killing it.
            assert results == {6: True, 9: True}
            assert len(backend.prove_pool_keys()) <= 2
        finally:
            backend.close()
