"""Tests for the compute-backend subsystem and engine batch proving."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.curves.bn254 import R
from repro.curves.g1 import G1Point, jac_to_affine_many
from repro.curves.msm import naive_msm_g1
from repro.engine import ProvingEngine
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.parallel import (
    ComputeBackend,
    ProcessBackend,
    ProveWorkerLost,
    SerialBackend,
    get_backend,
    machine_backend,
    usable_cpus,
)
from repro.parallel import backend as backend_mod

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

    def test_process_backend_sizes_itself_from_usable_cpus(self, monkeypatch):
        assert usable_cpus() >= 1
        monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 5)
        assert ProcessBackend().workers == 5
        assert ProcessBackend(3).workers == 3


class TestMachineBackend:
    """``machine_backend``: the same ladder as ``get_backend`` with a
    fallback sized from the machine (what the proof service asks for)."""

    @pytest.fixture(autouse=True)
    def _nothing_configured(self, monkeypatch):
        monkeypatch.delenv("ZKROWNN_BACKEND", raising=False)
        monkeypatch.delenv("ZKROWNN_WORKERS", raising=False)

    def test_two_or_more_cpus_give_a_process_pool_of_that_size(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 4)
        backend = machine_backend()
        assert isinstance(backend, ProcessBackend) and backend.workers == 4
        # Library callers are not affected: nothing set still means serial.
        assert isinstance(get_backend(), SerialBackend)

    def test_one_cpu_gives_the_serial_backend(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 1)
        backend = machine_backend()
        assert isinstance(backend, SerialBackend) and backend.workers == 1

    def test_environment_and_arguments_still_win(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 4)
        assert machine_backend("serial").name == "serial"
        assert machine_backend(workers_count=1).name == "serial"
        assert machine_backend(workers_count=3).workers == 3
        assert machine_backend("process", 1).workers == 1
        monkeypatch.setenv("ZKROWNN_WORKERS", "2")
        assert machine_backend().workers == 2
        monkeypatch.setenv("ZKROWNN_WORKERS", "1")
        assert machine_backend().name == "serial"
        monkeypatch.setenv("ZKROWNN_BACKEND", "process")
        backend = machine_backend()
        assert backend.name == "process" and backend.workers == 1
        monkeypatch.setenv("ZKROWNN_BACKEND", "serial")
        monkeypatch.setenv("ZKROWNN_WORKERS", "8")
        assert machine_backend().name == "serial"


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

    def test_key_id_is_required(self):
        # Every pool is cached under the circuit digest: there is no
        # anonymous, per-call pool to fall back to.
        for backend in (SerialBackend(), ProcessBackend(2)):
            with pytest.raises(TypeError, match="key_id"):
                backend.prove_stream(None, None, [])
            with pytest.raises(TypeError, match="key_id"):
                backend.prove_batch(None, None, [], [])


def _run_with_timeout(fn, seconds=90):
    """``fn()`` on a daemon thread: its result, or the exception it raised;
    fails the test if it is still running after ``seconds``."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn()
        except Exception as exc:  # noqa: BLE001 - handed to the caller
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"still blocked after {seconds}s"
    return outcome


class TestProveWorkerLoss:
    def test_killed_worker_fails_the_stream_and_the_pool_is_replaced(self):
        seeds = list(range(1, 9))
        serial = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = serial.synthesize("chain", _chain_synthesizer(8))
        expected = serial.prove_batch(
            compiled, [synthesis] * 8, seeds=seeds, setup_seed=5
        )

        backend = ProcessBackend(2)
        engine = ProvingEngine(backend=backend)
        compiled_p, synthesis_p = engine.synthesize("chain", _chain_synthesizer(8))
        before = {p.pid for p in multiprocessing.active_children()}

        def claims():
            for i in range(8):
                if i == 4:
                    # Mid-batch: two proofs are back, two are with the
                    # workers, four are still to be pulled.
                    victim = next(
                        p for p in multiprocessing.active_children()
                        if p.pid not in before
                    )
                    os.kill(victim.pid, signal.SIGKILL)
                yield synthesis_p

        try:
            outcome = _run_with_timeout(lambda: engine.prove_batch(
                compiled_p, claims(), seeds=iter(seeds), setup_seed=5
            ))
            assert isinstance(outcome.get("error"), ProveWorkerLost), outcome
            assert backend.prove_pool_keys() == []
            assert backend.busy_workers() == 0
            # The same stream again: a fresh pool, the serial bytes.
            again = _run_with_timeout(lambda: engine.prove_batch(
                compiled_p, [synthesis_p] * 8, seeds=seeds, setup_seed=5
            ))
            assert [p.to_bytes() for p in again["value"]] == [
                p.to_bytes() for p in expected
            ]
            assert backend.prove_pool_keys() == [compiled_p.digest]
        finally:
            backend.close()


    def test_a_worker_that_cannot_start_loses_the_pool_too(self, monkeypatch):
        # submit() starts workers on demand; when a worker dies under it
        # the start can fail on the queues the pool is already closing
        # (seen as this ValueError), which is the same loss by another name.
        from concurrent.futures import ProcessPoolExecutor

        def refuse(self, *args, **kwargs):
            raise ValueError("bad value(s) in fds_to_keep")

        monkeypatch.setattr(ProcessPoolExecutor, "submit", refuse)
        backend = ProcessBackend(2)
        try:
            with pytest.raises(ProveWorkerLost, match="fds_to_keep"):
                backend.prove_stream(None, None, [([1], 1)], key_id="d" * 64)
            assert backend.prove_pool_keys() == []
        finally:
            backend.close()


_ORPHAN_SCRIPT = """
import multiprocessing, os, signal
from repro.engine import ProvingEngine
from repro.parallel import ProcessBackend

def synthesize(b):
    out = b.public_output("y")
    w = b.private_input("x", 3)
    b.bind_output(out, b.mul(w, w) + 1)

if __name__ == "__main__":
    engine = ProvingEngine(backend=ProcessBackend(2))
    compiled, synthesis = engine.synthesize("square", synthesize)
    engine.prove_batch(compiled, [synthesis] * 4, seeds=[1, 2, 3, 4], setup_seed=5)
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
"""


class TestWorkersDoNotOutliveTheirParent:
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        """A pool worker blocks on a queue its siblings keep open, so a
        parent that is ``kill -9``-ed would leave them (and their copies
        of the key) behind for good; they watch for it instead."""
        script = tmp_path / "orphan.py"
        script.write_text(_ORPHAN_SCRIPT)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run(
            [sys.executable, str(script)], env=env, timeout=120,
            stdout=subprocess.PIPE, text=True,
        )
        assert done.returncode == -signal.SIGKILL
        pids = [int(pid) for pid in done.stdout.split()]
        assert pids, "the pool started no worker"
        deadline = time.monotonic() + 20
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    pids.remove(pid)
            time.sleep(0.05)
        assert not pids, f"workers {pids} outlived their parent"


class TestSpawnedWorkersShareNoLocks:
    def test_pool_starts_while_other_threads_hold_the_obs_locks(self, monkeypatch):
        """The service starts prove pools from a process whose HTTP and
        scheduler threads log and count.  Whatever those threads hold at
        that moment -- here the metrics-registry locks and the log stream
        lock, for the whole life of the pool -- is no business of a
        spawned worker, even one that profiles its kernels into its own
        registry."""
        from repro.snark.groth16 import prepare_proving_key

        monkeypatch.setenv(obs_metrics.KERNEL_PROFILING_ENV, "1")
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(8))
        ppk = prepare_proving_key(engine.setup(compiled, seed=5).proving_key)
        batch = ([synthesis.assignment] * 3, [7, 8, 9])
        expected = SerialBackend().prove_batch(
            ppk, compiled.cs, *batch, key_id=compiled.digest
        )

        registry = obs_metrics.get_metrics()
        held, release = threading.Event(), threading.Event()

        def hold_locks():
            with obs_metrics._STATE_LOCK, registry._lock, obs_logging._LOCK:
                held.set()
                release.wait(timeout=120)

        holder = threading.Thread(target=hold_locks, daemon=True)
        holder.start()
        assert held.wait(timeout=10)
        backend = ProcessBackend(2)
        try:
            outcome = _run_with_timeout(lambda: backend.prove_batch(
                ppk, compiled.cs, *batch, key_id=compiled.digest
            ))
        finally:
            release.set()
            holder.join(timeout=10)
            backend.close()
        assert [p.to_bytes() for p in outcome["value"]] == [
            p.to_bytes() for p in expected
        ]


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
    def test_many_threads_stream_one_digest_through_one_pool(self):
        """The service's shape after ISSUE 20: several dispatch threads,
        one digest, one shared pool.  More threads than workers and a
        short switch interval; every proof must be the serial one and the
        in-flight count must come back to zero (a lost update would not)."""
        serial = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = serial.synthesize("chain", _chain_synthesizer(8))
        backend = ProcessBackend(2)
        engine = ProvingEngine(backend=backend)
        compiled_p, synthesis_p = engine.synthesize("chain", _chain_synthesizer(8))
        engine.setup(compiled_p, seed=5)
        results = {}

        def stream(index):
            seeds = [10 * index + k for k in range(1, 4)]
            results[index] = (seeds, engine.prove_batch(
                compiled_p, (synthesis_p for _ in seeds), seeds=iter(seeds),
            ))

        threads = [
            threading.Thread(target=stream, args=(i,), daemon=True)
            for i in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert backend.busy_workers() == 0
            assert backend.prove_pool_keys() == [compiled_p.digest]
        finally:
            sys.setswitchinterval(interval)
            backend.close()
        assert sorted(results) == list(range(6))
        for seeds, proofs in results.values():
            expected = serial.prove_batch(
                compiled, [synthesis] * 3, seeds=seeds, setup_seed=5
            )
            assert [p.to_bytes() for p in proofs] == [
                p.to_bytes() for p in expected
            ]

    def test_busy_pool_is_not_evicted_under_cap_pressure(self):
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
