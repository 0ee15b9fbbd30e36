"""Tests for the compute-backend subsystem and where engine proofs run."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.curves.msm import pippenger_window_size
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
from repro.snark import UnsatisfiedWitness, prepare_proving_key


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

    @pytest.mark.parametrize("value, name", [
        ("SERIAL", "serial"), ("Serial", "serial"),
        ("PROCESS", "process"), ("Process", "process"),
    ])
    def test_env_name_is_case_insensitive(self, monkeypatch, value, name):
        monkeypatch.setenv("ZKROWNN_BACKEND", value)
        monkeypatch.setenv("ZKROWNN_WORKERS", "2")
        backend = get_backend()
        assert backend.name == name
        backend.close()

    def test_unknown_env_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("ZKROWNN_BACKEND", "gpu")
        with pytest.raises(ValueError, match="gpu"):
            get_backend()

    def test_explicit_process_wins_over_env_serial(self, monkeypatch):
        monkeypatch.setenv("ZKROWNN_BACKEND", "serial")
        backend = get_backend("process", 2)
        assert isinstance(backend, ProcessBackend) and backend.workers == 2
        backend.close()

    def test_empty_env_backend_means_the_default(self, monkeypatch):
        monkeypatch.setenv("ZKROWNN_BACKEND", "")
        assert get_backend().name == "serial"
        monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 3)
        backend = get_backend(default="process")
        assert backend.name == "process" and backend.workers == 3
        backend.close()

    def test_explicit_workers_win_over_env(self, monkeypatch):
        monkeypatch.setenv("ZKROWNN_WORKERS", "5")
        backend = get_backend("process", 2)
        assert backend.workers == 2
        backend.close()

    @pytest.mark.parametrize("value", ["", "0"])
    def test_unset_or_zero_env_workers_mean_usable_cpus(
        self, monkeypatch, value
    ):
        monkeypatch.setenv("ZKROWNN_WORKERS", value)
        monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 6)
        backend = get_backend("process")
        assert backend.workers == 6
        backend.close()

    def test_malformed_env_workers_rejected(self, monkeypatch):
        monkeypatch.setenv("ZKROWNN_WORKERS", "two")
        with pytest.raises(ValueError):
            get_backend("process")


class TestWorkerCountArguments:
    """An argument worker count follows the ``ZKROWNN_WORKERS`` rule: an
    integer >= 0, where 0 means the usable CPUs."""

    @pytest.fixture(autouse=True)
    def _nothing_configured(self, monkeypatch):
        monkeypatch.delenv("ZKROWNN_BACKEND", raising=False)
        monkeypatch.delenv("ZKROWNN_WORKERS", raising=False)

    @pytest.mark.parametrize("build", [
        lambda: ProcessBackend(-3),
        lambda: get_backend("process", -3),
        lambda: get_backend("serial", -3),
        lambda: machine_backend(workers_count=-2),
    ], ids=["ProcessBackend", "get_backend-process", "get_backend-serial",
            "machine_backend"])
    def test_negative_counts_are_refused_by_name(self, build):
        with pytest.raises(ValueError, match="workers_count"):
            build()

    def test_zero_means_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 3)
        assert ProcessBackend(0).workers == 3
        assert get_backend("process", 0).workers == 3
        assert machine_backend(workers_count=0).workers == 3


_STRAY_PROFILE_SCRIPT = """
import json, tempfile
from repro.curves.msm import pippenger_window_size
from repro.parallel import get_backend
from repro.service import ClaimRegistry, ProofService

service = ProofService(ClaimRegistry(tempfile.mkdtemp()))
try:
    print(json.dumps({
        "window": pippenger_window_size(4096),
        "backend": get_backend().name,
        "dispatch_threads": service.scheduler.workers,
    }))
finally:
    service.close()
"""


class TestNoMachineProfile:
    def test_a_stray_profile_file_steers_nothing(self, tmp_path, monkeypatch):
        """A profile file left by an older version -- at the path its
        variable named or in the home directory -- is never read: a fresh
        process sees the static window table, the serial library
        default and dispatch threads sized from the usable CPUs."""
        static_width = pippenger_window_size(4096)
        stray = json.dumps({
            "compute_backend": "process", "workers": 2, "max_batch": 3,
            "pippenger_windows": {"signed": [[0, 13]]},
        })
        named = tmp_path / "profile.json"
        named.write_text(stray)
        home = tmp_path / "home"
        (home / ".zkrownn").mkdir(parents=True)
        (home / ".zkrownn" / "profile.json").write_text(stray)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                   HOME=str(home), ZKROWNN_PROFILE=str(named))
        env.pop("ZKROWNN_BACKEND", None)
        env.pop("ZKROWNN_WORKERS", None)
        done = subprocess.run(
            [sys.executable, "-c", _STRAY_PROFILE_SCRIPT], env=env,
            timeout=120, stdout=subprocess.PIPE, text=True, check=True,
        )
        seen = json.loads(done.stdout.splitlines()[-1])
        assert seen == {
            "window": static_width, "backend": "serial",
            "dispatch_threads": usable_cpus(),
        }

    def test_profile_metadata_reports_nothing_loaded(self, tmp_path,
                                                     monkeypatch):
        """What benchmark payloads record: never a loaded profile, even
        with a profile file at the path its variable used to name."""
        from repro.tuning.profile import active_profile_metadata

        named = tmp_path / "profile.json"
        named.write_text(json.dumps({"compute_backend": "process"}))
        monkeypatch.setenv("ZKROWNN_PROFILE", str(named))
        assert active_profile_metadata() == {"loaded": False}

    def test_profile_metadata_is_a_fresh_dict_per_call(self):
        from repro.tuning.profile import active_profile_metadata

        first = active_profile_metadata()
        first["loaded"] = True
        assert active_profile_metadata() == {"loaded": False}

    def test_the_tuner_is_gone(self):
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module("repro.tuning.tuner")


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


def _chain_synthesizer(depth, x=3):
    def synthesize(b):
        out = b.public_output("y")
        w = b.private_input("x", x)
        acc = w
        for _ in range(depth):
            acc = b.mul(acc, w)
        b.bind_output(out, acc + 1)

    return synthesize


def _expected_proofs(seeds, depth=8):
    """The serial backend's proofs of the chain circuit, one per seed."""
    serial = ProvingEngine(backend=SerialBackend())
    compiled, synthesis = serial.synthesize("chain", _chain_synthesizer(depth))
    return [
        serial.prove(compiled, synthesis, seed=seed, setup_seed=5).to_bytes()
        for seed in seeds
    ]


class TestEngineProve:
    """Every engine proof is one :meth:`ComputeBackend.prove` call."""

    def test_serial_and_process_proofs_byte_identical(self):
        seeds = [11, 22, 33]
        serial_engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = serial_engine.synthesize(
            "chain", _chain_synthesizer(8)
        )
        serial_proofs = [
            serial_engine.prove(compiled, synthesis, seed=seed, setup_seed=5)
            for seed in seeds
        ]

        backend = ProcessBackend(2)
        process_engine = ProvingEngine(backend=backend)
        compiled_p, synthesis_p = process_engine.synthesize(
            "chain", _chain_synthesizer(8)
        )
        try:
            process_proofs = [
                process_engine.prove(
                    compiled_p, synthesis_p, seed=seed, setup_seed=5
                )
                for seed in seeds
            ]
        finally:
            backend.close()

        assert [p.to_bytes() for p in serial_proofs] == [
            p.to_bytes() for p in process_proofs
        ]
        for proof in serial_proofs:
            assert serial_engine.verify(compiled, synthesis.public_values, proof)

    def test_every_proof_is_one_backend_dispatch(self):
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(4))
        engine.prove(compiled, synthesis, seed=1, setup_seed=3)
        engine.prove(compiled, synthesis, seed=2)
        engine.prove_job("chain", _chain_synthesizer(4), seed=3)
        assert engine.stats.proofs == 3
        assert engine.stats.proof_batches == 3

    def test_prove_accepts_raw_assignments(self):
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(4))
        proof = engine.prove(compiled, synthesis.assignment, seed=7, setup_seed=3)
        assert engine.verify(compiled, synthesis.public_values, proof)

    def test_default_seeds_are_fresh(self):
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(6))
        first = engine.prove(compiled, synthesis, setup_seed=9)
        second = engine.prove(compiled, synthesis, setup_seed=9)
        assert first.to_bytes() != second.to_bytes()

    def test_a_proof_counts_as_a_busy_worker_while_it_runs(self, monkeypatch):
        from repro.snark import groth16

        backend = SerialBackend()
        engine = ProvingEngine(backend=backend)
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(4))
        seen = []
        real = groth16.prove_prepared

        def spy(*args, **kwargs):
            seen.append(backend.busy_workers())
            return real(*args, **kwargs)

        monkeypatch.setattr(groth16, "prove_prepared", spy)
        engine.prove(compiled, synthesis, seed=1, setup_seed=3)
        assert seen == [1]
        assert backend.busy_workers() == 0


class TestSingleFlightCompile:
    def test_threads_meeting_a_new_shape_compile_it_once(self):
        """Claims dispatched together on several threads pay one compile:
        the rest replay the first one's trace."""
        engine = ProvingEngine(backend=SerialBackend())
        barrier = threading.Barrier(3)
        results = []

        def run():
            barrier.wait(timeout=30)
            results.append(engine.synthesize("chain", _chain_synthesizer(6)))

        threads = [threading.Thread(target=run, daemon=True) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 3
        assert len({compiled.digest for compiled, _ in results}) == 1
        assert engine.stats.compile_misses == 1
        assert engine.stats.compile_hits == 2


class TestPersistentProvePools:
    """ProcessBackend keeps per-digest prove pools warm across proofs."""

    def test_pool_survives_across_proofs(self):
        backend = ProcessBackend(2)
        engine = ProvingEngine(backend=backend)
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(8))
        try:
            engine.prove(compiled, synthesis, seed=1, setup_seed=5)
            assert backend.prove_pool_keys() == [compiled.digest]
            pool_before = backend._prove_pools[compiled.digest]
            engine.prove(compiled, synthesis, seed=2)
            # Same warm pool object: no new workers for the second proof.
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
                engine.prove(compiled, synthesis, seed=1, setup_seed=5)
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
                backend.prove(None, None, [], None)


class TestProcessBackend:
    def test_length_mismatch(self):
        """A wrong-length assignment is refused in the worker with the
        serial backend's error, and the digest's pool stays warm."""
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(4))
        ppk = prepare_proving_key(engine.setup(compiled, seed=5).proving_key)
        short = list(synthesis.assignment)[:-1]
        with pytest.raises(UnsatisfiedWitness, match="entries") as serial:
            SerialBackend().prove(
                ppk, compiled.cs, short, 1, key_id=compiled.digest
            )

        backend = ProcessBackend(2)
        try:
            with pytest.raises(UnsatisfiedWitness) as process:
                backend.prove(
                    ppk, compiled.cs, short, 1, key_id=compiled.digest
                )
            assert str(process.value) == str(serial.value)
            assert backend.prove_pool_keys() == [compiled.digest]
            pool = backend._prove_pools[compiled.digest]
            proof = backend.prove(
                ppk, compiled.cs, synthesis.assignment, 1,
                key_id=compiled.digest,
            )
            assert backend._prove_pools[compiled.digest] is pool
            assert engine.verify(compiled, synthesis.public_values, proof)
            assert backend.busy_workers() == 0
        finally:
            backend.close()

    def test_one_worker_proves_on_the_calling_thread(self):
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(4))
        ppk = prepare_proving_key(engine.setup(compiled, seed=5).proving_key)
        expected = SerialBackend().prove(
            ppk, compiled.cs, synthesis.assignment, 3, key_id=compiled.digest
        )

        backend = ProcessBackend(1)
        before = {p.pid for p in multiprocessing.active_children()}
        try:
            proof = backend.prove(
                ppk, compiled.cs, synthesis.assignment, 3,
                key_id=compiled.digest,
            )
            assert {p.pid for p in multiprocessing.active_children()} == before
            assert backend.prove_pool_keys() == []
            assert proof.to_bytes() == expected.to_bytes()
        finally:
            backend.close()


class TestLoneProofsRunOnTheBackend:
    """A backend proves one claim at a time, and every engine proof goes
    through it: on ``ProcessBackend(2)`` a lone ``engine.prove`` or
    ``prove_job`` runs in the digest's pool, with the serial bytes."""

    def test_prove_and_prove_job_run_in_the_digests_pool(self):
        serial = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = serial.synthesize("chain", _chain_synthesizer(8))
        expected = serial.prove(compiled, synthesis, seed=7, setup_seed=5)
        expected_job = serial.prove_job(
            "chain", _chain_synthesizer(8), seed=8, setup_seed=5
        )

        backend = ProcessBackend(2)
        engine = ProvingEngine(backend=backend)
        before = {p.pid for p in multiprocessing.active_children()}
        try:
            compiled_p, synthesis_p = engine.synthesize(
                "chain", _chain_synthesizer(8)
            )
            proof = engine.prove(compiled_p, synthesis_p, seed=7, setup_seed=5)
            assert backend.prove_pool_keys() == [compiled_p.digest]
            assert {p.pid for p in multiprocessing.active_children()} - before
            pool = backend._prove_pools[compiled_p.digest]
            job = engine.prove_job(
                "chain", _chain_synthesizer(8), seed=8, setup_seed=5
            )
            assert backend._prove_pools[compiled_p.digest] is pool
            assert proof.to_bytes() == expected.to_bytes()
            assert job.proof.to_bytes() == expected_job.proof.to_bytes()
        finally:
            backend.close()


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
    def test_killed_worker_fails_the_proof_and_the_pool_is_replaced(self):
        seeds = [1, 2]
        expected = _expected_proofs(seeds)
        backend = ProcessBackend(2)
        engine = ProvingEngine(backend=backend)
        compiled_p, synthesis_p = engine.synthesize("chain", _chain_synthesizer(8))
        engine.setup(compiled_p, seed=5)
        before = {p.pid for p in multiprocessing.active_children()}

        try:
            engine.prove(compiled_p, synthesis_p, seed=seeds[0])  # warm pool
            workers = [p for p in multiprocessing.active_children()
                       if p.pid not in before]
            assert workers
            for victim in workers:
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10)
            outcome = _run_with_timeout(
                lambda: engine.prove(compiled_p, synthesis_p, seed=seeds[1])
            )
            assert isinstance(outcome.get("error"), ProveWorkerLost), outcome
            assert backend.prove_pool_keys() == []
            assert backend.busy_workers() == 0
            # The same claims again: a fresh pool, the serial bytes.
            again = _run_with_timeout(lambda: [
                engine.prove(compiled_p, synthesis_p, seed=seed).to_bytes()
                for seed in seeds
            ])
            assert again["value"] == expected
            assert backend.prove_pool_keys() == [compiled_p.digest]
        finally:
            backend.close()

    def test_worker_killed_under_a_proof_fails_it_and_the_pool_is_replaced(
        self,
    ):
        # The proof is on the pool and its caller blocks in
        # future.result() when the worker dies: the result must be the
        # loss, not a thread waiting on a dead process for good.
        seeds = [1, 2]
        expected = _expected_proofs(seeds)
        backend = ProcessBackend(2)
        engine = ProvingEngine(backend=backend)
        compiled_p, synthesis_p = engine.synthesize("chain", _chain_synthesizer(8))
        engine.setup(compiled_p, seed=5)
        before = {p.pid for p in multiprocessing.active_children()}
        outcome = {}

        def prove():
            try:
                outcome["value"] = engine.prove(
                    compiled_p, synthesis_p, seed=seeds[0]
                )
            except Exception as exc:  # noqa: BLE001 - asserted below
                outcome["error"] = exc

        thread = threading.Thread(target=prove, daemon=True)
        try:
            thread.start()
            deadline = time.monotonic() + 60
            victim = None
            while victim is None and time.monotonic() < deadline:
                # A worker exists only once submit() has queued the proof.
                if backend.busy_workers() == 1:
                    victim = next((
                        p for p in multiprocessing.active_children()
                        if p.pid not in before
                    ), None)
                if victim is None:
                    time.sleep(0.001)
            assert victim is not None, "no prove worker started"
            os.kill(victim.pid, signal.SIGKILL)
            thread.join(timeout=90)
            assert not thread.is_alive(), "the prove blocked on a dead worker"
            assert isinstance(outcome.get("error"), ProveWorkerLost), outcome
            assert backend.prove_pool_keys() == []
            assert backend.busy_workers() == 0
            again = _run_with_timeout(lambda: [
                engine.prove(compiled_p, synthesis_p, seed=seed).to_bytes()
                for seed in seeds
            ])
            assert again["value"] == expected
            assert backend.prove_pool_keys() == [compiled_p.digest]
            assert victim.pid not in {
                p.pid for p in multiprocessing.active_children()
            }
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
                backend.prove(None, None, [1], 1, key_id="d" * 64)
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
    engine.prove(compiled, synthesis, seed=1, setup_seed=5)
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
        that moment -- here the metrics-registry lock and the log stream
        lock, for the whole life of the pool -- is no business of a
        spawned worker, even one that profiles its kernels into its own
        registry."""
        monkeypatch.setenv("ZKROWNN_PROFILE_KERNELS", "1")
        engine = ProvingEngine(backend=SerialBackend())
        compiled, synthesis = engine.synthesize("chain", _chain_synthesizer(8))
        ppk = prepare_proving_key(engine.setup(compiled, seed=5).proving_key)
        expected = SerialBackend().prove(
            ppk, compiled.cs, synthesis.assignment, 7, key_id=compiled.digest
        )

        registry = obs_metrics.get_metrics()
        held, release = threading.Event(), threading.Event()

        def hold_locks():
            with registry._lock, obs_logging._LOCK:
                held.set()
                release.wait(timeout=120)

        holder = threading.Thread(target=hold_locks, daemon=True)
        holder.start()
        assert held.wait(timeout=10)
        backend = ProcessBackend(2)
        try:
            outcome = _run_with_timeout(lambda: backend.prove(
                ppk, compiled.cs, synthesis.assignment, 7,
                key_id=compiled.digest,
            ))
        finally:
            release.set()
            holder.join(timeout=10)
            backend.close()
        assert outcome["value"].to_bytes() == expected.to_bytes()


class TestConcurrentProvePools:
    def test_many_threads_prove_one_digest_through_one_pool(self):
        """The service's shape: several dispatch threads, one digest, one
        shared pool.  More threads than workers and a short switch
        interval; every proof must be the serial one and the in-flight
        count must come back to zero (a lost update would not)."""
        seeds = {index: [10 * index + k for k in range(1, 3)]
                 for index in range(6)}
        expected = {index: _expected_proofs(s) for index, s in seeds.items()}
        backend = ProcessBackend(2)
        engine = ProvingEngine(backend=backend)
        compiled_p, synthesis_p = engine.synthesize("chain", _chain_synthesizer(8))
        engine.setup(compiled_p, seed=5)
        results = {}

        def prove(index):
            results[index] = [
                engine.prove(compiled_p, synthesis_p, seed=seed).to_bytes()
                for seed in seeds[index]
            ]

        threads = [
            threading.Thread(target=prove, args=(i,), daemon=True)
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
        assert results == expected

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
            proofs = [
                engine.prove(compiled, synthesis, seed=seed, setup_seed=5)
                for seed in (depth, depth + 1)
            ]
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
            # Both shapes' proofs completed despite max_prove_pools=1:
            # eviction skipped the busy pool instead of killing it.
            assert results == {6: True, 9: True}
            assert len(backend.prove_pool_keys()) <= 2
        finally:
            backend.close()
