"""Proof-service throughput: the scheduler vs sequential claims.

The service subsystem's pitch is that many concurrent same-shape claims
cost one compile + one setup and then one prove each, with the service's
own queueing, leasing and persistence on top.  Measured here:

* ``sequential`` -- N claims via back-to-back ``prove_job`` calls on a
  fresh engine (first call pays compile + setup, the rest are cached);
* ``batched``    -- the same N claims submitted to a paused
  :class:`~repro.service.scheduler.ProofScheduler`, one dispatch per
  claim (the key keeps its name so older BENCH files still compare).

Also measured: the wire-format overhead of a claim round trip (encode +
decode of request/claim frames), which bounds what the HTTP surface adds
on top of proving; and what two closed-loop clients of one architecture
see from a default service -- claim latency over prove time, which a
service that proves their claims side by side keeps near 1 and one that
queues them behind each other pushes to 2.
"""

from __future__ import annotations

import gc
import threading
import time
from statistics import median

import numpy as np
import pytest

from repro.circuit import FixedPointFormat
from repro.engine import ProvingEngine
from repro.nn import mnist_mlp_scaled
from repro.parallel import usable_cpus
from repro.service import (
    ClaimRegistry,
    FaultPlan,
    FaultSpec,
    JobState,
    ProofScheduler,
    ProofServer,
    ProofService,
    ProofTask,
    ServiceClient,
    wire,
)
from repro.watermark.keys import WatermarkKeys
from repro.zkrownn import (
    CircuitConfig,
    extraction_structure_key,
    extraction_synthesizer,
)

FMT = FixedPointFormat(frac_bits=14, total_bits=40)
NUM_CLAIMS = 3


def _model(seed: int, scale):
    return mnist_mlp_scaled(
        input_dim=scale.mlp_input, hidden=scale.mlp_hidden,
        rng=np.random.default_rng(seed),
    )


def _keys(model, scale, seed: int = 1) -> WatermarkKeys:
    rng = np.random.default_rng(seed)
    triggers = rng.uniform(0, 1, (scale.mlp_triggers, scale.mlp_input))
    probe = model.forward_to(triggers[:1], 1)
    feature_dim = int(np.prod(probe.shape[1:]))
    return WatermarkKeys(
        embed_layer=1,
        target_class=0,
        trigger_inputs=triggers,
        projection=rng.standard_normal((feature_dim, scale.wm_bits)),
        signature=rng.integers(0, 2, scale.wm_bits).astype(np.int64),
    )


def test_batched_claims_vs_sequential(bench_scale, bench_json, tmp_path):
    """The scheduler amortizes compile/setup across N claims."""
    scale = bench_scale
    config = CircuitConfig(theta=1.0, fixed_point=FMT)
    keys = _keys(_model(5, scale), scale)
    models = [_model(5 + i, scale) for i in range(NUM_CLAIMS)]
    shape_key = extraction_structure_key(models[0], keys, config)

    # -- sequential: N prove_job round trips --------------------------------
    sequential_engine = ProvingEngine()
    t0 = time.perf_counter()
    for i, model in enumerate(models):
        sequential_engine.prove_job(
            shape_key,
            extraction_synthesizer(model, keys, config),
            seed=50 + i,
            setup_seed=9,
        )
    sequential_seconds = time.perf_counter() - t0

    # -- batched: one scheduler dispatch per claim --------------------------
    engine = ProvingEngine()
    registry = ClaimRegistry(tmp_path / "bench-registry")
    scheduler = ProofScheduler(engine, registry)
    for i, model in enumerate(models):
        scheduler.submit(
            ProofTask(
                claim_id=f"bench-{i}",
                shape_key=shape_key,
                synthesize=extraction_synthesizer(model, keys, config),
                model=model,
                keys=keys,
                config=config,
                seed=50 + i,
                setup_seed=9,
            )
        )
    t0 = time.perf_counter()
    scheduler.start()
    try:
        for i in range(NUM_CLAIMS):
            assert scheduler.wait(f"bench-{i}", timeout=1200) == JobState.DONE
        batched_seconds = time.perf_counter() - t0
    finally:
        scheduler.stop()

    # The scheduler must actually have amortized: one compile and one
    # setup for all claims, then one backend dispatch per claim.
    assert engine.stats.setup_misses == 1
    assert engine.stats.compile_misses == 1
    assert engine.stats.proof_batches == engine.stats.proofs == NUM_CLAIMS

    bench_json(
        "service-throughput",
        num_claims=NUM_CLAIMS,
        sequential_seconds=sequential_seconds,
        batched_seconds=batched_seconds,
        batched_speedup=sequential_seconds / batched_seconds,
        scheduler_stats=scheduler.stats.as_dict(),
        engine_stats=engine.stats.as_dict(),
        backend=engine.backend.name,
    )
    print(f"\n{NUM_CLAIMS} same-shape claims: sequential {sequential_seconds:.2f}s, "
          f"batched {batched_seconds:.2f}s "
          f"({sequential_seconds / batched_seconds:.2f}x)")


def test_restart_recovery(bench_scale, bench_json, tmp_path):
    """Crash-safety cost: recovery re-enqueue time and the warm restart.

    A service is "killed" with N queued claims (scheduler never started),
    then a fresh service over the same registry root recovers and proves
    them.  A second kill/restart cycle with one more same-shape claim
    measures the durable-setup path: the restarted engine must load the
    keypair from the shared disk cache and perform zero fresh setups.
    """
    from repro.service import ProofService

    scale = bench_scale
    config = CircuitConfig(theta=1.0, fixed_point=FMT)
    model = _model(5, scale)
    keys = _keys(model, scale)
    root = tmp_path / "recovery-registry"

    def request_frame(seed):
        return wire.encode_claim_request(wire.ClaimRequest(
            model=model, keys=keys, config=config, seed=seed, setup_seed=9,
        ))

    # -- killed with N queued claims ----------------------------------------
    service1 = ProofService(ClaimRegistry(root))
    claim_ids = [
        service1.submit(request_frame(70 + i))["claim_id"]
        for i in range(NUM_CLAIMS)
    ]
    # (no start(): the process dies before the scheduler dispatches)

    # -- cold restart: recover + prove --------------------------------------
    service2 = ProofService(ClaimRegistry(root))
    t0 = time.perf_counter()
    service2.start()
    recovery_seconds = time.perf_counter() - t0
    try:
        assert set(service2.recovered_claims) == set(claim_ids)
        for claim_id in claim_ids:
            assert service2.scheduler.wait(claim_id, timeout=1200) == JobState.DONE
        cold_prove_seconds = time.perf_counter() - t0
        assert service2.engine.stats.setup_misses == 1
    finally:
        service2.close()

    # -- killed again with one more claim; warm restart ---------------------
    service3 = ProofService(ClaimRegistry(root))
    extra_id = service3.submit(request_frame(99))["claim_id"]

    service4 = ProofService(ClaimRegistry(root))
    t0 = time.perf_counter()
    service4.start()
    try:
        assert extra_id in service4.recovered_claims
        assert service4.scheduler.wait(extra_id, timeout=1200) == JobState.DONE
        warm_prove_seconds = time.perf_counter() - t0
        # The whole point of the shared cache: no setup ran this process.
        assert service4.engine.stats.setup_misses == 0
        assert service4.engine.stats.setup_disk_hits >= 1
    finally:
        service4.close()

    bench_json(
        "restart-recovery",
        num_recovered=NUM_CLAIMS,
        recovery_enqueue_seconds=recovery_seconds,
        cold_restart_prove_seconds=cold_prove_seconds,
        warm_restart_prove_seconds=warm_prove_seconds,
        warm_setup_disk_hits=service4.engine.stats.setup_disk_hits,
    )
    print(f"\nrecovered {NUM_CLAIMS} queued claims in {recovery_seconds * 1e3:.1f}ms; "
          f"cold restart proved in {cold_prove_seconds:.2f}s, "
          f"warm restart (disk setup) in {warm_prove_seconds:.2f}s")


def test_degraded_mode_throughput(bench_scale, bench_json, tmp_path):
    """Fault-tolerance cost: claims/sec and p99 latency at a 10% injected
    dispatch-fault rate vs a clean run.

    Each dispatch has a 10% chance of a (deterministic, seeded) transient
    backend error; the scheduler's retry machinery must absorb every one
    and still land all claims ``done``.  Each claim is its own dispatch,
    so the fault rate and the latency distribution are per claim.
    """
    scale = bench_scale
    config = CircuitConfig(theta=1.0, fixed_point=FMT)
    keys = _keys(_model(5, scale), scale)
    models = [_model(5 + i, scale) for i in range(NUM_CLAIMS)]
    shape_key = extraction_structure_key(models[0], keys, config)

    def run(tag, faults):
        engine = ProvingEngine()
        registry = ClaimRegistry(tmp_path / f"degraded-{tag}")
        scheduler = ProofScheduler(
            engine, registry, max_attempts=5, faults=faults
        )
        for i, model in enumerate(models):
            scheduler.submit(
                ProofTask(
                    claim_id=f"{tag}-{i}",
                    shape_key=shape_key,
                    synthesize=extraction_synthesizer(model, keys, config),
                    model=model,
                    keys=keys,
                    config=config,
                    seed=50 + i,
                    setup_seed=9,
                )
            )
        t0 = time.perf_counter()
        scheduler.start()
        waits = []
        try:
            for i in range(NUM_CLAIMS):
                state = scheduler.wait(f"{tag}-{i}", timeout=1200)
                assert state == JobState.DONE, (tag, i, state)
                waits.append(time.perf_counter() - t0)
        finally:
            scheduler.stop()
        total = time.perf_counter() - t0
        return {
            "claims_per_second": NUM_CLAIMS / total,
            "p99_wait_seconds": float(np.percentile(waits, 99)),
            "total_seconds": total,
            "retried": scheduler.stats.retried,
            "quarantined": scheduler.stats.quarantined,
        }

    clean = run("clean", None)
    # Seed 7's deterministic coin fires within the first dispatches, so
    # the degraded run measurably exercises the retry path even at this
    # small claim count (a seed whose schedule never fires would bench a
    # clean run twice).
    plan = FaultPlan(seed=7, specs=[
        FaultSpec(site="scheduler.dispatch", kind="error",
                  error="RuntimeError", probability=0.10,
                  message="injected backend fault"),
    ])
    degraded = run("faulty", plan)
    assert plan.fired("scheduler.dispatch") >= 1
    assert degraded["retried"] >= 1
    assert degraded["quarantined"] == 0  # retries absorbed every fault

    bench_json(
        "service-degraded-mode",
        num_claims=NUM_CLAIMS,
        injected_fault_rate=0.10,
        injected_fires=plan.fired("scheduler.dispatch"),
        clean=clean,
        degraded=degraded,
        throughput_ratio=(
            degraded["claims_per_second"] / clean["claims_per_second"]
        ),
    )
    print(f"\ndegraded mode (10% dispatch faults, {plan.fired()} fired): "
          f"{degraded['claims_per_second']:.3f} claims/s "
          f"(clean {clean['claims_per_second']:.3f}), "
          f"p99 wait {degraded['p99_wait_seconds']:.2f}s "
          f"(clean {clean['p99_wait_seconds']:.2f}s), "
          f"{degraded['retried']} retries")


#: On/off claim pairs of the instrumentation-overhead gate.
OVERHEAD_PAIRS = 150


def test_instrumentation_overhead(bench_scale, bench_json, tmp_path):
    """Observability hooks must stay under 3% on the scheduled proving path.

    One engine and one running scheduler prove every claim; an untimed
    first claim compiles, sets up and prepares the shape.  Then claims are
    proved one at a time with observability disabled and fully enabled
    (tracing with a live trace id, stage metrics, span persistence;
    kernel profiling stays off, as in a default deployment), in
    OVERHEAD_PAIRS adjacent pairs of one model each whose order
    alternates.  Each claim is timed from submit to done.  The gate is
    the median of the per-pair enabled/disabled ratios: the two claims of
    a pair run a second apart and share the machine's state of the
    moment, and the median ignores the pairs a neighbour's burst landed
    in.
    """
    from repro.obs import new_trace_id, set_obs_enabled

    scale = bench_scale
    config = CircuitConfig(theta=1.0, fixed_point=FMT)
    keys = _keys(_model(5, scale), scale)
    models = [_model(5 + i, scale) for i in range(NUM_CLAIMS)]
    shape_key = extraction_structure_key(models[0], keys, config)
    scheduler = ProofScheduler(ProvingEngine(), ClaimRegistry(tmp_path / "obs"))
    trace_id = new_trace_id()

    def prove(claim_id: str, model) -> float:
        t0 = time.perf_counter()
        scheduler.submit(
            ProofTask(
                claim_id=claim_id,
                shape_key=shape_key,
                synthesize=extraction_synthesizer(model, keys, config),
                model=model,
                keys=keys,
                config=config,
                seed=50,
                setup_seed=9,
                trace_id=trace_id,
            )
        )
        assert scheduler.wait(claim_id, timeout=1200) == JobState.DONE
        return time.perf_counter() - t0

    previous = set_obs_enabled(True)
    disabled_times, enabled_times, ratios = [], [], []
    scheduler.start()
    try:
        prove("warm-up", models[0])  # compile, setup and prepare: not timed
        # A full collection over the key graph (tens of ms) would land in
        # one claim of some pairs: noise that is not the hooks' cost.
        gc.collect()
        gc.freeze()
        for i in range(OVERHEAD_PAIRS):
            model = models[i % NUM_CLAIMS]
            times = {}
            for enabled in (False, True) if i % 2 == 0 else (True, False):
                set_obs_enabled(enabled)
                times[enabled] = prove(f"{'on' if enabled else 'off'}-{i}", model)
            disabled_times.append(times[False])
            enabled_times.append(times[True])
            ratios.append(times[True] / times[False])
    finally:
        scheduler.stop()
        set_obs_enabled(previous)

    overhead = median(ratios) - 1.0
    bench_json(
        "instrumentation-overhead",
        pairs=OVERHEAD_PAIRS,
        disabled_seconds=disabled_times,
        enabled_seconds=enabled_times,
        pair_ratios=ratios,
        overhead_fraction=overhead,
    )
    print(f"\nobservability overhead: median of {OVERHEAD_PAIRS} pair ratios "
          f"{overhead * 100:+.2f}% (pairs {min(ratios):.3f}..{max(ratios):.3f})")
    assert overhead < 0.03, (
        f"observability hooks cost {overhead * 100:.2f}% (median of "
        f"{OVERHEAD_PAIRS} on/off claim pairs, ratios {sorted(ratios)}); "
        "the <3% budget is the contract that keeps them always-on"
    )


def test_two_closed_loop_clients(bench_scale, bench_json, tmp_path):
    """Two clients, each submitting its next same-shape claim when the last
    one is done: the shape of ``service_claims`` in ``benchmarks/e2e``.

    What a client waits for beyond its own prove is the service's doing:
    with one dispatch thread each claim also waits out the other client's
    prove (latency / prove ~ 2.0); a service sized from the machine proves
    the two side by side (~ 1.1, the rest being synthesis, persistence
    and the poll interval).  Asserted at <= 1.4 where there are two CPUs
    to prove on.
    """
    if usable_cpus() < 2:
        pytest.skip("one usable CPU: the service is serial by design")
    scale = bench_scale
    config = CircuitConfig(theta=1.0, fixed_point=FMT)
    keys = _keys(_model(5, scale), scale)
    clients, per_client = 2, 3
    service = ProofService(ClaimRegistry(tmp_path / "closed-loop"))
    server = ProofServer(service).start()
    samples = []

    def closed_loop(index: int) -> None:
        client = ServiceClient(server.url, max_poll_seconds=0.25)
        for i in range(per_client):
            t0 = time.perf_counter()
            ack = client.submit_claim(
                _model(100 * index + i, scale), keys, config,
                seed=100 * index + i, setup_seed=9,
            )
            status = client.wait(ack["claim_id"], timeout=1200)
            latency = time.perf_counter() - t0
            assert status["state"] == "done", status
            samples.append(
                (latency, status["timings"]["batch_prove_seconds"])
            )

    try:
        # Compile, set up and start the pool off the clock.
        warm = ServiceClient(server.url)
        ack = warm.submit_claim(_model(5, scale), keys, config,
                                seed=1, setup_seed=9)
        assert warm.wait(ack["claim_id"], timeout=1200)["state"] == "done"
        threads = [
            threading.Thread(target=closed_loop, args=(index,))
            for index in range(clients)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=1200)
        wall = time.perf_counter() - t0
        stats = warm.stats()
    finally:
        server.stop()
    assert len(samples) == clients * per_client

    latency = median(s[0] for s in samples)
    prove = median(s[1] for s in samples)
    ratio = latency / prove
    bench_json(
        "two-closed-loop-clients",
        clients=clients,
        claims=len(samples),
        backend=stats["backend"],
        workers=stats["workers"],
        claim_latency_p50_seconds=latency,
        prove_p50_seconds=prove,
        latency_over_prove=ratio,
        claims_per_second=len(samples) / wall,
    )
    print(f"\ntwo closed-loop clients on {stats['backend']} x "
          f"{stats['workers']}: claim latency {latency:.2f}s over prove "
          f"{prove:.2f}s = {ratio:.2f}, "
          f"{len(samples) / wall:.2f} claims/s")
    assert ratio <= 1.4, (
        f"a claim took {ratio:.2f}x its own prove ({latency:.2f}s vs "
        f"{prove:.2f}s): are same-shape claims queueing behind each other "
        "again?"
    )


def test_wire_round_trip_overhead(bench_scale, bench_json):
    """Frame encode/decode cost is negligible next to proving."""
    scale = bench_scale
    model = _model(5, scale)
    keys = _keys(model, scale)
    request = wire.ClaimRequest(model=model, keys=keys,
                                config=CircuitConfig(theta=1.0, fixed_point=FMT))
    rounds = 50
    t0 = time.perf_counter()
    for _ in range(rounds):
        frame = wire.encode_claim_request(request)
        wire.decode_claim_request(frame)
    per_round_trip = (time.perf_counter() - t0) / rounds
    bench_json(
        "wire-overhead",
        request_frame_bytes=len(wire.encode_claim_request(request)),
        request_round_trip_seconds=per_round_trip,
    )
    # A request round trip must stay far below one second even on slow CI.
    assert per_round_trip < 1.0
