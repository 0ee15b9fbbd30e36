"""The four claim-lifecycle workloads.

Each is the protocol as one of its users pays for it: the owner proving
on a cached shape, the third party verifying, the owner of a new circuit
shape (every cache misses), and clients of the HTTP proof service.  All
four report the same end-to-end metrics, so every (workload, metric) pair
has a value a later change can be held to.

Timed regions contain only calls into ``repro``; inputs are generated
before them and every correctness check runs after them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench.table1 import (
    PAPER_TABLE1,
    builders_for_scale,
    paper_scale_constraints,
)
from repro.engine import ProvingEngine
from repro.engine.cache import ArtifactStore
from repro.engine.compiled import CompiledCircuit
from repro.service import (
    ClaimRegistry,
    ClaimRequest,
    ProofServer,
    ProofService,
    ServiceClient,
    wire,
)
from repro.service.client import TERMINAL_STATES
from repro.snark.errors import MalformedProof
from repro.snark.groth16 import (
    prepare_proving_key,
    prepare_verifying_key,
    verify_batch_grouped,
    verify_batch_prepared,
)
from repro.snark.keys import Proof
from repro.zkrownn import (
    OwnershipVerifier,
    extraction_structure_key,
    extraction_synthesizer,
    prove_ownership_with_engine,
    public_inputs_for,
)

import inputs
import layers
from harness import (
    REFERENCE_MULMOD_NS,
    Run,
    Samples,
    cpu_ticks,
    median,
    percentile,
    scaled,
)
from inputs import CONFIG, subseed

Case = Tuple[object, object]  # (model the verifier holds, OwnershipClaim)

#: The seven gadget rows of the paper's Table I.
GADGET_ROWS = ("MatMult", "Conv3D", "ReLU", "Average2D", "Sigmoid",
               "HardThresholding", "BER")
#: Rows cheap enough to load back from disk in a traced run (loading a
#: key decompresses every point, which costs more than the setup did).
DISK_ROWS = ("ReLU", "Average2D", "HardThresholding", "BER")


# ------------------------------------------------ shared: checks and passes --


def flip_one_byte(data: bytes, seed: int) -> bytes:
    flipped = bytearray(data)
    flipped[random.Random(seed).randrange(len(data))] ^= 0x01
    return bytes(flipped)


def rejects(check: Callable[[], object]) -> bool:
    """True when ``check`` turns the input down, by verdict or by a typed
    decoding error -- either way nothing was accepted."""
    try:
        return not check()
    except (MalformedProof, ValueError):
        return True


def single_pass(run: Run, verifier: OwnershipVerifier, cases: Sequence[Case],
                repeats: int) -> Samples:
    """Every claim from its frame to a verdict, as a third party would."""
    frames = [wire.encode_claim(claim) for _, claim in cases]
    seconds = Samples(run)
    for _ in range(repeats):
        for i, (model, _) in enumerate(cases):
            with run.span("zkrownn.verify_claim") as t:
                report = verifier.verify(model, wire.decode_claim(frames[i]))
            seconds.add(t.cpu_seconds)
            run.expect(report.accepted, f"claim {i} rejected: {report.reason}")
    return seconds


def batch_pass(run: Run, verifier: OwnershipVerifier, cases: Sequence[Case],
               seed: int, repeats: int) -> Samples:
    """Batch audits of all claims; seconds per proof."""
    per_proof = Samples(run)
    for r in range(repeats):
        with run.span("zkrownn.verify_many") as t:
            reports = verifier.verify_many(cases, seed=seed + r)
        per_proof.add(t.cpu_seconds / len(cases))
        run.expect(len(reports) == len(cases) and all(r.accepted for r in reports),
                   "batch audit rejected a valid claim")
    return per_proof


def negative_checks(run: Run, verifier: OwnershipVerifier,
                    cases: Sequence[Case], seed: int) -> None:
    """A flipped proof byte and a claim held against the wrong model must
    be turned down singly and inside a batch, with blame on the right one."""
    (model_a, claim_a), (model_b, claim_b) = cases[0], cases[1]
    flipped = dataclasses.replace(
        claim_a, proof_bytes=flip_one_byte(claim_a.proof_bytes, seed))
    run.expect(rejects(lambda: verifier.verify(model_a, flipped).accepted),
               "claim with a flipped proof byte was accepted")
    run.expect(rejects(lambda: verifier.verify(model_b, claim_a).accepted),
               "claim was accepted against the wrong model")
    poisoned = [(model_a, claim_a), (model_a, flipped), (model_b, claim_b),
                (model_b, claim_a)]
    verdicts = [r.accepted for r in verifier.verify_many(poisoned, seed=seed)]
    run.expect(verdicts == [True, False, True, False],
               f"batch audit blamed the wrong claims: {verdicts}")


def proof_digest(proofs: Sequence[bytes]) -> str:
    """SHA-256 over all proof bytes: the byte-identity contract, seen from
    outside.  Equal for equal --seed and --seconds on any backend."""
    h = hashlib.sha256()
    for blob in proofs:
        h.update(blob)
    return h.hexdigest()


def verifier_passes(run: Run, vk, cases: Sequence[Case]) -> None:
    """After the timed region: verify every claim produced, time the
    quiet single and batch passes, run the negative checks."""
    verifier = OwnershipVerifier(vk, prepare=True)
    verifier.verify(*cases[0])  # prepares the key outside the samples
    repeats = max(2, -(-20 // len(cases)))
    run.put_median("verify_p50_ms", single_pass(run, verifier, cases, repeats), 1e3)
    run.put_median("verify_batch_per_proof_ms",
                   batch_pass(run, verifier, cases, subseed(run.seed, "audit"), 5),
                   1e3)
    negative_checks(run, verifier, cases, subseed(run.seed, "tamper"))


def key_metrics(run: Run, compiled, keypair, claim) -> None:
    """Exact sizes of what the keyed workloads' shape produces."""
    vk_frame = wire.encode_verifying_key(keypair.verifying_key)
    claim_frame = wire.encode_claim(claim)
    run.put("comm_bytes", len(claim_frame) + len(vk_frame))
    run.put("snark.constraints", compiled.num_constraints)
    run.put("snark.pk_bytes", keypair.proving_key.size_bytes())
    run.put("snark.vk_bytes", keypair.verifying_key.size_bytes())
    run.put("snark.proof_bytes", len(claim.proof_bytes))
    run.put("zkrownn.claim_bytes", len(claim_frame))


def engine_counts(run: Run, before: Dict[str, int], after: Dict[str, int]) -> None:
    """Cache hits and misses inside the timed region only."""
    for name in ("compile_hits", "setup_hits", "setup_misses"):
        run.put(f"engine.{name}", after[name] - before[name])


def prove_share(job) -> float:
    """The share of one ``prove_job`` its prove stage took, by the
    engine's own stage timings (the call's CPU seconds are split by it)."""
    return job.timings["prove_seconds"] / sum(job.timings.values())


def throughput(run: Run, operations: int, *loops: Samples) -> None:
    """Operations per second of a single closed loop (or of several run
    one after the other): its samples are all the time it took."""
    run.put("claims_per_s", operations / sum(sum(s.scaled) for s in loops))
    run.raw_medians["claims_per_s"] = operations / sum(sum(s.raw) for s in loops)


def overhead_ratio(run: Run, off: Sequence[float], on: Sequence[float]) -> None:
    """Timed operations alternate between spans off and spans on."""
    if off and on:
        run.put("trace.overhead_ratio", median(on) / median(off) - 1.0)


def setup_layer_metrics(run: Run, counts: Dict[str, int], setup_s: float) -> None:
    """``setup_s``: the real setups that ``layers.setup_layers`` re-ran."""
    tracer = run.tracer
    g1 = sum(tracer.cpu_seconds("curves.fixed_base_g1"))
    g2 = sum(tracer.cpu_seconds("curves.fixed_base_g2"))
    run.put_spans("snark.qap_eval_s", "snark.qap_eval", how=sum)
    run.put_spans("curves.fixed_base_table_s", "curves.fixed_base_table")
    run.put_spans("curves.fixed_base_g1_us_per_mul", "curves.fixed_base_g1",
                  1e6 / counts["g1"], how=sum)
    run.put_spans("curves.fixed_base_g2_us_per_mul", "curves.fixed_base_g2",
                  1e6 / counts["g2"], how=sum)
    run.info["fixed_base_share_of_setup"] = (g1 + g2) / setup_s


# ------------------------------------------------------------ prove_warm_mlp --


def prove_warm_mlp(run: Run) -> None:
    seed = run.seed
    base = 6 if run.trace else 10  # a traced run re-proves its odd claims
    n = scaled(base, run.seconds, base)
    keys = inputs.watermark_keys(seed)
    engine = ProvingEngine()
    warm_model = inputs.model(seed, "warmup")
    synthesizer = extraction_synthesizer(warm_model, keys, CONFIG)
    shape_key = extraction_structure_key(warm_model, keys, CONFIG)
    run.speed()
    with run.span("circuit.compile"):
        compiled, _ = engine.synthesize(shape_key, synthesizer,
                                        name="zkrownn-extraction")
    with run.span("snark.setup"):
        keypair = engine.setup(compiled, seed=subseed(seed, "setup"))
    run.speed()
    warm_claim, _ = prove_ownership_with_engine(
        engine, warm_model, keys, CONFIG, seed=subseed(seed, "blind", "warmup"))
    models = [inputs.model(seed, i) for i in range(n)]
    blinds = [subseed(seed, "blind", i) for i in range(n)]
    before = engine.stats_snapshot()

    run.setup_done()
    latencies, prove_stage = Samples(run), Samples(run)
    claims, jobs = [], []
    for i in range(n):
        run.tracer.mute(i % 2 == 0)
        with run.span("engine.prove_job", i) as t:
            claim, job = prove_ownership_with_engine(
                engine, models[i], keys, CONFIG, seed=blinds[i])
            claim.to_bytes()
        prove_stage.also(t.cpu_seconds * prove_share(job),
                         latencies.add(t.cpu_seconds))
        claims.append(claim)
        jobs.append(job)
    run.tracer.mute(False)

    after = engine.stats_snapshot()
    run.expect(after["setup_misses"] == before["setup_misses"]
               and after["compile_misses"] == before["compile_misses"],
               "a warm claim missed the compile or setup cache")
    run.put_median("claim_latency_p50_s", latencies)
    run.put_median("prove_p50_s", prove_stage)
    throughput(run, n, latencies)
    key_metrics(run, compiled, keypair, claims[0])
    engine_counts(run, before, after)
    run.info["proof_digest"] = proof_digest(
        [warm_claim.proof_bytes] + [c.proof_bytes for c in claims])
    cases = [(warm_model, warm_claim)] + list(zip(models, claims))
    verifier_passes(run, keypair.verifying_key, cases)

    if not run.trace:
        return
    tracer = run.tracer
    with run.span("snark.prepare_pk"):
        prepared = prepare_proving_key(keypair.proving_key)
    traced_ops = list(range(1, n, 2))
    for i in traced_ops:
        layers.prove_layers(
            run, i, compiled, keypair, prepared,
            extraction_synthesizer(models[i], keys, CONFIG), blinds[i],
            engine.backend, jobs[i].proof.to_bytes())
    counts = layers.setup_layers(run, 0, compiled.cs, subseed(seed, "probe"))

    def per_op(name: str) -> Dict[int, float]:
        return {s["op"]: s["cpu"] for s in tracer.spans if s["name"] == name}

    job_s, resynth_s, prepared_s = (per_op("engine.prove_job"),
                                    per_op("circuit.resynth"),
                                    per_op("snark.prove_prepared"))
    kernels = {name: per_op(name) for name in layers.PROVE_KERNELS}
    run.put_median("trace.prove_coverage", [
        sum(kernels[name][i] for name in layers.PROVE_KERNELS) / prepared_s[i]
        for i in traced_ops])
    run.put("engine.prove_job_overhead_s", run.run_factor() * median(
        [job_s[i] - resynth_s[i] - prepared_s[i] for i in traced_ops]))
    overhead_ratio(run, latencies.raw[0::2], latencies.raw[1::2])
    for metric, span in (
        ("circuit.compile_s", "circuit.compile"),
        ("circuit.resynth_s", "circuit.resynth"),
        ("snark.setup_s", "snark.setup"),
        ("snark.prepare_pk_s", "snark.prepare_pk"),
        ("snark.prove_s", "snark.prove_prepared"),
        ("snark.compute_h_s", "snark.compute_h"),
        ("snark.check_satisfied_s", "snark.check_satisfied"),
        ("curves.msm_g1_h_s", "curves.msm_g1_h"),
        ("curves.msm_g1_witness_s", "curves.msm_g1_witness"),
        ("curves.msm_g2_s", "curves.msm_g2"),
        ("field.ntt_s", "field.ntt"),
    ):
        run.put_spans(metric, span)
    run.put("curves.msm_g1_h_points", len(keypair.proving_key.h_query))
    run.put("field.ntt_size", compiled.domain_size)
    setup_layer_metrics(run, counts, tracer.cpu_seconds("snark.setup")[0])


# --------------------------------------------------------- verify_third_party --


def verify_third_party(run: Run) -> None:
    seed = run.seed
    n_single = scaled(200, run.seconds, 200)  # ten samples beyond the p95
    n_batch = scaled(20, run.seconds, 10)
    n_claims = 4
    keys = inputs.watermark_keys(seed)
    engine = ProvingEngine()
    models = [inputs.model(seed, i) for i in range(n_claims)]
    claims, prove_stage = [], Samples(run)
    for i, model in enumerate(models):
        with run.span("engine.prove_job", i) as t:
            claim, job = prove_ownership_with_engine(
                engine, model, keys, CONFIG, seed=subseed(seed, "blind", i),
                setup_seed=subseed(seed, "setup"))
        claims.append(claim)
        prove_stage.add(t.cpu_seconds * prove_share(job))
    # What travels: one VK frame per shape, one claim frame per claim.
    vk_frame = wire.encode_verifying_key(job.keypair.verifying_key)
    claim_frames = [wire.encode_claim(c) for c in claims]
    vk = wire.decode_verifying_key(vk_frame)
    verifier = OwnershipVerifier(vk, prepare=True)
    run.expect(verifier.verify(models[0], claims[0]).accepted,
               "warm-up verification rejected a valid claim")
    audit_seed = subseed(seed, "audit")

    run.setup_done()
    singles, audits = Samples(run), Samples(run)
    for i in range(n_single):
        j = i % n_claims
        run.tracer.mute(i % 2 == 0)
        with run.span("zkrownn.verify_claim", i) as t:
            claim = wire.decode_claim(claim_frames[j])
            with run.span("zkrownn.verify", i):
                report = verifier.verify(models[j], claim)
        singles.add(t.cpu_seconds)
        run.expect(report.accepted, f"single {i} rejected: {report.reason}")
    run.tracer.mute(False)
    audits.mark()
    for b in range(n_batch):
        with run.span("zkrownn.verify_many", b) as t:
            cases = [(m, wire.decode_claim(f))
                     for m, f in zip(models, claim_frames)]
            reports = verifier.verify_many(cases, seed=audit_seed + b)
        audits.add(t.cpu_seconds)
        run.expect(len(reports) == n_claims and all(r.accepted for r in reports),
                   f"batch audit {b} rejected a valid claim")

    run.put_median("claim_latency_p50_s", singles)
    run.put_median("verify_p50_ms", singles, 1e3)
    run.put_median("verify_batch_per_proof_ms", audits, 1e3 / n_claims)
    run.put_median("prove_p50_s", prove_stage)
    # Claims checked per second, singly or in a batch.
    throughput(run, n_single + n_batch * n_claims, singles, audits)
    key_metrics(run, job.compiled, job.keypair, claims[0])
    run.info["proof_digest"] = proof_digest([c.proof_bytes for c in claims])
    negative_checks(run, verifier, list(zip(models, claims)),
                    subseed(seed, "tamper"))

    if not run.trace:
        return
    tracer = run.tracer
    run.put("snark.verify_p95_ms", percentile(singles.scaled, 95) * 1e3,
            len(singles.scaled))
    overhead_ratio(run, singles.raw[0::2], singles.raw[1::2])
    for _ in range(3):
        with run.span("snark.prepare_vk"):
            prepared = prepare_verifying_key(vk)
        with run.span("zkrownn.verify_oneshot"):
            oneshot = OwnershipVerifier(wire.decode_verifying_key(vk_frame))
            report = oneshot.verify(models[0], claims[0])
        run.expect(report.accepted, "one-shot verification rejected a valid claim")
    for op in range(20):
        j = op % n_claims
        layers.verify_layers(run, op, models[j], claims[j], CONFIG, prepared)
    proofs = [Proof.from_bytes(c.proof_bytes) for c in claims]
    batch = [
        (public_inputs_for(m, c.theta, c.wm_bits, c.embed_layer, CONFIG), p)
        for m, c, p in zip(models, claims, proofs)
    ]
    for op in range(5):
        with run.span("snark.verify_batch", op):
            accepted = verify_batch_prepared(prepared, batch, seed=audit_seed + op)
        run.expect(accepted, "prepared batch check rejected valid proofs")
        layers.batch_miller(run, op, proofs, prepared)

    verify_s = median(tracer.cpu_seconds("zkrownn.verify"))
    kernel_s = {name: median(tracer.cpu_seconds(name))
                for name in layers.VERIFY_KERNELS}
    run.put("trace.verify_coverage", sum(
        kernel_s[name] * times
        for name, times in layers.VERIFY_KERNELS.items()) / verify_s)
    run.info["pairing_share_of_verify"] = (
        kernel_s["curves.miller_loop"] + kernel_s["curves.final_exp"]) / verify_s
    for metric, span in (
        ("snark.prepare_vk_ms", "snark.prepare_vk"),
        ("snark.verify_prepared_ms", "snark.verify_prepared"),
        ("snark.validate_points_ms", "snark.validate_points"),
        ("snark.verify_batch_ms", "snark.verify_batch"),
        ("curves.miller_loop_ms", "curves.miller_loop"),
        ("curves.final_exp_ms", "curves.final_exp"),
        ("curves.msm_g1_ic_ms", "curves.msm_g1_ic"),
        ("curves.decode_ms", "curves.decode"),
        ("curves.multi_miller_batch_ms", "curves.multi_miller_batch"),
        ("zkrownn.instance_ms", "zkrownn.instance"),
        ("zkrownn.verify_oneshot_ms", "zkrownn.verify_oneshot"),
    ):
        run.put_spans(metric, span, 1e3)


# ---------------------------------------------------------------- cold_shapes --


def cold_claim(run: Run, op: int, engine: ProvingEngine, name: str,
               build: Callable, seed: int, clock: Samples) -> dict:
    """One Table-I row with every cache cold: the steps of
    ``repro.bench.metrics.measure_circuit``, kept apart so the proof and
    the per-stage times are in hand.  ``clock`` scales each stage by the
    calibration steps around it; stage times in the row are scaled."""
    with run.span("cold.claim", op):
        with run.span("circuit.compile", op) as t:
            builder = build()
            builder.check()
            compiled = CompiledCircuit.from_builder(builder, name)
        compile_s = t.cpu_seconds * clock.add(t.cpu_seconds)
        with run.span("snark.setup", op) as t:
            keypair = engine.setup(compiled, seed=subseed(seed, "setup", name))
        setup_s = t.cpu_seconds * clock.add(t.cpu_seconds)
        with run.span("snark.prove", op) as t:
            proof = engine.prove(compiled, builder.assignment,
                                 seed=subseed(seed, "blind", name))
        prove_s = t.cpu_seconds * clock.add(t.cpu_seconds)
        public = builder.public_values()
        with run.span("snark.verify", op) as t:
            accepted = engine.verify(compiled, public, proof)
        verify_s = t.cpu_seconds * clock.add(t.cpu_seconds)
    run.expect(accepted, f"{name}: proof rejected")
    return {
        "name": name, "compiled": compiled, "keypair": keypair,
        "public": public, "proof": proof, "assignment": builder.assignment,
        "compile_s": compile_s,
        "setup_s": setup_s, "prove_s": prove_s, "verify_s": verify_s,
        "claim_s": compile_s + setup_s + prove_s + verify_s,
    }


def table1_side_by_side(rows: Sequence[dict]) -> List[dict]:
    """Measured tiny rows beside the paper's rows and the cost model's
    constraint counts at the paper's dimensions."""
    model_counts = paper_scale_constraints()
    table = []
    for row in rows:
        paper = PAPER_TABLE1[row["name"]]
        table.append({
            "row": row["name"],
            "measured_tiny": {
                "constraints": row["compiled"].num_constraints,
                "setup_s": row["setup_s"], "prove_s": row["prove_s"],
                "verify_ms": row["verify_s"] * 1e3,
                "pk_bytes": row["keypair"].proving_key.size_bytes(),
                "vk_bytes": row["keypair"].verifying_key.size_bytes(),
                "proof_bytes": row["proof"].size_bytes(),
            },
            "paper": {
                "constraints": paper[0], "setup_s": paper[1],
                "pk_mb": paper[2], "prove_s": paper[3],
                "proof_bytes": paper[4], "vk_kb": paper[5],
                "verify_ms": paper[6],
            },
            "cost_model_paper_scale_constraints": model_counts[row["name"]],
            "cost_model_over_paper": model_counts[row["name"]] / paper[0],
        })
    return table


def cold_shapes(run: Run) -> None:
    seed = run.seed
    rounds = scaled(1, run.seconds, 1)
    builders = builders_for_scale("tiny")
    # Generator tables and small NTT domains are process-wide, not per
    # shape: build them before timing, through the cheapest row.
    run.tracer.mute(True)
    cold_claim(run, -1, ProvingEngine(), "BER", builders["BER"], seed,
               Samples(run))

    run.setup_done()
    clock = Samples(run)
    round_s, all_rows, hits = [], [], 0
    for r in range(rounds):
        engine = ProvingEngine()
        rows = []
        run.tracer.mute(r > 0)  # the spans of one round are enough
        for k, name in enumerate(GADGET_ROWS):
            rows.append(cold_claim(run, r * len(GADGET_ROWS) + k, engine,
                                   name, builders[name], seed, clock))
        round_s.append(sum(row["claim_s"] for row in rows))
        stats = engine.stats_snapshot()
        hits += stats["setup_hits"] + stats["setup_disk_hits"]
        run.expect(stats["setup_misses"] == len(GADGET_ROWS),
                   f"round {r}: expected every setup to miss, got {stats}")
        all_rows.append(rows)
    run.tracer.mute(False)

    first = all_rows[0]
    proofs = [row["proof"].to_bytes() for rows in all_rows for row in rows]
    for rows in all_rows[1:]:
        run.expect([row["proof"].to_bytes() for row in rows]
                   == [row["proof"].to_bytes() for row in first],
                   "a later round's proofs differ from the first round's")
    flat = [row for rows in all_rows for row in rows]
    run.put_median("claim_latency_p50_s", round_s)
    run.raw_medians["claim_latency_p50_s"] = sum(clock.raw) / rounds
    throughput(run, len(flat), clock)
    run.put_median("prove_p50_s", [row["prove_s"] for row in flat])
    run.put("comm_bytes", sum(
        len(wire.encode_proof(row["proof"]))
        + len(wire.encode_verifying_key(row["keypair"].verifying_key))
        for row in first))
    run.put("engine.setup_hits", hits)
    run.put("engine.setup_misses", len(flat))
    run.put("snark.constraints",
            sum(row["compiled"].num_constraints for row in first))
    run.put("snark.pk_bytes",
            sum(row["keypair"].proving_key.size_bytes() for row in first))
    run.put("snark.vk_bytes",
            sum(row["keypair"].verifying_key.size_bytes() for row in first))
    run.put("snark.proof_bytes", sum(row["proof"].size_bytes() for row in first))
    run.info["proof_digest"] = proof_digest(proofs)
    run.info["table1"] = table1_side_by_side(first)

    # Quiet passes on the last round's engine (keys cached, verifying
    # keys prepared): each proof from its frame, singly and in one grouped
    # audit (one group per verifying key), then the negative checks.
    prepared = [prepare_verifying_key(row["keypair"].verifying_key)
                for row in first]
    singles = Samples(run)
    for _ in range(3):
        for row in first:
            frame = wire.encode_proof(row["proof"])
            with run.span("snark.verify_frame") as t:
                ok = engine.verify(row["compiled"], row["public"],
                                   wire.decode_proof(frame))
            singles.add(t.cpu_seconds)
            run.expect(ok, f"{row['name']}: proof rejected from its frame")
    run.put_median("verify_p50_ms", singles, 1e3)
    items = [(pvk, row["public"], row["proof"])
             for pvk, row in zip(prepared, first)]
    batches = Samples(run)
    for r in range(5):
        with run.span("snark.verify_batch_grouped") as t:
            groups = verify_batch_grouped(items, seed=subseed(seed, "audit") + r)
        batches.add(t.cpu_seconds / len(items))
        run.expect(all(g.accepted for g in groups),
                   "grouped audit rejected a valid proof")
    run.put_median("verify_batch_per_proof_ms", batches, 1e3)
    by_name = {row["name"]: i for i, row in enumerate(first)}
    for row in first:
        frame = flip_one_byte(wire.encode_proof(row["proof"]),
                              subseed(seed, "tamper", row["name"]))
        run.expect(rejects(lambda: engine.verify(
            row["compiled"], row["public"], wire.decode_proof(frame))),
            f"{row['name']}: flipped proof frame was accepted")
        if row["public"]:
            wrong = [row["public"][0] + 1] + row["public"][1:]
            run.expect(not engine.verify(row["compiled"], wrong, row["proof"]),
                       f"{row['name']}: proof accepted for the wrong instance")
    # Two rows with equally many public inputs swap proofs: exactly their
    # two groups must be blamed.
    a, b = by_name["ReLU"], by_name["HardThresholding"]
    swapped = list(items)
    swapped[a] = (items[a][0], items[a][1], items[b][2])
    swapped[b] = (items[b][0], items[b][1], items[a][2])
    verdicts = [g.accepted for g in verify_batch_grouped(
        swapped, seed=subseed(seed, "tamper"))]
    run.expect(verdicts == [i not in (a, b) for i in range(len(items))],
               f"grouped audit blamed the wrong rows: {verdicts}")

    if not run.trace:
        return
    tracer = run.tracer
    for row in first:
        prefix = f"table1.{row['name']}"
        run.put(f"{prefix}.constraints", row["compiled"].num_constraints)
        run.put(f"{prefix}.setup_s", row["setup_s"])
        run.put(f"{prefix}.prove_s", row["prove_s"])
        run.put(f"{prefix}.verify_ms", row["verify_s"] * 1e3)
    run.put("circuit.compile_s", sum(row["compile_s"] for row in first))
    run.put("snark.setup_s", sum(row["setup_s"] for row in first))
    run.put("snark.prove_s", sum(row["prove_s"] for row in first))
    counts = {"g1": 0, "g2": 0}
    for k, row in enumerate(first):
        for group, n in layers.setup_layers(
                run, k, row["compiled"].cs, subseed(seed, "probe", k)).items():
            counts[group] += n
        layers.h_msm(run, k, row["compiled"].cs, row["keypair"].proving_key,
                     row["assignment"])
    run.put_spans("curves.msm_g1_h_s", "curves.msm_g1_h", how=sum)
    run.put("curves.msm_g1_h_points",
            sum(len(row["keypair"].proving_key.h_query) for row in first))
    setup_layer_metrics(run, counts, sum(tracer.cpu_seconds("snark.setup")))
    run.info["fixed_base_share_of_round"] = (
        sum(tracer.cpu_seconds("curves.fixed_base_g1"))
        + sum(tracer.cpu_seconds("curves.fixed_base_g2"))
    ) / sum(tracer.cpu_seconds("cold.claim"))
    # Key persistence: save the cheap rows, load them into a new engine.
    cache_dir = run.workdir / "keypairs"
    store = ArtifactStore(cache_dir)
    fresh = ProvingEngine(cache_dir=str(cache_dir))
    for name in DISK_ROWS:
        row = first[by_name[name]]
        store.save_keypair(row["compiled"].digest, row["keypair"])
        with run.span("engine.keypair_disk_load"):
            loaded = fresh.setup(row["compiled"])
        run.expect(loaded.verifying_key.to_bytes()
                   == row["keypair"].verifying_key.to_bytes(),
                   f"{name}: key loaded from disk differs")
    run.expect(fresh.stats_snapshot()["setup_disk_hits"] == len(DISK_ROWS),
               "disk-cached keys were not hit")
    run.put_spans("engine.keypair_disk_load_s", "engine.keypair_disk_load", how=sum)


# -------------------------------------------------------------- service_claims --


class CountingClient(ServiceClient):
    """Counts status polls; everything else is the stock client."""

    polls = 0

    def status(self, claim_id: str):
        self.polls += 1
        return super().status(claim_id)


def service_claims(run: Run) -> None:
    seed = run.seed
    n_threads = 2
    per_thread = scaled(5, run.seconds, 5)
    keys = inputs.watermark_keys(seed)
    setup_seed = subseed(seed, "setup")
    service = ProofService(ClaimRegistry(run.workdir / "registry"))
    server = ProofServer(service).start()
    try:
        warm_client = ServiceClient(server.url)
        warm_model = inputs.model(seed, "warmup")
        ack = warm_client.submit_claim(
            warm_model, keys, CONFIG, seed=subseed(seed, "blind", "warmup"),
            setup_seed=setup_seed)
        # Poll by hand, calibrating between polls: set-up is scaled by
        # the steps taken while the server compiled, set up and proved.
        deadline = time.monotonic() + 150
        status = warm_client.status(ack["claim_id"])
        while status["state"] not in TERMINAL_STATES and time.monotonic() < deadline:
            run.speed()
            time.sleep(0.2)
            status = warm_client.status(ack["claim_id"])
        run.expect(status["state"] == "done", f"warm-up claim: {status}")
        vk = warm_client.fetch_verifying_key(ack["claim_id"])
        warm_claim = warm_client.fetch_claim(ack["claim_id"])
        models = {(t, i): inputs.model(seed, t, i)
                  for t in range(n_threads) for i in range(per_thread)}
        before = warm_client.stats()["engine"]
        done: List[dict] = []
        # The stock client backs its polls off to 3 s, and two clients in
        # lock-step then settle into one of several rhythms a second
        # apart; capping the back-off keeps the median latency steady.
        clients = [CountingClient(server.url, max_poll_seconds=0.25)
                   for _ in range(n_threads)]

        def closed_loop(t: int) -> None:
            client = clients[t]
            clock = Samples(run, wall=True)
            for i in range(per_thread):
                op = t * per_thread + i
                model = models[t, i]
                run.tracer.mute(i % 2 == 0)
                with run.span("service.claim", op) as t_claim:
                    with run.span("client.submit", op) as t_ack:
                        ack = client.submit_claim(
                            model, keys, CONFIG,
                            seed=subseed(seed, "blind", t, i),
                            setup_seed=setup_seed)
                    with run.span("client.wait", op) as t_wait:
                        status = client.wait(ack["claim_id"], timeout=150)
                    with run.span("client.fetch_verify", op):
                        claim = client.fetch_claim(ack["claim_id"])
                        key = client.fetch_verifying_key(ack["claim_id"])
                        report = OwnershipVerifier(key).verify(model, claim)
                run.expect(status["state"] == "done" and report.accepted,
                           f"claim {op}: {status.get('state')}, {report.reason}")
                done.append({
                    "op": op, "claim_id": ack["claim_id"], "model": model,
                    "claim": claim, "latency_s": t_claim.seconds,
                    "factor": clock.add(t_claim.seconds),
                    "ack_s": t_ack.seconds, "wait_s": t_wait.seconds,
                    "traced": i % 2 == 1,
                    "prove_s": status.get("timings", {}).get(
                        "batch_prove_seconds", 0.0),
                })
            run.tracer.mute(False)

        run.setup_done()
        workers = [threading.Thread(target=closed_loop, args=(t,))
                   for t in range(n_threads)]
        first_step = len(run.speeds)
        busy0, stolen0 = cpu_ticks()
        wall0 = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        wall = time.perf_counter() - wall0
        busy, stolen = cpu_ticks()
        busy, stolen = busy - busy0, stolen - stolen0
        # The whole loop at the reference speed: the clients' calibration
        # steps, and the share of demanded CPU time that was not stolen.
        loop_factor = REFERENCE_MULMOD_NS / median(run.speeds[first_step:])
        if busy + stolen > 0:
            loop_factor *= busy / (busy + stolen)

        done.sort(key=lambda d: d["op"])
        n = n_threads * per_thread
        run.expect(len(done) == n, f"only {len(done)} of {n} claims completed")
        stats = warm_client.stats()
        latency, proving = Samples(run), Samples(run)
        for d in done:
            latency.also(d["latency_s"], d["factor"])
            proving.also(d["prove_s"], d["factor"])
        run.put_median("claim_latency_p50_s", latency)
        run.put_median("prove_p50_s", proving)
        run.put("claims_per_s", len(done) / (wall * loop_factor))
        run.raw_medians["claims_per_s"] = len(done) / wall
        run.put("comm_bytes", len(wire.encode_claim(done[0]["claim"]))
                + len(wire.encode_verifying_key(vk)))
        run.put("snark.vk_bytes", vk.size_bytes())
        run.put("snark.proof_bytes", len(done[0]["claim"].proof_bytes))
        run.put("zkrownn.claim_bytes", len(wire.encode_claim(done[0]["claim"])))
        engine_counts(run, before, stats["engine"])
        run.expect(stats["engine"]["setup_misses"] == before["setup_misses"],
                   "a service claim re-ran setup")
        run.info["proof_digest"] = proof_digest(
            [warm_claim.proof_bytes] + [d["claim"].proof_bytes for d in done])
        run.info["service_stats"] = stats
        cases = [(warm_model, warm_claim)] + [(d["model"], d["claim"]) for d in done]
        verifier_passes(run, vk, cases)

        if run.trace:
            service_layers(run, warm_client, clients, done, stats, keys)
    finally:
        server.stop()


def service_layers(run: Run, client: ServiceClient, clients, done, stats,
                   keys) -> None:
    """The server's own span tree per claim (``GET /claims/<id>/trace``),
    ``/stats``, and the wire codec on a real request."""
    by_name: Dict[str, List[float]] = {}
    poll_lag = []
    for d in done:
        spans = client.trace(d["claim_id"])["spans"]
        for s in spans:
            by_name.setdefault(s["name"], []).append(s["duration_seconds"])
        tree_s = (max(s["start_unix"] + s["duration_seconds"] for s in spans)
                  - min(s["start_unix"] for s in spans))
        poll_lag.append(d["ack_s"] + d["wait_s"] - tree_s)
    factor = run.run_factor()
    run.put_median("service.queue_wait_s", by_name.get("queue-wait", []), factor)
    run.put_median("service.synthesize_s", by_name.get("synthesize", []), factor)
    run.put_median("service.prove_s", by_name.get("prove", []), factor)
    run.put_median("service.persist_ms", by_name.get("persist", []), 1e3 * factor)
    run.put_median("service.poll_lag_s", poll_lag, factor)
    run.put_median("service.submit_ack_ms", [d["ack_s"] for d in done],
                   1e3 * factor)
    run.put("service.polls_per_claim",
            sum(c.polls for c in clients) / len(done))
    engine = stats["engine"]
    run.put("service.batch_size_mean", engine["proofs"] / engine["proof_batches"])
    overhead_ratio(run, [d["latency_s"] for d in done if not d["traced"]],
                   [d["latency_s"] for d in done if d["traced"]])
    request = ClaimRequest(model=done[0]["model"], keys=keys, config=CONFIG,
                           seed=subseed(run.seed, "blind", 0, 0),
                           setup_seed=subseed(run.seed, "setup"))
    frame = wire.encode_claim_request(request)
    for _ in range(20):
        with run.span("service.wire_encode"):
            wire.encode_claim_request(request)
        with run.span("service.wire_decode"):
            wire.decode_claim_request(frame)
    run.put_spans("service.wire_encode_ms", "service.wire_encode", 1e3)
    run.put_spans("service.wire_decode_ms", "service.wire_decode", 1e3)
    run.put("service.request_bytes", len(frame))


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "prove_warm_mlp": prove_warm_mlp,
    "verify_third_party": verify_third_party,
    "cold_shapes": cold_shapes,
    "service_claims": service_claims,
}
