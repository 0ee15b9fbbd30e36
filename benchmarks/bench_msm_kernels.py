"""MSM kernel benchmark: the one pipeline vs naive, native vs pure, fixed base.

The prover's wall time is dominated by variable-base G1 MSMs, so this
benchmark isolates exactly that kernel:

* ``naive_msm_g1``      -- double-and-add reference,
* ``msm_g1``            -- GLV + signed windows + batch-affine buckets
  (the pure pipeline), and the compiled kernel of
  :mod:`repro.curves.native` that stands in for it on G1,
* ``msm_g2``            -- the same pipeline over Fp2 (timing only),
* witness-shaped rows next to the full-width ones: mostly zeros and ones,
  a few small negatives stored as ``R - k``, every magnitude below
  ``2^36`` -- what a prover's A/B1/K and G2 MSMs multiply.  Both MSM paths
  fold each scalar's sign into its point, so these run ~36-bit windows;
  the G2 row must beat full width on the same points by 1.5x, and its
  small negatives may cost at most 1.5x the same magnitudes made positive,
* fixed-base ``FixedBaseTableG1/G2.mul_many`` (what Groth16 setup runs):
  the pure lockstep batched-affine comb vs the per-scalar Jacobian ``mul``
  loop it replaced, gated at 1.3x, the compiled comb vs the pure one,
  gated at 4x, plus the window sweep behind the table defaults.

Every row lands in ``BENCH_msm_kernels.json`` together with the window
sizes the heuristic picked, so regressions in either the kernels or the
window table are visible from artifacts alone.  The multi-claim
comparison lives here too: N claims proved one after another on the
serial backend vs from one thread per worker on the process backend, over
one shared prepared key.

Honest-measurement note: in pure CPython the batched-affine add costs ~6
modular multiplications against ~12 for a Jacobian mixed add, and Python's
big-int ``%`` dominates both.  The multiplication-cost lever is the
compiled kernel, gated at 3x the pure pipeline from n = 4096 on.
"""

from __future__ import annotations

import os
import random
import threading
import time

from repro.curves import native
from repro.curves.bn254 import R
from repro.curves.g1 import G1Point, jac_add, jac_to_affine_many
from repro.curves.msm import (
    FixedBaseTableG1,
    FixedBaseTableG2,
    msm_g1,
    msm_g2,
    naive_msm_g1,
    pippenger_window_size,
)
from repro.parallel import ProcessBackend, SerialBackend

_CPUS = os.cpu_count() or 1


def _inputs(n: int, seed: int = 7):
    """n distinct points (batch-normalized multiples of G) + random scalars."""
    rng = random.Random(seed)
    g = G1Point.generator()
    jacs = []
    acc = (g.x, g.y, 1)
    for _ in range(n):
        jacs.append(acc)
        acc = jac_add(acc, (g.x, g.y, 1))
    return jac_to_affine_many(jacs), [rng.randrange(R) for _ in range(n)]


def _witness_scalars(n: int, seed: int = 9):
    """Scalars shaped like a quantised witness: ~55% zeros, ~25% ones,
    ~15% small positives and ~5% small negatives (``R - k``), every
    magnitude at most ``2^36``."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        u = rng.random()
        if u < 0.55:
            out.append(0)
        elif u < 0.80:
            out.append(1)
        elif u < 0.95:
            out.append(rng.randrange(2, 1 << 36))
        else:
            out.append(R - rng.randrange(1, 1 << 36))
    return out


def _best_of(fn, repeats: int = 2):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _sizes(scale) -> list:
    # tiny keeps the CI perf-smoke job under a minute; reduced covers the
    # n=4096 headline size.
    return [256, 512] if scale.name == "tiny" else [512, 1024, 4096]


def test_msm_kernel_ablation(bench_scale, bench_json):
    """The optimized pure pipeline beats the naive reference."""
    for n in _sizes(bench_scale):
        points, scalars = _inputs(n)
        with native.pin_pure():
            t_glv, r_glv = _best_of(lambda: msm_g1(points, scalars))
        entry = {
            "n": n,
            "glv_signed_seconds": t_glv,
            "signed_window": pippenger_window_size(2 * n),
        }
        if n <= 512:
            t_naive, r_naive = _best_of(
                lambda: naive_msm_g1(points, scalars), repeats=1
            )
            assert jac_to_affine_many([r_naive]) == jac_to_affine_many([r_glv])
            entry["naive_seconds"] = t_naive
            entry["speedup_glv_vs_naive"] = t_naive / t_glv
            # The CI perf-smoke gate: the optimized kernel must never lose
            # to the reference at n=512.
            assert t_glv < t_naive, (
                f"optimized MSM slower than naive at n={n}: "
                f"{t_glv:.3f}s vs {t_naive:.3f}s"
            )
        bench_json(f"msm-n{n}", **entry)


def test_native_msm_ablation(bench_scale, bench_json):
    """The compiled G1 MSM against the pure pipeline it stands in for.

    Both must produce the same point; where the kernel is loaded, it must
    be at least 3x faster from n = 4096 on (the reduced scale's top size;
    CI's ``native-kernel`` job runs it).  The ratio is recorded either way
    it is measured.
    """
    n = _sizes(bench_scale)[-1]
    points, scalars = _inputs(n)
    entry = {"n": n, **native.status()["g1_msm"]}
    with native.pin_pure():
        t_pure, r_pure = _best_of(lambda: msm_g1(points, scalars))
    entry["python_seconds"] = t_pure
    if native.g1_kernel() is not None:
        t_native, r_native = _best_of(lambda: msm_g1(points, scalars))
        assert jac_to_affine_many([r_native]) == jac_to_affine_many([r_pure])
        entry["native_seconds"] = t_native
        entry["speedup_native_vs_python"] = t_pure / t_native
    bench_json(f"native-msm-n{n}", **entry)
    # The witness-shaped row on the same points.
    witness = _witness_scalars(n)
    row = {"n": n, "nonzero": sum(1 for s in witness if s)}
    with native.pin_pure():
        t_wpure, r_wpure = _best_of(lambda: msm_g1(points, witness))
    row["python_seconds"] = t_wpure
    row["speedup_witness_vs_full_python"] = t_pure / t_wpure
    if "native_seconds" in entry:
        t_wnative, r_wnative = _best_of(lambda: msm_g1(points, witness))
        assert jac_to_affine_many([r_wnative]) == jac_to_affine_many([r_wpure])
        row["native_seconds"] = t_wnative
        row["speedup_witness_vs_full_native"] = entry["native_seconds"] / t_wnative
    bench_json(f"native-msm-witness-n{n}", **row)
    if "native_seconds" in entry and n >= 4096:
        assert entry["speedup_native_vs_python"] >= 3.0, (
            f"native G1 MSM under 3x the pure pipeline at n={n}: "
            f"{entry['native_seconds']:.3f}s vs {t_pure:.3f}s"
        )


def test_msm_g2_timing(bench_scale, bench_json):
    """The G2 instance of the pipeline: recorded, checked against ``*``,
    on full-width and on witness-shaped scalars.

    Two gates on the same points.  The witness-shaped MSM must be at
    least 1.5x faster than the full-width one (~20x measured at n = 128;
    most of it is zeros and ones).  And its small negatives must cost no
    more than 1.5x the same magnitudes made positive (1.0x measured with
    the sign fold, 3-3.6x without it, when each ``R - k`` forced 254-bit
    windows)."""
    from repro.curves.g2 import G2Point

    n = 128 if bench_scale.name == "tiny" else 256
    rng = random.Random(11)
    g2 = G2Point.generator()
    points = []
    acc = g2
    for _ in range(n):
        points.append(acc)
        acc = acc + g2
    scalars = [rng.randrange(R) for _ in range(n)]
    witness = _witness_scalars(n)
    unsigned = [min(s, R - s) for s in witness]
    t_signed, r_signed = _best_of(lambda: msm_g2(points, scalars))
    t_witness, r_witness = _best_of(lambda: msm_g2(points, witness), 3)
    t_unsigned, r_unsigned = _best_of(lambda: msm_g2(points, unsigned), 3)
    # points[i] = (i+1) * g2, so each MSM collapses to one scalar mul.
    for values, got in (
        (scalars, r_signed), (witness, r_witness), (unsigned, r_unsigned)
    ):
        assert got == g2 * (sum((i + 1) * s for i, s in enumerate(values)) % R)
    bench_json(
        f"msm-g2-n{n}",
        n=n,
        signed_seconds=t_signed,
        signed_window=pippenger_window_size(n),
        witness_seconds=t_witness,
        witness_nonzero=sum(1 for s in witness if s),
        speedup_witness_vs_full=t_signed / t_witness,
        unsigned_seconds=t_unsigned,
        negatives_cost=t_witness / t_unsigned,
    )
    assert t_signed / t_witness >= 1.5, (
        f"witness-shaped G2 MSM only {t_signed / t_witness:.2f}x the "
        f"full-width one at n={n}"
    )
    assert t_witness / t_unsigned <= 1.5, (
        f"small negatives make the G2 MSM {t_witness / t_unsigned:.2f}x "
        f"slower than their magnitudes at n={n}: are signs folded?"
    )


def test_fixed_base_lockstep_vs_loop(bench_json):
    """Setup's kernel: the compiled comb, the pure lockstep ``mul_many`` and
    the per-scalar ``mul`` loop, per group.

    The pure rows run under ``pin_pure``, so their gate (lockstep >= 1.3x
    the loop on both groups; measured ~1.7x on each) still fails if the
    pure ``mul_many`` is ever routed back through per-scalar Jacobian
    chains.  The native row, where the ``fixed_base`` kernel loaded, must
    be >= 4x the pure lockstep on the same scalars (measured ~8x on each
    group); every row records the kernel path it ran.

    The windows trade the table build, which doubles per bit and is
    Python work paid once per process (inside ``setup_s`` of a cold run),
    against per-mul time, which falls with the window on both paths.
    Pure, on the dev box: G1 7/8/9/10 = 113/106/97/92 us per mul for a
    18/33/59/107 ms build, G2 5/6/7/8 = 713/568/477/409 us for
    26/44/70/137 ms.  Compiled (process CPU, 8,192 G1 and 2,048 G2
    scalars): G1 7/8/9/10 = 16.6/14.4/14.5/12.2 us per mul, G2 5/6/7/8 =
    74/65/58/53 us.  At the MLP key's 22,630 G1 and 4,812 G2 scalars,
    build plus comb is 0.36/0.40/0.40 s for G1 at 8/9/10 and
    0.35/0.35/0.38 s for G2 at 6/7/8.  Hence G1 = 8 and G2 = 7 on both
    paths: a cold process pays ~0.1 s for both tables.
    """
    from repro.curves.g2 import G2Point

    rng = random.Random(15)
    g1 = G1Point.generator()
    groups = {
        "g1": (
            lambda **kw: FixedBaseTableG1((g1.x, g1.y), **kw), 2048, (7, 8, 9, 10)
        ),
        "g2": (
            lambda **kw: FixedBaseTableG2(G2Point.generator(), **kw), 512, (5, 6, 7, 8)
        ),
    }
    compiled = native.status()["fixed_base"]
    for group, (build, n, sweep) in groups.items():
        scalars = [rng.randrange(R) for _ in range(n)]
        table = build()
        with native.pin_pure():
            t_loop, r_loop = _best_of(lambda: [table.mul(s) for s in scalars])
            t_many, r_many = _best_of(lambda: table.mul_many(scalars))
        if group == "g1":
            assert jac_to_affine_many(r_loop) == jac_to_affine_many(r_many)
        else:
            assert r_loop == r_many
        windows = {}
        for window in sweep:
            t_build, swept = _best_of(lambda: build(window=window), repeats=1)
            with native.pin_pure():
                t_sweep, _ = _best_of(lambda: swept.mul_many(scalars[: n // 2]))
            row = {
                "table_build_seconds": t_build,
                "us_per_mul": t_sweep / (n // 2) * 1e6,
            }
            if compiled["path"] == "native":
                t_native, _ = _best_of(lambda: swept.mul_many(scalars[: n // 2]), 3)
                row["native_us_per_mul"] = t_native / (n // 2) * 1e6
            windows[str(window)] = row
        native_row = {"path": compiled["path"], "reason": compiled["reason"]}
        if compiled["path"] == "native":
            table.mul_many(scalars[:1])  # packs the table, once per table
            t_native, r_native = _best_of(lambda: table.mul_many(scalars), 3)
            assert r_native == r_many
            native_row.update(
                us_per_mul=t_native / n * 1e6, speedup_vs_lockstep=t_many / t_native
            )
        bench_json(
            f"fixed-base-{group}-n{n}",
            n=n,
            default_window=table.window,
            path="python",
            loop_us_per_mul=t_loop / n * 1e6,
            mul_many_us_per_mul=t_many / n * 1e6,
            speedup_mul_many_vs_loop=t_loop / t_many,
            native=native_row,
            window_sweep=windows,
        )
        assert t_loop / t_many >= 1.3, (
            f"{group} mul_many only {t_loop / t_many:.2f}x the per-scalar "
            f"mul loop at n={n}: is the lockstep batch-affine path bypassed?"
        )
        if compiled["path"] == "native":
            assert t_many / t_native >= 4, (
                f"{group} compiled comb only {t_many / t_native:.2f}x the pure "
                f"lockstep comb at n={n}"
            )


def _mul_chain_synthesizer(depth: int, x: int = 3):
    def synthesize(b):
        out = b.public_output("y")
        w = b.private_input("x", x)
        acc = w
        for _ in range(depth):
            acc = b.mul(acc, w)
        b.bind_output(out, acc + 1)

    return synthesize


def test_prove_batch_backends(bench_scale, bench_json):
    """N claims: serial vs one thread per process worker, identical proofs."""
    from repro.engine import ProvingEngine

    depth = 64 if bench_scale.name == "tiny" else 256
    claims = 4
    seeds = list(range(1, claims + 1))

    serial_engine = ProvingEngine(backend=SerialBackend())
    compiled, synthesis = serial_engine.synthesize(
        "mul-chain", _mul_chain_synthesizer(depth)
    )
    serial_engine.setup(compiled, seed=17)

    t0 = time.perf_counter()
    serial_proofs = [
        serial_engine.prove(compiled, synthesis, seed=seed) for seed in seeds
    ]
    t_serial = time.perf_counter() - t0

    process_backend = ProcessBackend(min(_CPUS, claims))
    process_engine = ProvingEngine(backend=process_backend)
    compiled_p, synthesis_p = process_engine.synthesize(
        "mul-chain", _mul_chain_synthesizer(depth)
    )
    process_engine.setup(compiled_p, seed=17)
    process_proofs = [None] * claims
    workers = process_backend.workers

    def prove_share(first: int) -> None:
        # Thread t proves claims t, t + workers, ...: what the service's
        # dispatch threads do with a queue of same-shape claims.
        for i in range(first, claims, workers):
            process_proofs[i] = process_engine.prove(
                compiled_p, synthesis_p, seed=seeds[i]
            )

    threads = [threading.Thread(target=prove_share, args=(t,))
               for t in range(workers)]
    try:
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        t_process = time.perf_counter() - t0
    finally:
        process_backend.close()

    assert [p.to_bytes() for p in serial_proofs] == [
        p.to_bytes() for p in process_proofs
    ], "proofs must be byte-identical across backends"
    assert serial_engine.verify(
        compiled, synthesis.public_values, serial_proofs[0]
    )
    bench_json(
        "prove-batch",
        claims=claims,
        constraints=compiled.num_constraints,
        backend="process",
        workers=process_backend.workers,
        cpu_count=_CPUS,
        serial_seconds=t_serial,
        process_seconds=t_process,
        speedup_process_vs_serial=t_serial / t_process,
    )
    # Zero-margin wall-clock orderings are flaky on small inputs and shared
    # CI runners, so the process-beats-serial claim is only asserted at
    # reduced scale on a genuinely multi-core machine.
    if _CPUS >= 2 and bench_scale.name != "tiny":
        assert t_process < t_serial, (
            f"process proving slower than serial on {_CPUS} cores: "
            f"{t_process:.3f}s vs {t_serial:.3f}s"
        )
