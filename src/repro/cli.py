"""Command-line interface: ``zkrownn <subcommand>``.

Subcommands:

* ``demo``   -- train, watermark, prove, and verify a small model end to
  end through the staged proving pipeline; prints the Figure-1 transcript
  and, with ``--repeats``, the amortized repeat-claim latency.
* ``table1`` -- run the Table I reproduction (same as
  ``python -m repro.bench.table1``).
* ``cost``   -- print analytic paper-scale constraint counts.
* ``inspect`` -- decode an ownership-claim file.

Proof-service subcommands (see ``repro.service``):

* ``serve``  -- run the ownership-claim server over a persistent registry.
* ``submit`` -- submit a claim request to a running server (``--demo``
  trains + watermarks a tiny model first; otherwise pass a wire-encoded
  model file and a watermark-keys ``.npz``).
* ``status`` -- poll one claim's job state.
* ``verify-remote`` -- ask the server to verify a proved claim.
* ``verify-local`` -- trustless verification: fetch the claim and a
  digest-pinned verifying key, check against a local model copy.
* ``audit`` -- sweep every non-revoked registered claim through the
  server's batched ``/verify-batch`` endpoint, grouped by verifying key,
  and report per-claim and per-group verdicts with timing.
* ``audit-circuit`` -- static soundness audit (unconstrained-wire /
  under-constraint detection, see ``repro.analysis``) of named shipped
  circuits, the full catalog (``--all``), or a registered claim's
  circuit (``--claim`` + ``--url``), diffed against an optional
  accepted-findings baseline.
* ``drain`` -- put a running server into drain mode (stop admitting new
  claims, finish in-flight proving) ahead of a restart or upgrade.
* ``trace`` -- print one claim's span timeline (submit -> queue-wait ->
  prove -> persist ...) as recorded by the observability layer.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .config import AUDIT_MODES, BACKENDS, ConfigError

__all__ = ["main"]


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return int(text)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0 < value < float("inf"):  # also refuses nan
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return value


def _cmd_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from .circuit import FixedPointFormat
    from .datasets import mnist_like
    from .nn import Adam, mnist_mlp_scaled, train_classifier
    from .watermark import EmbedConfig, embed_watermark, generate_keys
    from .zkrownn import CircuitConfig, run_ownership_protocol

    rng = np.random.default_rng(args.seed)
    print("[1/4] training a small classifier on synthetic data ...")
    data = mnist_like(600, 150, image_size=4, seed=args.seed)
    model = mnist_mlp_scaled(input_dim=16, hidden=16, rng=rng)
    train_classifier(
        model, data.x_train, data.y_train, Adam(0.005), epochs=5, rng=rng
    )

    print("[2/4] generating watermark keys and embedding (DeepSigns) ...")
    keys = generate_keys(
        model, data.x_train, data.y_train,
        embed_layer=1, wm_bits=8, min_triggers=4, rng=rng,
    )
    keys.trigger_inputs = keys.trigger_inputs[:4]
    report = embed_watermark(
        model, keys, data.x_train, data.y_train,
        config=EmbedConfig(epochs=20, seed=args.seed, lambda_projection=5.0),
    )
    print(f"      BER {report.ber_before:.3f} -> {report.ber_after:.3f}, "
          f"accuracy {report.accuracy_before:.3f} -> {report.accuracy_after:.3f}")

    print("[3/4] running the ZKROWNN protocol (setup, prove, verify x3) ...")
    from repro.engine import ProvingEngine

    config = CircuitConfig(
        theta=0.0, fixed_point=FixedPointFormat(frac_bits=14, total_bits=40)
    )
    engine = ProvingEngine(cache_dir=args.cache_dir)
    transcript, claim = run_ownership_protocol(
        model, keys, config=config, num_verifiers=3, seed=args.seed,
        engine=engine,
    )

    print("[4/4] results")
    for key, value in transcript.timings.items():
        print(f"      {key:>22}: {value:8.3f}")
    print(f"      proof size: {len(claim.proof_bytes)} bytes "
          f"(claim: {claim.size_bytes()} bytes)")
    print(f"      all verifiers accepted: {transcript.all_accepted}")

    if args.repeats > 0:
        from repro.zkrownn import prove_ownership_with_engine

        print(f"[+] amortization: {args.repeats} repeat claim(s) through the "
              "shared ProvingEngine (compile + setup cached) ...")
        first = transcript.timings["setup_seconds"] + transcript.timings[
            "prove_seconds"
        ]
        for i in range(args.repeats):
            _, job = prove_ownership_with_engine(
                engine, model, keys, config, seed=args.seed + 1 + i
            )
            repeat = sum(job.timings.values())
            print(f"      claim {i + 2}: {repeat:8.3f} s "
                  f"(first claim incl. setup: {first:8.3f} s, "
                  f"speedup {first / repeat:.1f}x)")
        stats = engine.stats.as_dict()
        print("      engine stats: " +
              ", ".join(f"{k}={v}" for k, v in stats.items() if v))

    return 0 if transcript.all_accepted else 1


def _cmd_table1(args: argparse.Namespace) -> int:
    from .bench.table1 import main as table1_main

    argv = ["--scale", args.scale]
    if args.only:
        argv += ["--only", *args.only]
    table1_main(argv)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .zkrownn import OwnershipClaim

    claim = OwnershipClaim.load(args.claim)
    print(f"ownership claim ({claim.size_bytes()} bytes)")
    print(f"  proof:          {len(claim.proof_bytes)} bytes (Groth16, BN254)")
    print(f"  model digest:   {claim.model_sha256}")
    print(f"  BER threshold:  theta = {claim.theta}")
    print(f"  watermark bits: {claim.wm_bits}")
    print(f"  embed layer:    {claim.embed_layer}")
    print(f"  fixed point:    {claim.frac_bits} frac / {claim.total_bits} total bits")
    print(f"  sigmoid degree: {claim.sigmoid_degree}")
    try:
        claim.proof.validate_points()
        print("  proof points:   on curve, in subgroup")
    except Exception as exc:  # noqa: BLE001 - report, do not crash
        print(f"  proof points:   INVALID ({exc})")
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    from .bench.table1 import PAPER_TABLE1, paper_scale_constraints

    counts = paper_scale_constraints()
    print(f"{'Benchmark':<18} {'cost model':>14} {'paper':>14} {'ratio':>8}")
    for name, count in counts.items():
        paper = PAPER_TABLE1[name][0]
        print(f"{name:<18} {count:>14,} {paper:>14,} {count / paper:>8.2f}")
    return 0


def _demo_model_and_keys(seed: int):
    """The tiny trained + watermarked MLP every demo path uses."""
    import numpy as np

    from .datasets import mnist_like
    from .nn import Adam, mnist_mlp_scaled, train_classifier
    from .watermark import EmbedConfig, embed_watermark, generate_keys

    rng = np.random.default_rng(seed)
    data = mnist_like(600, 150, image_size=4, seed=seed)
    model = mnist_mlp_scaled(input_dim=16, hidden=16, rng=rng)
    train_classifier(
        model, data.x_train, data.y_train, Adam(0.005), epochs=5, rng=rng
    )
    keys = generate_keys(
        model, data.x_train, data.y_train,
        embed_layer=1, wm_bits=8, min_triggers=4, rng=rng,
    )
    keys.trigger_inputs = keys.trigger_inputs[:4]
    embed_watermark(
        model, keys, data.x_train, data.y_train,
        config=EmbedConfig(epochs=20, seed=seed, lambda_projection=5.0),
    )
    return model, keys


def _service_config(args: argparse.Namespace):
    from .circuit import FixedPointFormat
    from .zkrownn import CircuitConfig

    return CircuitConfig(
        theta=args.theta,
        fixed_point=FixedPointFormat(
            frac_bits=args.frac_bits, total_bits=args.total_bits
        ),
    )


def _kernels_line() -> str:
    """``<kernel> native`` or ``<kernel> python (<reason>)`` for each
    compiled kernel: which path this process runs."""
    from . import native

    return ", ".join(
        f"{name} {entry['path']}"
        + ("" if entry["reason"] is None else f" ({entry['reason']})")
        for name, entry in native.status().items()
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .engine import ProvingEngine
    from .parallel import machine_backend
    from .service import ClaimRegistry, ProofServer, ProofService

    # The setup cache defaults to living inside the registry root, so a
    # plain `zkrownn serve --registry DIR` is crash-safe end to end: a
    # restarted service recovers queued claims AND re-proves known shapes
    # without re-running Groth16 setup.
    cache_dir = args.cache_dir or str(Path(args.registry) / "engine-cache")
    # The dispatch threads follow the backend's worker count.
    engine = ProvingEngine(
        cache_dir=cache_dir,
        backend=machine_backend(args.backend, args.workers),
    )
    service = ProofService(
        ClaimRegistry(args.registry),
        engine=engine,
        max_queue_depth=args.max_queue_depth,
        max_attempts=args.max_attempts,
        prove_budget_seconds=args.prove_budget,
        audit_mode=args.circuit_audit,
    )
    server = ProofServer(service, host=args.host, port=args.port)
    print(f"proof service listening on {server.url}")
    print(f"  registry: {args.registry}  cache: {cache_dir}  "
          f"backend: {engine.backend.name}")
    print(f"  prove workers: {engine.backend.workers}  "
          f"dispatch threads: {service.scheduler.workers}  "
          f"kernels: {_kernels_line()}")
    if args.max_queue_depth or args.prove_budget:
        print(f"  max_queue_depth: {args.max_queue_depth}  "
              f"prove_budget: {args.prove_budget}  "
              f"max_attempts: {args.max_attempts}")
    server.serve_forever()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient, wire
    from .watermark import WatermarkKeys

    if args.demo:
        print("training + watermarking a demo model ...")
        model, keys = _demo_model_and_keys(args.seed if args.seed is not None else 0)
    else:
        if not (args.model and args.keys):
            print("submit needs either --demo or both --model and --keys",
                  file=sys.stderr)
            return 2
        with open(args.model, "rb") as fh:
            model = wire.decode_model(fh.read())
        keys = WatermarkKeys.load(args.keys)

    client = ServiceClient(args.url)
    submitted = client.submit_claim(
        model,
        keys,
        _service_config(args),
        priority=args.priority,
        seed=args.seed,
        setup_seed=args.setup_seed,
    )
    print(f"claim id: {submitted['claim_id']}")
    print(f"state:    {submitted['state']}"
          + (" (resubmission)" if submitted.get("resubmission") else ""))
    if not args.wait:
        return 0
    status = client.wait(submitted["claim_id"], timeout=args.timeout)
    print(f"final:    {status['state']}")
    if status["state"] != "done":
        print(f"error:    {status['error']}")
        return 1
    for key, value in sorted(status.get("timings", {}).items()):
        print(f"  {key:>22}: {value:8.3f}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json as _json

    from .service import ServiceClient

    status = ServiceClient(args.url).status(args.claim_id)
    print(_json.dumps(status, indent=2, sort_keys=True))
    return 0 if status["state"] != "failed" else 1


def _cmd_verify_remote(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    report = ServiceClient(args.url).verify_remote(args.claim_id)
    print(f"accepted: {report['accepted']}")
    print(f"reason:   {report['reason']}")
    return 0 if report["accepted"] else 1


def _cmd_verify_local(args: argparse.Namespace) -> int:
    """Trustless verification: fetch claim + digest-pinned VK, check here."""
    from .service import ServiceClient, wire

    if args.demo:
        print("rebuilding the demo model locally ...")
        model, _ = _demo_model_and_keys(args.seed)
    elif args.model:
        with open(args.model, "rb") as fh:
            model = wire.decode_model(fh.read())
    else:
        print("verify-local needs either --demo or --model", file=sys.stderr)
        return 2

    client = ServiceClient(args.url)
    digest = args.circuit_digest or client.status(args.claim_id).get(
        "circuit_digest", ""
    )
    if not digest:
        print("claim has no circuit digest yet (still queued/proving?)",
              file=sys.stderr)
        return 1
    report = client.verify_local(args.claim_id, model, circuit_digest=digest)
    print(f"pinned circuit: {digest}")
    print(f"accepted:       {report.accepted}")
    print(f"reason:         {report.reason}")
    return 0 if report.accepted else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    """Registry-wide audit sweep via the batched verification endpoint.

    Exit code 0 only if every group's batched pairing check passed and no
    200-status claim was rejected and no stored proof was malformed
    (status 400).  Claims not yet proved (409) are reported as skipped
    and do not fail the audit.
    """
    from .service import ServiceClient

    client = ServiceClient(args.url)
    result = client.audit_registry(seed=args.seed)
    if not result.verdicts:
        print("registry holds no auditable claims")
        return 0

    failed = False
    skipped = 0
    print(f"audited {len(result.verdicts)} claim(s) "
          f"in {len(result.groups)} verification-key group(s)")
    for verdict in result.verdicts:
        if verdict.status == 409:
            mark, skipped = "SKIP", skipped + 1
        elif verdict.accepted:
            mark = "PASS"
        else:
            mark, failed = "FAIL", True
        print(f"  [{mark}] {verdict.claim_id[:16]}...  "
              f"status={verdict.status}  {verdict.reason}")
    for group in result.groups:
        state = "accepted" if group.accepted else "REJECTED"
        if not group.accepted:
            failed = True
        print(f"group {group.circuit_digest[:16]}...: "
              f"{len(group.claim_ids)} claim(s) {state} "
              f"in {group.seconds:.3f}s (batched pairing check)")
    if skipped:
        print(f"{skipped} claim(s) skipped (not yet proved)")
    print("audit result:", "FAILED" if failed else "PASSED")
    return 1 if failed else 0


def _cmd_audit_circuit(args: argparse.Namespace) -> int:
    """Static soundness audit of shipped circuits or a registered claim.

    Exit code 0 when every audited circuit is clean or every finding is
    accepted by the baseline; 1 when any *unbaselined* finding reaches
    ``high`` severity (the same bar CI enforces).
    """
    import json as _json

    from .analysis import (
        AuditBaseline,
        AuditReport,
        audit_named_circuit,
        catalog_names,
        severity_rank,
    )

    if args.claim:
        from .service import ServiceClient

        payload = ServiceClient(args.url).circuit_audit(args.claim)
        if args.json:
            print(_json.dumps(payload, indent=2, sort_keys=True))
        if not payload.get("available"):
            if not args.json:
                print(f"claim {args.claim}: audit unavailable "
                      f"({payload.get('reason', 'unknown')})", file=sys.stderr)
            return 1
        reports = [AuditReport.from_dict(payload["report"])]
    else:
        if args.all:
            names = catalog_names(args.scale)
        elif args.names:
            names = args.names
        else:
            print("audit-circuit needs circuit names, --all, or --claim; "
                  f"catalog: {', '.join(catalog_names(args.scale))}",
                  file=sys.stderr)
            return 2
        try:
            reports = [audit_named_circuit(n, scale=args.scale) for n in names]
        except KeyError as exc:
            print(str(exc.args[0]), file=sys.stderr)
            return 2

    baseline = (
        AuditBaseline.load(args.baseline) if args.baseline else AuditBaseline()
    )
    if args.write_baseline:
        for report in reports:
            if report.findings:
                baseline.add_report(report, args.justification)
        baseline.save(args.write_baseline)
        total = sum(len(r.findings) for r in reports)
        print(f"wrote {args.write_baseline}: {total} finding(s) accepted "
              f"across {len(reports)} circuit(s)")
        return 0

    failed = False
    json_out = []
    for report in reports:
        new, accepted = baseline.split(report.circuit, report.findings)
        blocking = [
            f for f in new if severity_rank(f.severity) >= severity_rank("high")
        ]
        if blocking:
            failed = True
        if args.json:
            json_out.append({
                **report.to_dict(),
                "new_findings": len(new),
                "accepted_findings": len(accepted),
                "blocking_findings": len(blocking),
            })
        else:
            print(report.render(accepted=accepted))
    if args.json and not args.claim:
        print(_json.dumps({"circuits": json_out, "failed": failed},
                          indent=2, sort_keys=True))
    elif not args.json:
        verdict = "FAILED" if failed else "PASSED"
        clean = sum(1 for r in reports if not r.findings)
        print(f"audit {verdict}: {len(reports)} circuit(s), "
              f"{clean} clean, "
              f"{sum(len(r.findings) for r in reports)} finding(s) total")
    return 1 if failed else 0


def _cmd_drain(args: argparse.Namespace) -> int:
    """Drain a running server: reject new claims, finish in-flight work."""
    from .service import ServiceClient

    client = ServiceClient(args.url)
    status = client.drain()
    print(f"drain requested: queue_depth={status.get('queue_depth', '?')}")
    if not args.wait:
        return 0
    import time as _time

    deadline = _time.monotonic() + args.timeout
    while _time.monotonic() < deadline:
        health = client.health()
        if health.get("drained"):
            print("drain complete: all in-flight claims settled")
            return 0
        _time.sleep(0.5)
    print("timed out waiting for drain to complete", file=sys.stderr)
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render a claim's span tree as an indented wall-clock timeline."""
    from .service import ServiceClient

    trace = ServiceClient(args.url).trace(args.claim_id)
    spans = trace.get("spans", [])
    print(f"claim:  {trace['claim_id']}")
    print(f"trace:  {trace.get('trace_id') or '(none)'}")
    if not spans:
        print("no spans recorded (observability disabled, or the claim "
              "predates tracing)")
        return 0
    by_id = {s.get("span_id"): s for s in spans if s.get("span_id")}

    def depth(span) -> int:
        d, parent = 0, span.get("parent_id")
        while parent and parent in by_id and d < 16:
            d += 1
            parent = by_id[parent].get("parent_id")
        return d

    base = min(s.get("start_unix", 0.0) for s in spans)
    print(f"{'offset':>10}  {'duration':>10}  span")
    for span in spans:
        offset = span.get("start_unix", 0.0) - base
        duration = span.get("duration_seconds")
        dur = f"{duration * 1000:9.2f}ms" if duration is not None else " " * 11
        indent = "  " * depth(span)
        extras = []
        for key in ("outcome", "attempt", "prior_state"):
            value = span.get("attrs", {}).get(key)
            if value is not None:
                extras.append(f"{key}={value}")
        for event in span.get("events", []):
            extras.append(f"!{event.get('name')}")
        suffix = f"  [{', '.join(extras)}]" if extras else ""
        print(f"{offset * 1000:8.2f}ms  {dur}  {indent}{span['name']}{suffix}")
    return 0


def _cmd_bench_report(args: argparse.Namespace) -> int:
    """Aggregate BENCH_*.json artifacts into one trend table."""
    from .tuning.report import render_report

    print(
        render_report(
            args.paths or ["."],
            baseline=args.baseline,
            show_metrics=not args.no_metrics,
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="zkrownn",
        description="ZKROWNN: zero-knowledge neural-network ownership proofs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="end-to-end ownership demo")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--repeats", type=int, default=1,
        help="extra claims through the cached pipeline (default 1; 0 disables)",
    )
    demo.add_argument(
        "--cache-dir", default=None,
        help="persist Groth16 keypairs here (skips setup across runs)",
    )
    demo.set_defaults(func=_cmd_demo)

    table1 = sub.add_parser("table1", help="reproduce Table I")
    table1.add_argument("--scale", default="reduced", choices=["tiny", "reduced"])
    table1.add_argument("--only", nargs="*")
    table1.set_defaults(func=_cmd_table1)

    cost = sub.add_parser("cost", help="paper-scale constraint counts")
    cost.set_defaults(func=_cmd_cost)

    inspect = sub.add_parser("inspect", help="inspect an ownership claim file")
    inspect.add_argument("claim", help="path to a claim .json")
    inspect.set_defaults(func=_cmd_inspect)

    def add_url(p):
        p.add_argument("--url", default="http://127.0.0.1:8080",
                       help="proof-service base URL")

    def add_config(p):
        p.add_argument("--theta", type=float, default=0.0)
        p.add_argument("--frac-bits", type=int, default=14)
        p.add_argument("--total-bits", type=int, default=40)

    serve = sub.add_parser("serve", help="run the ownership-claim proof service")
    serve.add_argument("--registry", required=True,
                       help="directory for the persistent claim registry")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--backend", choices=BACKENDS, default=None,
                       help="compute backend (default: ZKROWNN_BACKEND, else "
                            "process with two or more workers, else serial)")
    serve.add_argument("--workers", type=_positive_int, default=None,
                       help="prove-pool processes of the process backend, "
                            "and as many dispatch threads, so that many "
                            "claims prove at the same time; the serial "
                            "backend always proves one (default: "
                            "ZKROWNN_WORKERS, else the usable CPUs)")
    serve.add_argument("--cache-dir", default=None,
                       help="ProvingEngine keypair cache directory "
                            "(default: <registry>/engine-cache)")
    serve.add_argument("--max-queue-depth", type=_positive_int, default=None,
                       help="reject new claims with 429 past this queue "
                            "depth (default: unbounded)")
    serve.add_argument("--prove-budget", type=_positive_float, default=None,
                       help="wall-clock seconds a claim may prove; the "
                            "watchdog quarantines it at twice that")
    serve.add_argument("--max-attempts", type=_positive_int, default=3,
                       help="proving attempts before a claim is "
                            "quarantined (default 3)")
    serve.add_argument("--circuit-audit", choices=AUDIT_MODES,
                       default=None,
                       help="static circuit-soundness auditing: 'warn' logs "
                            "findings, 'strict' rejects claims whose circuit "
                            "has critical findings (default: engine default, "
                            "ZKROWNN_CIRCUIT_AUDIT or off)")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser("submit", help="submit a claim to a proof service")
    add_url(submit)
    submit.add_argument("--demo", action="store_true",
                        help="train + watermark a tiny model and claim it")
    submit.add_argument("--model", help="wire-encoded model file (.model)")
    submit.add_argument("--keys", help="watermark keys .npz")
    add_config(submit)
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--setup-seed", type=int, default=None)
    submit.add_argument("--wait", action="store_true",
                        help="block until the claim is proved")
    submit.add_argument("--timeout", type=float, default=600.0)
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status", help="poll a claim's job state")
    add_url(status)
    status.add_argument("claim_id")
    status.set_defaults(func=_cmd_status)

    verify_remote = sub.add_parser(
        "verify-remote", help="server-side verification of a proved claim"
    )
    add_url(verify_remote)
    verify_remote.add_argument("claim_id")
    verify_remote.set_defaults(func=_cmd_verify_remote)

    verify_local = sub.add_parser(
        "verify-local",
        help="trustless verification: fetch claim + digest-pinned VK, "
             "check against a local model copy",
    )
    add_url(verify_local)
    verify_local.add_argument("claim_id")
    verify_local.add_argument("--model", help="wire-encoded model file (.model)")
    verify_local.add_argument("--demo", action="store_true",
                              help="rebuild the demo model locally")
    verify_local.add_argument("--seed", type=int, default=0,
                              help="demo model seed (with --demo)")
    verify_local.add_argument(
        "--circuit-digest", default=None,
        help="pin the verifying key to this circuit digest "
             "(default: the digest the claim record names)",
    )
    verify_local.set_defaults(func=_cmd_verify_local)

    audit = sub.add_parser(
        "audit",
        help="batch-verify every non-revoked registered claim, "
             "grouped by verifying key",
    )
    add_url(audit)
    audit.add_argument(
        "--seed", type=int, default=None,
        help="derandomize the batch combiner (reproducible audits)",
    )
    audit.set_defaults(func=_cmd_audit)

    audit_circuit = sub.add_parser(
        "audit-circuit",
        help="static soundness audit (unconstrained / under-constrained "
             "wires) of shipped circuits or a registered claim's circuit",
    )
    audit_circuit.add_argument(
        "names", nargs="*",
        help="catalog circuit names (case-insensitive); see --all",
    )
    audit_circuit.add_argument(
        "--all", action="store_true",
        help="audit every catalog circuit (Table-I gadgets + architectures)",
    )
    audit_circuit.add_argument(
        "--scale", default="tiny", choices=["tiny", "reduced", "paper"],
        help="catalog build scale (default tiny)",
    )
    audit_circuit.add_argument(
        "--baseline", default=None,
        help="accepted-findings baseline JSON; baselined findings do not "
             "fail the audit",
    )
    audit_circuit.add_argument(
        "--write-baseline", default=None,
        help="write current findings to this baseline file and exit 0",
    )
    audit_circuit.add_argument(
        "--justification", default="accepted by --write-baseline",
        help="justification recorded for every --write-baseline entry",
    )
    audit_circuit.add_argument(
        "--claim", default=None,
        help="audit a registered claim's circuit via the proof service "
             "(with --url) instead of the local catalog",
    )
    add_url(audit_circuit)
    audit_circuit.add_argument(
        "--json", action="store_true", help="machine-readable output",
    )
    audit_circuit.set_defaults(func=_cmd_audit_circuit)

    drain = sub.add_parser(
        "drain",
        help="drain a running proof service ahead of restart/upgrade",
    )
    add_url(drain)
    drain.add_argument("--wait", action="store_true",
                       help="block until all in-flight claims settle")
    drain.add_argument("--timeout", type=float, default=600.0,
                       help="max seconds to wait with --wait")
    drain.set_defaults(func=_cmd_drain)

    trace = sub.add_parser(
        "trace",
        help="print a claim's recorded span timeline",
    )
    add_url(trace)
    trace.add_argument("claim_id")
    trace.set_defaults(func=_cmd_trace)

    bench_report = sub.add_parser(
        "bench-report",
        help="aggregate BENCH_*.json artifacts into one trend table",
    )
    bench_report.add_argument(
        "paths", nargs="*",
        help="files or directories holding BENCH_*.json (default: .)")
    bench_report.add_argument(
        "--baseline", default=None,
        help="directory of an earlier run; adds a before/after table")
    bench_report.add_argument(
        "--no-metrics", action="store_true",
        help="omit the per-entry key-metric listing")
    bench_report.set_defaults(func=_cmd_bench_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"zkrownn: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
