#!/usr/bin/env python3
"""The repo benchmark: four claim-lifecycle workloads, measured from outside.

    python3 benchmarks/e2e/run.py                       # every workload
    python3 benchmarks/e2e/run.py --trace 1             # ... plus a traced run each
    python3 benchmarks/e2e/run.py --workload cold_shapes --seed 7
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload runs in a fresh, hermetic subprocess (see README.md).  With
``--workload`` the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The exit code is non-zero when any output was
wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import ROOT, load_spec  # noqa: E402

WORK_ROOT = ROOT / ".bench_build" / "e2e"
CHILD_TIMEOUT_S = 170


def parse_args(argv: List[str]) -> argparse.Namespace:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds the sample counts are sized for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced, per-layer run")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (seed, seed+1, ...)")
    parser.add_argument("--out", type=Path, default=WORK_ROOT,
                        help="directory for BENCH_e2e_*.json outputs")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two outputs, B against base A")
    parser.add_argument("--child-result", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.spec = spec
    return args


# ------------------------------------------------------------------- child --


def child_main(args: argparse.Namespace) -> int:
    """Inside the hermetic subprocess: run one workload, write its record."""
    from harness import Run
    from workloads import WORKLOADS

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.started, args.child_result.parent)
    run.tracer.enabled = run.trace
    WORKLOADS[args.workload](run)
    args.child_result.write_text(json.dumps(run.finish()))
    return 0


# ------------------------------------------------------------------ parent --


def hermetic_env(workdir: Path) -> Dict[str, str]:
    """No ZKROWNN_* knob survives, and the machine profile points at a
    path that does not exist: a stray ~/.zkrownn/profile.json would
    silently change Pippenger windows and backends."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZKROWNN_")}
    env["ZKROWNN_PROFILE"] = str(workdir / "no-such-profile.json")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(args: argparse.Namespace, workload: str, seed: int,
                 trace: int) -> Dict[str, Any]:
    tmp_root = WORK_ROOT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    result = workdir / "result.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(args.seconds),
        "--trace", str(trace), "--child-result", str(result),
        "--started", repr(time.time()),
    ]
    child = subprocess.Popen(command, env=hermetic_env(workdir), cwd=ROOT,
                             stdout=sys.stderr)
    try:
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT_S}s")
        if code != 0 or not result.is_file():
            raise SystemExit(f"{workload}: subprocess failed with code {code}")
        doc = json.loads(result.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.out.mkdir(parents=True, exist_ok=True)
    kind = "trace_" if trace else ""
    (args.out / f"BENCH_e2e_{kind}{workload}.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True))
    return doc


def declared_metrics(spec: Dict[str, Any], doc: Dict[str, Any]) -> Dict[str, Any]:
    """The metrics BENCHMARK.json declares for this kind of run, by name.

    A layer the workload does not touch spent no time and did no work
    there, so its per-layer metrics read 0.  An end-to-end metric must be
    reported by every workload, and nothing undeclared may be reported.
    """
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    reported = doc["metrics"]
    unknown = set(reported) - set(end_to_end) - set(per_layer)
    if unknown:
        raise SystemExit(f"{doc['workload']}: undeclared metrics {sorted(unknown)}")
    if doc["trace"]:
        return {name: {"value": reported.get(name, 0.0), "unit": m["unit"]}
                for name, m in per_layer.items()}
    missing = set(end_to_end) - set(reported)
    if missing:
        raise SystemExit(f"{doc['workload']}: missing metrics {sorted(missing)}")
    return {name: {"value": reported[name], "unit": m["unit"]}
            for name, m in end_to_end.items()}


def print_run(doc: Dict[str, Any], metrics: Dict[str, Any]) -> None:
    env = doc["environment"]
    print(f"# {doc['workload']}  seed={doc['seed']} seconds={doc['seconds']:g} "
          f"trace={int(doc['trace'])}")
    print(f"#   python {env['python']}, nproc {env['nproc']}, field backend "
          f"{env['field_backend']}, compute backend {env['compute_backend']}")
    print(f"#   times at the reference speed of {env['reference_mulmod_ns']:g} ns per "
          f"calibration step; this run's median step took {env['mulmod_ns']:.1f} ns")
    for name, m in metrics.items():
        n = doc["samples"].get(name)
        raw = doc["raw_medians"].get(name)
        notes = ([f"n={n}"] if n else []) + (
            [f"{raw:.6g} as clocked"] if raw is not None else [])
        print(f"{name:<34} {m['value']:>14.6g} {m['unit']:<6}"
              + (f"  ({', '.join(notes)})" if notes else ""))
    print(f"{'failed_ratio':<34} {doc['failed'] / doc['attempted']:>14.6g}   "
          f"({doc['failed']} of {doc['attempted']} operations)")
    print(f"{'proof_digest':<34} {doc['proof_digest']}")
    for failure in doc["failures"]:
        print(f"FAILED: {failure}")
    if doc["trace"]:
        for key in ("fixed_base_share_of_setup", "fixed_base_share_of_round",
                    "pairing_share_of_verify"):
            if key in doc:
                print(f"{key:<34} {doc[key]:>14.4f}")
        for failure in coverage_failures(doc):
            print(f"FAILED: {failure}")
    if "table1" in doc:
        print_table1(doc["table1"])


def print_table1(table: List[Dict[str, Any]]) -> None:
    print("# Table I: measured at tiny | paper | cost model at paper scale")
    print(f"{'row':<18}{'constr.':>9}{'setup s':>9}{'prove s':>9}{'ver. ms':>9}"
          f" |{'constr.':>10}{'setup s':>9}{'prove s':>9}{'ver. ms':>8}"
          f" |{'model constr.':>14}{'ratio':>7}")
    for row in table:
        m, p = row["measured_tiny"], row["paper"]
        print(f"{row['row']:<18}{m['constraints']:>9}{m['setup_s']:>9.2f}"
              f"{m['prove_s']:>9.2f}{m['verify_ms']:>9.1f}"
              f" |{p['constraints']:>10}{p['setup_s']:>9.2f}{p['prove_s']:>9.2f}"
              f"{p['verify_ms']:>8.1f}"
              f" |{row['cost_model_paper_scale_constraints']:>14}"
              f"{row['cost_model_over_paper']:>7.2f}")


def coverage_failures(doc: Dict[str, Any]) -> List[str]:
    """Unattributed time is itself an error in a traced run."""
    low, high = 0.90, 1.10
    return [
        f"{name} = {doc['metrics'][name]:.3f} outside [{low}, {high}]"
        for name in ("trace.prove_coverage", "trace.verify_coverage")
        if name in doc["metrics"] and not low <= doc["metrics"][name] <= high]


def result_line(doc: Dict[str, Any], metrics: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "correct": doc["failed"] == 0 and not coverage_failures(doc),
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(args.spec, Path(args.compare[0]), Path(args.compare[1]))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.child_result:
        return child_main(args)

    if args.workload:
        doc = run_workload(args, args.workload, args.seed, args.trace)
        metrics = declared_metrics(args.spec, doc)
        print_run(doc, metrics)
        line = result_line(doc, metrics)
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    runs, correct = [], True
    for w in args.spec["workloads"]:
        plan = [(args.seed + k, 0) for k in range(args.runs)]
        if args.trace:
            plan.append((args.seed, 1))
        for seed, trace in plan:
            doc = run_workload(args, w["name"], seed, trace)
            metrics = declared_metrics(args.spec, doc)
            print_run(doc, metrics)
            print()
            correct = correct and result_line(doc, metrics)["correct"]
            doc.pop("spans", None)  # the per-run trace file keeps them
            runs.append(doc)
    combined = args.out / "BENCH_e2e.json"
    combined.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True))
    print(f"wrote {combined}" + ("" if correct else "  (with FAILURES)"))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
