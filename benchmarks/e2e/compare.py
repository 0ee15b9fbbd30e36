"""``run.py --compare A.json B.json``: B against base A, metric by metric.

One row per (workload, end-to-end metric): both medians, the ratio with
its base, the bound BENCHMARK.json fixes, and a verdict:

* ``worse`` / ``better`` -- B's median differs from A's by more than the bound;
* ``unchanged``          -- it does not;
* ``unresolved``         -- the runs on one side spread (inter-quartile
  range over median) wider than the bound, so neither can be said.

An output holds one run or many (``run.py --runs N`` writes them all to
``BENCH_e2e.json``); with a single run per side there is no spread to
judge by, and the verdict rests on the two values alone.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence


def load_runs(path: Path) -> List[Dict[str, Any]]:
    doc = json.loads(path.read_text())
    return doc["runs"] if "runs" in doc else [doc]


def spread(values: Sequence[float]) -> Optional[float]:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def backends(runs: Sequence[Dict[str, Any]]) -> set:
    return {(r["environment"]["field_backend"], r["environment"]["compute_backend"])
            for r in runs}


def compare(spec: Dict[str, Any], path_a: Path, path_b: Path) -> int:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    if backends(runs_a) != backends(runs_b):
        print(f"refusing to compare: resolved (field, compute) backends differ: "
              f"{sorted(backends(runs_a))} vs {sorted(backends(runs_b))}")
        return 2
    problems = 0
    print(f"{'workload':<20}{'metric':<28}{'A':>12}{'B':>12}{'B/A':>8}"
          f"{'bound':>8}  verdict")
    for w in (w["name"] for w in spec["workloads"]):
        side_a = [r for r in runs_a if r["workload"] == w]
        side_b = [r for r in runs_b if r["workload"] == w]
        if not side_a or not side_b:
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in side_a if not r["trace"]]
            b = [r["metrics"][m["name"]] for r in side_b if not r["trace"]]
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (med_b - med_a) / med_a
            spreads = [s for s in (spread(a), spread(b)) if s is not None]
            if any(s > m["bound"] for s in spreads):
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "worse"
            elif worse_by < -m["bound"]:
                verdict = "better"
            else:
                verdict = "unchanged"
            problems += verdict in ("worse", "unresolved")
            note = f"  (spread {max(spreads):.3f})" if spreads else ""
            print(f"{w:<20}{m['name']:<28}{med_a:>12.5g}{med_b:>12.5g}"
                  f"{med_b / med_a:>8.3f}{m['bound']:>8.3g}  {verdict}{note}")
        problems += exact_fields(w, side_a, side_b, spec)
    return 1 if problems else 0


def exact_fields(workload: str, side_a, side_b, spec) -> int:
    """Failures, proof digests and count metrics must agree exactly."""
    problems = 0
    for side, runs in (("A", side_a), ("B", side_b)):
        failed = sum(r["failed"] for r in runs)
        if failed:
            print(f"{workload:<20}{side} has {failed} failed operations")
            problems += 1

    def keyed(runs):
        return {(r["seed"], r["seconds"], r["trace"]): r for r in runs}

    exact = [m["name"] for m in spec["per_layer"] + spec["end_to_end"]
             if m["unit"] in ("count", "bytes")]
    a_by, b_by = keyed(side_a), keyed(side_b)
    for key in sorted(set(a_by) & set(b_by)):
        ra, rb = a_by[key], b_by[key]
        if ra["proof_digest"] != rb["proof_digest"]:
            print(f"{workload:<20}proof_digest differs for seed {key[0]}: "
                  f"{ra['proof_digest'][:16]} vs {rb['proof_digest'][:16]}")
            problems += 1
        for name in exact:
            va, vb = ra["metrics"].get(name), rb["metrics"].get(name)
            if va is not None and vb is not None and va != vb:
                print(f"{workload:<20}{name} differs for seed {key[0]}: "
                      f"{va:g} vs {vb:g}")
                problems += 1
    return problems
