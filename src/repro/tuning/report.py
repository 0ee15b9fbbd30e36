"""``zkrownn bench-report``: one trend table from many ``BENCH_*.json``.

Every benchmark session writes per-module ``BENCH_<name>.json`` payloads
(:mod:`benchmarks.conftest`): per-test wall times, richer per-entry
metrics (proof sizes, constraint counts, kernel ratios) and the backend
configuration the numbers were produced under.  This module
consolidates any number of those files into a readable report -- and,
given a baseline directory (an earlier run, another branch's CI
artifact), a before/after delta table.  Keys it does not show (older
payloads carry a ``machine_profile``) are ignored.

Stdlib-only.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "load_bench_reports",
    "summarize_report",
    "diff_reports",
    "render_report",
]

#: Entry fields surfaced in the key-metric listing.  Anything numeric
#: whose name ends with one of these suffixes is considered a metric.
_METRIC_SUFFIXES = (
    "seconds",
    "bytes",
    "constraints",
    "ratio",
    "speedup",
    "ops",
    "count",
)


def load_bench_reports(paths: Sequence[str]) -> Dict[str, dict]:
    """Load ``BENCH_*.json`` payloads from files and/or directories.

    Returns ``{benchmark name: payload}``; malformed files are skipped
    with a ``_errors`` note under the special key ``""`` rather than
    failing the whole report.
    """
    files: List[str] = []
    for path in paths:
        path = os.path.expanduser(path)
        if os.path.isdir(path):
            files.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.startswith("BENCH_") and name.endswith(".json")
            )
        else:
            files.append(path)
    reports: Dict[str, dict] = {}
    errors: List[str] = []
    for file in files:
        try:
            with open(file, "r") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            errors.append(f"{file}: {exc}")
            continue
        name = payload.get("benchmark") or os.path.splitext(
            os.path.basename(file)
        )[0].replace("BENCH_", "bench_")
        payload.setdefault("_path", file)
        reports[str(name)] = payload
    if errors:
        reports[""] = {"_errors": errors}
    return reports


def _numeric_metrics(entry: dict) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, value in entry.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if key.endswith(_METRIC_SUFFIXES):
            out[key] = float(value)
    return out


def summarize_report(payload: dict) -> Dict[str, Any]:
    """Flatten one payload into the fields the trend table shows."""
    test_seconds = payload.get("test_seconds") or {}
    total = sum(test_seconds.values())
    slowest: Tuple[str, float] = ("-", 0.0)
    for test, seconds in test_seconds.items():
        if seconds >= slowest[1]:
            slowest = (test, seconds)
    metrics: Dict[str, float] = {}
    for entry_name, entry in (payload.get("entries") or {}).items():
        if not isinstance(entry, dict):
            continue
        for key, value in _numeric_metrics(entry).items():
            metrics[f"{entry_name}.{key}"] = value
    return {
        "benchmark": payload.get("benchmark", "?"),
        "tests": len(test_seconds),
        "total_seconds": total,
        "slowest_test": slowest[0],
        "slowest_seconds": slowest[1],
        "scale": payload.get("scale"),
        "field_backend": payload.get("field_backend"),
        "backend_env": payload.get("backend_env"),
        "metrics": metrics,
    }


def diff_reports(
    baseline: Dict[str, dict], current: Dict[str, dict]
) -> List[Dict[str, Any]]:
    """Per-test before/after rows for benchmarks present in both runs.

    ``delta_pct`` is signed current-vs-baseline: negative means the
    current run is faster.
    """
    rows: List[Dict[str, Any]] = []
    for name in sorted(set(baseline) & set(current) - {""}):
        before = baseline[name].get("test_seconds") or {}
        after = current[name].get("test_seconds") or {}
        for test in sorted(set(before) & set(after)):
            b, a = before[test], after[test]
            delta = (a - b) / b * 100.0 if b else 0.0
            rows.append(
                {
                    "benchmark": name,
                    "test": test,
                    "baseline_seconds": b,
                    "current_seconds": a,
                    "delta_pct": delta,
                }
            )
    return rows


def _format_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_report(
    paths: Sequence[str],
    *,
    baseline: Optional[str] = None,
    show_metrics: bool = True,
) -> str:
    """The full ``zkrownn bench-report`` text output."""
    reports = load_bench_reports(paths)
    errors = reports.pop("", {}).get("_errors", [])
    sections: List[str] = []
    if not reports:
        sections.append("no BENCH_*.json files found")
    else:
        rows = []
        for name in sorted(reports):
            s = summarize_report(reports[name])
            rows.append(
                [
                    s["benchmark"],
                    str(s["tests"]),
                    f"{s['total_seconds']:.2f}",
                    f"{s['slowest_seconds']:.2f}",
                    s["slowest_test"][:48],
                    str(s["field_backend"] or "-"),
                ]
            )
        sections.append(
            "# Benchmark trend\n"
            + _format_table(
                [
                    "benchmark",
                    "tests",
                    "total_s",
                    "max_s",
                    "slowest test",
                    "field",
                ],
                rows,
            )
        )
        if show_metrics:
            metric_rows = []
            for name in sorted(reports):
                s = summarize_report(reports[name])
                for key, value in sorted(s["metrics"].items()):
                    metric_rows.append(
                        [s["benchmark"], key[:64], f"{value:g}"]
                    )
            if metric_rows:
                sections.append(
                    "# Key metrics\n"
                    + _format_table(
                        ["benchmark", "metric", "value"], metric_rows
                    )
                )
    if baseline is not None:
        base_reports = load_bench_reports([baseline])
        base_reports.pop("", None)
        delta_rows = diff_reports(base_reports, reports)
        if delta_rows:
            rows = [
                [
                    d["benchmark"],
                    d["test"][:56],
                    f"{d['baseline_seconds']:.3f}",
                    f"{d['current_seconds']:.3f}",
                    f"{d['delta_pct']:+.1f}%",
                ]
                for d in delta_rows
            ]
            sections.append(
                "# Before/after vs baseline\n"
                + _format_table(
                    ["benchmark", "test", "before_s", "after_s", "delta"],
                    rows,
                )
            )
        else:
            sections.append(
                "# Before/after vs baseline\nno overlapping benchmarks"
            )
    if errors:
        sections.append("# Skipped files\n" + "\n".join(errors))
    return "\n\n".join(sections)
