"""Unit tests for :mod:`repro.tuning.report` (``zkrownn bench-report``)."""

import json

import pytest

from repro.tuning.report import (
    diff_reports,
    load_bench_reports,
    render_report,
    summarize_report,
)


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return path


class TestLoadBenchReports:
    def test_directory_yields_only_bench_json_files(self, tmp_path):
        _write(tmp_path / "BENCH_a.json", {"benchmark": "bench_a"})
        _write(tmp_path / "BENCH_b.json", {"benchmark": "bench_b"})
        _write(tmp_path / "other.json", {"benchmark": "other"})
        _write(tmp_path / "BENCH_c.txt", {"benchmark": "bench_c"})
        reports = load_bench_reports([str(tmp_path)])
        assert sorted(reports) == ["bench_a", "bench_b"]

    def test_explicit_file_is_loaded_whatever_its_name(self, tmp_path):
        path = _write(tmp_path / "run.json", {"benchmark": "bench_run"})
        reports = load_bench_reports([str(path)])
        assert list(reports) == ["bench_run"]
        assert reports["bench_run"]["_path"] == str(path)

    def test_name_falls_back_to_the_file_name(self, tmp_path):
        _write(tmp_path / "BENCH_groth16.json", {"test_seconds": {}})
        assert list(load_bench_reports([str(tmp_path)])) == ["bench_groth16"]

    def test_malformed_and_missing_files_are_noted_not_raised(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("{nope")
        _write(tmp_path / "BENCH_ok.json", {"benchmark": "bench_ok"})
        missing = tmp_path / "absent" / "BENCH_gone.json"
        reports = load_bench_reports([str(tmp_path), str(missing)])
        errors = reports.pop("")["_errors"]
        assert list(reports) == ["bench_ok"]
        assert len(errors) == 2
        assert any("BENCH_bad.json" in e for e in errors)
        assert any("BENCH_gone.json" in e for e in errors)

    def test_no_error_key_when_every_file_loads(self, tmp_path):
        _write(tmp_path / "BENCH_ok.json", {"benchmark": "bench_ok"})
        assert "" not in load_bench_reports([str(tmp_path)])


class TestSummarizeReport:
    def test_totals_and_slowest_test(self):
        summary = summarize_report({
            "benchmark": "bench_x",
            "test_seconds": {"test_a": 0.5, "test_b": 2.0, "test_c": 1.0},
        })
        assert summary["benchmark"] == "bench_x"
        assert summary["tests"] == 3
        assert summary["total_seconds"] == pytest.approx(3.5)
        assert (summary["slowest_test"], summary["slowest_seconds"]) == (
            "test_b", 2.0,
        )

    def test_empty_payload_summarizes_to_placeholders(self):
        summary = summarize_report({})
        assert summary["benchmark"] == "?"
        assert summary["tests"] == 0
        assert summary["total_seconds"] == 0
        assert (summary["slowest_test"], summary["slowest_seconds"]) == (
            "-", 0.0,
        )
        assert summary["metrics"] == {}

    @pytest.mark.parametrize("key", [
        "prove_seconds", "proof_bytes", "constraints", "speedup_ratio",
        "speedup", "field_ops", "bucket_count",
    ])
    def test_numeric_fields_with_a_metric_suffix_are_metrics(self, key):
        summary = summarize_report({"entries": {"e": {key: 3}}})
        assert summary["metrics"] == {f"e.{key}": 3.0}

    @pytest.mark.parametrize("value", [True, "1.5", None, [1.0]])
    def test_non_numeric_values_are_not_metrics(self, value):
        summary = summarize_report({"entries": {"e": {"prove_seconds": value}}})
        assert summary["metrics"] == {}

    def test_fields_without_a_metric_suffix_and_odd_entries_are_skipped(self):
        summary = summarize_report({"entries": {
            "e": {"n": 512, "width": 9, "msm_seconds": 0.25},
            "note": "not an entry",
        }})
        assert summary["metrics"] == {"e.msm_seconds": 0.25}

    def test_machine_profile_key_of_older_payloads_is_ignored(self):
        payload = {
            "benchmark": "bench_old", "field_backend": "gmpy2",
            "test_seconds": {"test_a": 1.0},
        }
        plain = summarize_report(payload)
        payload["machine_profile"] = {"loaded": True, "created_at": "x"}
        assert summarize_report(payload) == plain
        assert not any("profile" in key for key in plain)


class TestDiffReports:
    def test_rows_for_tests_present_in_both_runs(self):
        before = {
            "bench_x": {"test_seconds": {"test_a": 2.0, "test_gone": 1.0}},
            "bench_only_before": {"test_seconds": {"test_a": 1.0}},
        }
        after = {
            "bench_x": {"test_seconds": {"test_a": 3.0, "test_new": 1.0}},
            "bench_only_after": {"test_seconds": {"test_a": 1.0}},
        }
        assert diff_reports(before, after) == [{
            "benchmark": "bench_x", "test": "test_a",
            "baseline_seconds": 2.0, "current_seconds": 3.0,
            "delta_pct": pytest.approx(50.0),
        }]

    def test_zero_baseline_gives_zero_delta(self):
        rows = diff_reports(
            {"b": {"test_seconds": {"t": 0.0}}},
            {"b": {"test_seconds": {"t": 1.0}}},
        )
        assert rows[0]["delta_pct"] == 0.0

    def test_error_entry_is_never_compared(self):
        errors = {"": {"_errors": ["x"]}}
        assert diff_reports(errors, errors) == []


class TestRenderReport:
    def test_no_metrics_section_when_hidden(self, tmp_path):
        _write(tmp_path / "BENCH_x.json", {
            "benchmark": "bench_x", "test_seconds": {"test_a": 1.0},
            "entries": {"e": {"prove_seconds": 1.0}},
        })
        shown = render_report([str(tmp_path)])
        hidden = render_report([str(tmp_path)], show_metrics=False)
        assert "# Key metrics" in shown
        assert "# Key metrics" not in hidden
        assert "# Benchmark trend" in hidden

    def test_baseline_without_overlap_says_so(self, tmp_path):
        before = tmp_path / "before"
        after = tmp_path / "after"
        before.mkdir()
        after.mkdir()
        _write(before / "BENCH_a.json",
               {"benchmark": "bench_a", "test_seconds": {"t": 1.0}})
        _write(after / "BENCH_b.json",
               {"benchmark": "bench_b", "test_seconds": {"t": 1.0}})
        out = render_report([str(after)], baseline=str(before))
        assert "# Before/after vs baseline\nno overlapping benchmarks" in out

    def test_trend_rows_are_sorted_and_aligned(self, tmp_path):
        _write(tmp_path / "BENCH_z.json", {
            "benchmark": "bench_z", "test_seconds": {"test_a": 1.25},
            "field_backend": "python",
        })
        _write(tmp_path / "BENCH_a.json", {
            "benchmark": "bench_a", "test_seconds": {"test_b": 0.5},
        })
        lines = render_report([str(tmp_path)], show_metrics=False).splitlines()
        assert lines[0] == "# Benchmark trend"
        header, rule, first, second = lines[1:5]
        assert first.split() == ["bench_a", "1", "0.50", "0.50", "test_b", "-"]
        assert second.split() == [
            "bench_z", "1", "1.25", "1.25", "test_a", "python",
        ]
        # Every column starts where its header does.
        for column in ("tests", "total_s", "field"):
            start = header.index(column)
            assert rule[start] == "-" and rule[start - 1] == " "

    def test_long_test_names_are_truncated(self, tmp_path):
        name = "test_" + "x" * 80
        _write(tmp_path / "BENCH_x.json", {
            "benchmark": "bench_x", "test_seconds": {name: 1.0},
        })
        out = render_report([str(tmp_path)], show_metrics=False)
        assert name[:48] in out
        assert name[:49] not in out
