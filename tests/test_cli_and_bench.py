"""Tests for the CLI entry point and the benchmark harness plumbing."""

import pytest

from repro.bench.metrics import TABLE_HEADER, CircuitReport, format_table, measure_circuit
from repro.bench.table1 import (
    PAPER_TABLE1,
    SCALES,
    builders_for_scale,
    paper_scale_constraints,
)
from repro.circuit.builder import CircuitBuilder
from repro.cli import main


class TestCli:
    def test_cost_subcommand(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "MatMult" in out
        assert "MNIST-MLP" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        for retired_or_unknown in ("tune", "frobnicate"):
            with pytest.raises(SystemExit):
                main([retired_or_unknown])

    @pytest.mark.parametrize("flag, value", [
        ("--max-attempts", "0"),
        ("--max-queue-depth", "0"),
        ("--prove-budget", "-1"),
        ("--prove-budget", "0"),
        ("--prove-budget", "nan"),
    ])
    def test_serve_refuses_out_of_range_limits(
        self, flag, value, tmp_path, capsys, monkeypatch
    ):
        """Refused while parsing -- exit 2, the flag named, no traceback --
        never a service that 429s, quarantines or fails every claim."""
        from repro.service import ProofServer

        def started(self):
            raise AssertionError(f"serve started with {flag} {value}")

        monkeypatch.setattr(ProofServer, "serve_forever", started)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--registry", str(tmp_path / "reg"),
                  "--port", "0", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {value!r} is not" in err
        assert "Traceback" not in err

    def test_serve_limits_accept_what_they_promise(self):
        from repro.cli import _positive_float, _positive_int

        assert _positive_int("1") == 1
        assert _positive_float("0.25") == 0.25
        assert _positive_float("30") == 30.0

    def test_inspect_subcommand(self, tmp_path, capsys):
        from repro.snark.keys import Proof
        from repro.curves.g1 import G1Point
        from repro.curves.g2 import G2Point
        from repro.zkrownn import OwnershipClaim

        proof = Proof(G1Point.generator(), G2Point.generator(),
                      G1Point.generator() * 2)
        claim = OwnershipClaim(
            proof_bytes=proof.to_bytes(),
            theta=0.125,
            wm_bits=8,
            embed_layer=1,
            model_sha256="ab" * 32,
            frac_bits=14,
            total_bits=40,
        )
        path = tmp_path / "claim.json"
        claim.save(path)
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "128 bytes" in out
        assert "theta = 0.125" in out
        assert "on curve" in out


class TestMeasureCircuit:
    def test_full_measurement(self):
        def build():
            b = CircuitBuilder("tiny")
            out = b.public_output("y")
            x = b.private_input("x", 3)
            b.bind_output(out, b.mul(x, x))
            return b

        report = measure_circuit("tiny", build, seed=3)
        assert report.verified
        assert report.proof_bytes == 128
        assert report.num_constraints == 2
        assert report.num_public_inputs == 1
        assert report.pk_bytes > 0
        assert report.vk_bytes > 0
        assert report.setup_seconds > 0
        assert report.prove_seconds > 0
        assert report.verify_seconds > 0

    def test_report_row_and_units(self):
        report = CircuitReport(
            name="x",
            num_constraints=1234,
            num_public_inputs=1,
            setup_seconds=1.0,
            pk_bytes=2 * 1024 * 1024,
            prove_seconds=0.5,
            proof_bytes=128,
            vk_bytes=2048,
            verify_seconds=0.01,
            verified=True,
        )
        assert report.pk_megabytes == 2.0
        assert report.vk_kilobytes == 2.0
        assert report.verify_milliseconds == 10.0
        assert report.row()[0] == "x"
        assert report.row()[-1] == "ok"

    def test_format_table_contains_all_rows(self):
        report = CircuitReport("abc", 1, 1, 0.1, 100, 0.1, 128, 100, 0.01, True)
        table = format_table([report, report])
        assert table.count("abc") == 2
        for header in TABLE_HEADER:
            assert header in table


class TestTable1Plumbing:
    def test_builders_cover_all_paper_rows(self):
        builders = builders_for_scale("tiny")
        assert set(builders) == set(PAPER_TABLE1)

    def test_all_tiny_builders_synthesize(self):
        for name, build in builders_for_scale("tiny").items():
            builder = build()
            builder.check()
            assert builder.cs.num_constraints > 0, name

    def test_paper_scale_counts_positive(self):
        counts = paper_scale_constraints()
        assert all(v > 0 for v in counts.values())
        # MatMult at 128x128x128 must dwarf ReLU at length 128.
        assert counts["MatMult"] > 100 * counts["ReLU"]

    def test_scales_are_consistent(self):
        for scale in SCALES.values():
            assert scale.mat_dim > 0
            assert scale.wm_bits > 0
            assert scale.mlp_triggers >= 1
            assert scale.cnn_triggers >= 1


# --------------------------------------------------------------- bench-report --


def _write_bench(path, name, *, tests=None, entries=None, field=None,
                 profile=None):
    import json

    payload = {
        "benchmark": name,
        "scale": "reduced",
        "test_seconds": tests or {},
        "entries": entries or {},
        "field_backend": field,
    }
    if profile is not None:  # what payloads of older versions carry
        payload["machine_profile"] = profile
    path.write_text(json.dumps(payload))
    return payload


class TestBenchReportCli:
    def test_trend_table_and_metrics(self, tmp_path, capsys):
        _write_bench(
            tmp_path / "BENCH_msm_kernels.json",
            "bench_msm_kernels",
            tests={"test_fast": 0.5, "test_slow": 2.0},
            entries={"msm-n512": {
                "glv_signed_seconds": 1.15, "note": "x"}},
            field="gmpy2",
        )
        _write_bench(
            tmp_path / "BENCH_groth16.json",
            "bench_groth16",
            tests={"test_prove": 3.0},
        )
        assert main(["bench-report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "# Benchmark trend" in out
        assert "bench_msm_kernels" in out and "bench_groth16" in out
        assert "test_slow" in out  # slowest test surfaced
        assert "gmpy2" in out  # field backend column
        assert "# Key metrics" in out
        assert "msm-n512.glv_signed_seconds" in out
        assert "1.15" in out

    def test_baseline_delta_section(self, tmp_path, capsys):
        before = tmp_path / "before"
        after = tmp_path / "after"
        before.mkdir()
        after.mkdir()
        _write_bench(before / "BENCH_x.json", "bench_x",
                     tests={"test_a": 2.0})
        _write_bench(after / "BENCH_x.json", "bench_x",
                     tests={"test_a": 1.0})
        assert main(
            ["bench-report", str(after), "--baseline", str(before)]
        ) == 0
        out = capsys.readouterr().out
        assert "# Before/after vs baseline" in out
        assert "-50.0%" in out

    def test_corrupt_files_skipped_not_fatal(self, tmp_path, capsys):
        (tmp_path / "BENCH_bad.json").write_text("{nope")
        _write_bench(tmp_path / "BENCH_ok.json", "bench_ok",
                     tests={"test_a": 1.0})
        assert main(["bench-report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "bench_ok" in out
        assert "# Skipped files" in out

    def test_empty_directory_reports_nothing_found(self, tmp_path, capsys):
        assert main(["bench-report", str(tmp_path)]) == 0
        assert "no BENCH_*.json files found" in capsys.readouterr().out

    def test_payloads_with_a_machine_profile_still_render(
        self, tmp_path, capsys
    ):
        """Files written while a machine profile existed carry its key;
        they render like any other, and no profile column is shown."""
        _write_bench(
            tmp_path / "BENCH_old.json", "bench_old", tests={"test_a": 1.5},
            field="python",
            profile={"loaded": True, "created_at": "2026-08-08"},
        )
        _write_bench(tmp_path / "BENCH_new.json", "bench_new",
                     tests={"test_b": 0.5}, field="python")
        assert main(["bench-report", str(tmp_path), "--no-metrics"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[1]
        assert header.split() == [
            "benchmark", "tests", "total_s", "max_s", "slowest", "test",
            "field",
        ]
        assert "bench_old" in out and "bench_new" in out
        assert "# Skipped files" not in out
