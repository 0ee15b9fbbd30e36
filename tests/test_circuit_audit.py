"""The circuit soundness auditor: static R1CS analysis end to end.

Four layers under test:

* the analysis passes themselves, against the adversarial fixtures in
  :mod:`badcircuits` -- every planted defect must surface at its
  expected severity, and the shipped catalog must audit clean;
* the *exploit* the auditor exists to prevent: a forged witness for the
  under-constrained fixture that satisfies the R1CS and produces a
  verifying Groth16 proof for a different public output;
* the GF(p) elimination engine, property-tested against brute-force
  enumeration of solution sets on small random systems;
* the integration surface: engine warn/strict modes, on-disk report
  caching, R1CS serialization v2 provenance round-trip (and v1
  compatibility), the accepted-findings baseline, the service endpoint,
  and the ``zkrownn audit-circuit`` CLI exit codes.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from badcircuits import (
    ALL_BAD_CIRCUITS,
    degenerate_and_duplicate,
    free_hint,
    missing_range_check,
    unbound_output,
)
from repro.analysis import (
    AuditBaseline,
    AuditReport,
    CircuitAuditError,
    audit_constraint_system,
    audit_named_circuit,
    catalog_names,
    severity_rank,
)
from repro.analysis.linear import LinearSystem
from repro.cli import main as cli_main
from repro.engine import ProvingEngine
from repro.engine.compiled import CompiledCircuit
from repro.field.prime import BN254_R as R
from repro.snark import prove, setup, verify
from repro.snark.serialize import deserialize_r1cs, serialize_r1cs


def _audit(bad):
    return audit_constraint_system(bad.builder.cs, name=bad.builder.name)


# --------------------------------------------------------------- findings --


class TestBadCircuitFindings:
    @pytest.mark.parametrize(
        "factory", ALL_BAD_CIRCUITS, ids=lambda f: f.__name__
    )
    def test_planted_defects_flagged_at_expected_severity(self, factory):
        bad = factory()
        report = _audit(bad)
        got = {(f.pass_id, f.severity) for f in report.findings}
        for expected in bad.expect:
            assert expected in got, (
                f"{bad.builder.name}: expected finding {expected} "
                f"missing from {sorted(got)}"
            )

    def test_findings_carry_wire_provenance(self):
        report = _audit(free_hint())
        hint = next(
            f for f in report.findings if f.pass_id == "unconstrained-hint"
        )
        assert hint.wire_name == "free"
        assert hint.kind == "hint"

    def test_report_roundtrips_through_json(self):
        report = _audit(missing_range_check())
        clone = AuditReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert clone.circuit == report.circuit
        assert [f.key for f in clone.findings] == [
            f.key for f in report.findings
        ]
        assert clone.counts() == report.counts()

    def test_honest_witnesses_still_satisfy_bad_circuits(self):
        # The fixtures are *under*-constrained, not broken: the honest
        # trace must satisfy them, or they test nothing interesting.
        for factory in ALL_BAD_CIRCUITS:
            bad = factory()
            if factory is unbound_output:
                continue  # its reserved output slot holds a placeholder 0
            assert bad.builder.cs.is_satisfied(bad.builder.assignment), (
                f"{bad.builder.name}: honest witness rejected"
            )


class TestShippedCircuitsClean:
    @pytest.mark.parametrize("name", catalog_names("tiny"))
    def test_catalog_circuit_audits_clean(self, name):
        report = audit_named_circuit(name, scale="tiny")
        assert not report.findings, report.render()
        # The determinism pass actually ran (kinds were known).
        assert "underconstrained-hint" in report.passes_run


# ---------------------------------------------------------------- exploit --


class TestForgedWitnessExploit:
    """The missing range check is a genuine soundness hole, not a lint."""

    def test_forged_witness_satisfies_and_proves(self):
        bad = missing_range_check(x=117, shift_bits=4)
        cs = bad.builder.cs
        honest = list(bad.builder.assignment)
        assert cs.is_satisfied(honest)

        # Forge: shift one unit from the quotient into the unchecked
        # remainder. (q-1)*16 + (rem+16) still equals x.
        q_i, rem_i, out_i = bad.wires["q"], bad.wires["rem"], bad.wires["out"]
        scale = bad.wires["scale"]
        forged = list(honest)
        forged[q_i] = (forged[q_i] - 1) % R
        forged[rem_i] = (forged[rem_i] + scale) % R
        forged[out_i] = forged[q_i]
        assert forged != honest
        assert cs.is_satisfied(forged)

        # Groth16 happily proves the forged witness, and the proof
        # VERIFIES -- for a different public output than the honest one.
        keypair = setup(cs, seed=1)
        proof = prove(keypair.proving_key, cs, forged, seed=2)
        forged_public = cs.public_inputs_of(forged)
        honest_public = cs.public_inputs_of(honest)
        assert forged_public != honest_public
        assert verify(keypair.verifying_key, forged_public, proof)

        # ... which is exactly what the auditor flags statically.
        report = _audit(bad)
        assert report.at_least("critical")
        assert any(
            f.pass_id == "underconstrained-output" for f in report.findings
        )

    def test_shipped_truncation_rejects_the_same_forgery(self):
        # Control: the real truncate gadget range-checks the remainder,
        # so the analogous perturbation no longer satisfies.
        from repro.circuit.builder import CircuitBuilder

        b = CircuitBuilder("honest-truncate")
        out = b.public_output("q_out")
        x = b.private_input("x", 117)
        q = b.truncate(x, 4, 12)
        b.bind_output(out, q)
        honest = list(b.assignment)
        assert b.cs.is_satisfied(honest)
        q_i = q.lc.as_single_variable()
        forged = list(honest)
        forged[q_i] = (forged[q_i] - 1) % R
        assert not b.cs.is_satisfied(forged)
        assert not _audit_builder_has_findings(b)


def _audit_builder_has_findings(builder):
    return bool(
        audit_constraint_system(builder.cs, name=builder.name).findings
    )


# ----------------------------------------------------- GF(p) elimination --


class TestLinearSystemProperty:
    """Gauss-Jordan determinedness == brute-force solution-set agreement.

    A variable is uniquely determined by a consistent linear system iff
    every solution of the *homogeneous* system has zero there.  For
    linear systems elimination is complete, so the two must agree
    exactly on small instances we can enumerate.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_bruteforce_on_small_systems(self, data):
        p = 5
        n = data.draw(st.integers(min_value=1, max_value=3), label="nvars")
        rows = data.draw(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=p - 1),
                    min_size=n,
                    max_size=n,
                ),
                min_size=0,
                max_size=4,
            ),
            label="rows",
        )
        system = LinearSystem(p)
        for row in rows:
            system.add_equation({v: c for v, c in enumerate(row) if c})
        got = system.determined()

        # Brute force over the homogeneous solution set.
        solutions = []
        for packed in range(p ** n):
            x = [(packed // p ** i) % p for i in range(n)]
            if all(
                sum(c * xi for c, xi in zip(row, x)) % p == 0 for row in rows
            ):
                solutions.append(x)
        expected = {
            v for v in range(n) if all(x[v] == 0 for x in solutions)
        }
        assert got == expected

    def test_rank_and_pivots(self):
        system = LinearSystem(7)
        system.add_equation({0: 1, 1: 1})
        system.add_equation({1: 1})
        assert system.rank == 2
        assert system.determined() == {0, 1}
        system.add_equation({0: 3, 1: 4})  # dependent: no new info
        assert system.rank == 2


# --------------------------------------------------------------- engine --


class TestEngineAuditModes:
    def test_warn_counts_findings_and_continues(self, tmp_path):
        engine = ProvingEngine(cache_dir=str(tmp_path), audit="warn")
        bad = free_hint()
        compiled = CompiledCircuit.from_builder(bad.builder)
        report = engine.audit_circuit(compiled)
        assert report.findings
        assert engine.stats.audits == 1
        assert engine.stats.audit_findings == len(report.findings)
        # Second call is a pure cache hit.
        assert engine.audit_circuit(compiled) is report
        assert engine.stats.audits == 1

    def test_strict_rejects_critical(self, tmp_path):
        engine = ProvingEngine(cache_dir=str(tmp_path), audit="strict")

        def synthesize(b):
            b.public_output("o")  # never bound: critical finding
            x = b.private_input("x", 3)
            b.mul(x, x)
            return None

        with pytest.raises(CircuitAuditError) as excinfo:
            engine.synthesize("bad-shape", synthesize)
        assert excinfo.value.report.at_least("critical")
        assert engine.stats.audit_rejections == 1
        # CircuitAuditError is a ValueError: the service scheduler's
        # existing synthesis-failure handling fails the claim for free.
        assert isinstance(excinfo.value, ValueError)

    def test_strict_allows_clean_circuits(self, tmp_path):
        engine = ProvingEngine(cache_dir=str(tmp_path), audit="strict")

        def synthesize(b):
            out = b.public_output("o")
            x = b.private_input("x", 3)
            b.bind_output(out, b.mul(x, x))
            return None

        compiled, _ = engine.synthesize("good-shape", synthesize)
        assert engine.audit_report_for(compiled.digest) is not None

    def test_report_persists_to_artifact_store(self, tmp_path):
        bad = free_hint()
        compiled = CompiledCircuit.from_builder(bad.builder)
        engine1 = ProvingEngine(cache_dir=str(tmp_path), audit="warn")
        report1 = engine1.audit_circuit(compiled)
        assert (tmp_path / f"{compiled.digest}.audit.json").is_file()
        # A fresh engine sharing the store loads it without re-auditing.
        engine2 = ProvingEngine(cache_dir=str(tmp_path), audit="warn")
        report2 = engine2.audit_circuit(compiled)
        assert engine2.stats.audits == 0
        assert [f.key for f in report2.findings] == [
            f.key for f in report1.findings
        ]

    def test_audit_stored_circuit_by_digest(self, tmp_path):
        bad = missing_range_check()
        compiled = CompiledCircuit.from_builder(bad.builder)
        engine = ProvingEngine(cache_dir=str(tmp_path))
        engine._store.save_constraint_system(compiled.digest, compiled.cs)
        report = engine.audit_stored_circuit(compiled.digest)
        assert report is not None
        assert report.at_least("critical")
        assert engine.audit_stored_circuit("no-such-digest") is None

    def test_bad_audit_mode_rejected(self):
        with pytest.raises(ValueError):
            ProvingEngine(audit="nonsense")

    def test_audit_mode_from_env(self, monkeypatch):
        monkeypatch.setenv("ZKROWNN_CIRCUIT_AUDIT", "warn")
        assert ProvingEngine().audit_mode == "warn"
        monkeypatch.delenv("ZKROWNN_CIRCUIT_AUDIT")
        assert ProvingEngine().audit_mode == "off"


class TestAuditTiers:
    """Fast (warn-inline) vs deep audit tiers."""

    def test_fast_tier_skips_expensive_passes(self):
        bad = free_hint()
        fast = audit_constraint_system(bad.builder.cs, deep=False)
        assert fast.deep is False
        assert "underconstrained-hint" in fast.passes_skipped
        assert "duplicate-constraint" in fast.passes_skipped
        assert "underconstrained-hint" not in fast.passes_run
        deep = audit_constraint_system(bad.builder.cs)
        assert deep.deep is True
        assert "underconstrained-hint" in deep.passes_run
        assert "duplicate-constraint" in deep.passes_run

    def test_fast_tier_catches_structural_criticals(self):
        # Everything strict mode structurally rejects on is found by the
        # fast tier too: unbound outputs/publics don't need the fixpoint.
        fast = audit_constraint_system(
            unbound_output().builder.cs, deep=False
        )
        assert [
            (f.pass_id, f.severity) for f in fast.at_least("critical")
        ] == [("unbound-output", "critical")]
        # The high-severity structural checks fire as well.
        assert audit_constraint_system(
            free_hint().builder.cs, deep=False
        ).at_least("high")

    def test_fast_tier_defers_determinism_findings(self):
        # The forgeable truncation is invisible to the structural sweep
        # -- that's the documented warn-mode tradeoff; strict mode, the
        # CLI, and CI all run the deep tier and catch it.
        bad = missing_range_check()
        fast = audit_constraint_system(bad.builder.cs, deep=False)
        assert not fast.findings
        deep = audit_constraint_system(bad.builder.cs)
        assert deep.at_least("critical")

    def test_warn_engine_runs_fast_tier_inline(self, tmp_path):
        engine = ProvingEngine(cache_dir=str(tmp_path), audit="warn")

        def synthesize(b):
            out = b.public_output("o")
            x = b.private_input("x", 3)
            b.bind_output(out, b.mul(x, x))
            return None

        compiled, _ = engine.synthesize("shape", synthesize)
        report = engine.audit_report_for(compiled.digest)
        assert report is not None and report.deep is False

    def test_strict_engine_runs_deep_tier(self, tmp_path):
        engine = ProvingEngine(cache_dir=str(tmp_path), audit="strict")

        def synthesize(b):
            out = b.public_output("q_out")
            w = b.private_input("x", 117)
            q = b.alloc_hint("q", 117 >> 4)
            rem = b.alloc_hint("rem", 117 % 16)
            b.assert_equal(q.scale(16) + rem, w)  # no range check
            b.bind_output(out, q)
            return None

        # The defect is determinism-only (no structural finding), so
        # only the deep tier can reject it -- and strict mode does.
        with pytest.raises(CircuitAuditError) as excinfo:
            engine.synthesize("forgeable", synthesize)
        assert excinfo.value.report.deep is True
        assert any(
            f.pass_id == "underconstrained-output"
            for f in excinfo.value.report.at_least("critical")
        )

    def test_deep_request_upgrades_cached_fast_report(self, tmp_path):
        bad = missing_range_check()
        compiled = CompiledCircuit.from_builder(bad.builder)
        engine = ProvingEngine(cache_dir=str(tmp_path), audit="warn")
        fast = engine.audit_circuit(compiled, deep=False)
        assert fast.deep is False and not fast.findings
        assert engine.stats.audits == 1
        deep = engine.audit_circuit(compiled)
        assert deep.deep is True and deep.at_least("critical")
        assert engine.stats.audits == 2
        # The deep report now satisfies both tiers, memory and disk.
        assert engine.audit_circuit(compiled, deep=False) is deep
        assert engine.stats.audits == 2
        ondisk = json.loads(
            (tmp_path / f"{compiled.digest}.audit.json").read_text()
        )
        assert ondisk["deep"] is True

    def test_deep_flag_roundtrips_and_defaults_true(self):
        fast = audit_constraint_system(free_hint().builder.cs, deep=False)
        restored = AuditReport.from_dict(fast.to_dict())
        assert restored.deep is False
        legacy = fast.to_dict()
        del legacy["deep"]
        assert AuditReport.from_dict(legacy).deep is True


# --------------------------------------------------------- serialization --


class TestSerializationProvenance:
    def test_v2_roundtrips_kinds_and_expected_boolean(self):
        bad = missing_range_check()
        cs = bad.builder.cs
        clone = deserialize_r1cs(serialize_r1cs(cs))
        assert clone.variable_kinds == cs.variable_kinds
        assert [i for i, _ in clone.expected_boolean] == [
            i for i, _ in cs.expected_boolean
        ]
        # The audit of the deserialized system sees the same defects.
        report = audit_constraint_system(clone, name="clone")
        assert report.at_least("critical")

    def test_v1_blob_loads_with_unknown_kinds(self):
        bad = missing_range_check()
        cs = bad.builder.cs
        blob = serialize_r1cs(cs)
        # A v1 blob is the v2 blob minus the trailing provenance section
        # (one kind byte per variable + u32 count + u32 per entry).
        trailer = cs.num_variables + 4 + 4 * len(cs.expected_boolean)
        v1 = blob[: len(blob) - trailer]
        v1 = v1[:4] + struct.pack(">H", 1) + v1[6:]
        clone = deserialize_r1cs(v1)
        assert clone.num_constraints == cs.num_constraints
        assert clone.variable_kinds[0] == "one"
        assert set(clone.variable_kinds[1:]) == {"unknown"}
        # Without kinds the determinism pass cannot tell inputs from
        # hints: it must skip with a recorded reason, not guess.
        report = audit_constraint_system(clone, name="v1")
        assert "underconstrained-hint" in report.passes_skipped


# -------------------------------------------------------------- baseline --


class TestAuditBaseline:
    def test_split_accepts_matching_findings(self):
        report = _audit(free_hint())
        baseline = AuditBaseline({
            "free-hint": [{
                "pass": "unconstrained-hint",
                "wire": "free",
                "severity": "high",
                "justification": "planted fixture",
            }]
        })
        new, accepted = baseline.split("free-hint", report.findings)
        assert [f.pass_id for f in accepted] == ["unconstrained-hint"]
        assert all(f.pass_id != "unconstrained-hint" for f in new)

    def test_wire_patterns_match_families(self):
        report = _audit(degenerate_and_duplicate())
        baseline = AuditBaseline({
            "degenerate-duplicate": [
                {"pass": "degenerate-constraint", "wire": "*",
                 "justification": "fixture"},
                {"pass": "duplicate-constraint", "wire": "*",
                 "justification": "fixture"},
            ]
        })
        new, accepted = baseline.split(
            "degenerate-duplicate", report.findings
        )
        assert not new
        assert len(accepted) == len(report.findings)

    def test_load_rejects_missing_justification(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1,
            "circuits": {"c": [{"pass": "unconstrained-hint", "wire": "*"}]},
        }))
        with pytest.raises(ValueError, match="justification"):
            AuditBaseline.load(path)

    def test_save_load_roundtrip(self, tmp_path):
        report = _audit(free_hint())
        baseline = AuditBaseline()
        baseline.add_report(report, "known fixture")
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = AuditBaseline.load(path)
        new, accepted = loaded.split("free-hint", report.findings)
        assert not new and accepted

    def test_checked_in_baseline_is_loadable(self):
        from pathlib import Path

        path = Path(__file__).parent / "audit_baseline.json"
        baseline = AuditBaseline.load(path)
        # Shipped circuits are clean, so the baseline accepts nothing.
        assert baseline.circuits == {}


# --------------------------------------------------------------- service --


class TestServiceIntegration:
    def test_circuit_audit_endpoint_payload(self, tmp_path):
        from repro.service import ClaimRegistry, ProofService
        from repro.service.registry import ClaimRecord

        registry = ClaimRegistry(tmp_path / "reg")
        service = ProofService(
            registry, cache_dir=str(tmp_path / "cache"), audit_mode="warn"
        )
        assert service.engine.audit_mode == "warn"

        bad = missing_range_check()
        compiled = CompiledCircuit.from_builder(bad.builder)
        service.engine._store.save_constraint_system(
            compiled.digest, compiled.cs
        )
        registry.register(ClaimRecord(claim_id="c1", model_digest="m"))
        registry.transition("c1", "dispatch")
        registry.transition("c1", "prove", circuit_digest=compiled.digest)
        payload = service.circuit_audit("c1")
        assert payload["available"]
        assert payload["circuit_digest"] == compiled.digest
        report = AuditReport.from_dict(payload["report"])
        assert report.at_least("critical")

        # A claim still queued has no digest to audit yet.
        registry.register(ClaimRecord(claim_id="c2", model_digest="m"))
        assert not service.circuit_audit("c2")["available"]

    def test_scheduler_records_audit_rejection(self, tmp_path):
        from repro.service import ClaimRegistry
        from repro.service.scheduler import ProofScheduler, ProofTask

        registry = ClaimRegistry(tmp_path)
        scheduler = ProofScheduler(ProvingEngine(), registry)
        report = _audit(missing_range_check())
        task = ProofTask(
            claim_id="victim", shape_key="s", synthesize=lambda b: None
        )
        scheduler._record_audit_rejection(task, CircuitAuditError(report))
        entries = [
            e for e in registry.audit_entries("victim")
            if e["event"] == "circuit_audit_rejected"
        ]
        assert len(entries) == 1
        assert entries[0]["worst"] == "critical"
        assert entries[0]["counts"]["critical"] >= 1
        # Non-audit errors record nothing.
        scheduler._record_audit_rejection(task, ValueError("boom"))
        assert len(list(registry.audit_entries("victim"))) == 1

    def test_service_rejects_bad_audit_mode(self, tmp_path):
        from repro.service import ClaimRegistry, ProofService

        with pytest.raises(ValueError):
            ProofService(
                ClaimRegistry(tmp_path),
                engine=ProvingEngine(),
                audit_mode="nope",
            )


# ------------------------------------------------------------------- CLI --


class TestAuditCircuitCli:
    def test_shipped_gadgets_exit_zero(self, capsys):
        assert cli_main(["audit-circuit", "BER", "ReLU", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "clean: no findings" in out
        assert "audit PASSED" in out

    def test_case_insensitive_names(self):
        assert cli_main(["audit-circuit", "ber", "--scale", "tiny"]) == 0

    def test_unknown_name_exits_two(self, capsys):
        assert cli_main(["audit-circuit", "NoSuchCircuit"]) == 2

    def test_no_selection_exits_two(self, capsys):
        assert cli_main(["audit-circuit"]) == 2

    def test_bad_circuit_exits_nonzero(self, monkeypatch, capsys):
        import repro.bench.table1 as table1

        def bad_builders(scale):
            return {"Planted": lambda: missing_range_check().builder}

        monkeypatch.setattr(table1, "builders_for_scale", bad_builders)
        assert cli_main(["audit-circuit", "--all"]) == 1
        out = capsys.readouterr().out
        assert "audit FAILED" in out

    def test_baseline_accepts_findings(self, monkeypatch, tmp_path, capsys):
        import repro.bench.table1 as table1

        def bad_builders(scale):
            return {"Planted": lambda: free_hint().builder}

        monkeypatch.setattr(table1, "builders_for_scale", bad_builders)
        # Without a baseline the high-severity finding fails the audit ...
        assert cli_main(["audit-circuit", "--all"]) == 1
        capsys.readouterr()
        # ... --write-baseline records it, and the re-run passes.
        baseline = tmp_path / "baseline.json"
        assert cli_main([
            "audit-circuit", "--all",
            "--write-baseline", str(baseline),
            "--justification", "planted for the test",
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "audit-circuit", "--all", "--baseline", str(baseline)
        ]) == 0
        out = capsys.readouterr().out
        assert "(baseline)" in out

    def test_json_output(self, capsys):
        assert cli_main(["audit-circuit", "BER", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] is False
        assert payload["circuits"][0]["circuit"] == "BER"
