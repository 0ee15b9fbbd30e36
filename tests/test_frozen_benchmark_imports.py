"""What the frozen end-to-end benchmark needs from the package.

``benchmarks/e2e/`` is frozen: it is run from the committed files of a
change and of its parent and the two are compared, so it cannot follow a
rename.  A name it imports from ``repro`` that has gone -- at module level
or inside a function, as ``harness.py`` does -- fails every workload at
once, and a runtime key it reads that has gone reads 0 or divides by
zero.  These tests name the loss before the benchmark does.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.engine import ProvingEngine
from repro.service import ClaimRegistry, ProofService, wire
from shapes import SMALL_SETUP_SEED, small_claim

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
SOURCES = sorted(path.name for path in E2E.glob("*.py"))


def repro_imports(source: str):
    """``(module, name)`` for every ``from repro... import name`` in one
    benchmark file, nested imports included (``name`` is None for a plain
    ``import repro...``)."""
    tree = ast.parse((E2E / source).read_text(), filename=source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


def test_the_walk_sees_nested_imports():
    assert ("repro.parallel", "get_backend") in set(repro_imports("harness.py"))
    assert ("repro.service", "ProofService") in set(repro_imports("workloads.py"))


@pytest.mark.parametrize("source", SOURCES)
def test_every_imported_name_exists(source):
    missing = []
    for module_name, name in repro_imports(source):
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            missing.append(f"from {module_name} import {name}")
    assert not missing, f"benchmarks/e2e/{source} imports gone names: {missing}"


def test_the_runtime_keys_the_benchmark_reads(tmp_path, small_claim_engine):
    """``service_claims`` reads each claim's ``batch_prove_seconds`` timing
    and divides ``proofs`` by ``proof_batches`` from ``/stats``."""
    assert "proof_batches" in ProvingEngine().stats_snapshot()
    model, keys, config = small_claim()
    frame = wire.encode_claim_request(wire.ClaimRequest(
        model=model, keys=keys, config=config,
        seed=1, setup_seed=SMALL_SETUP_SEED,
    ))
    service = ProofService(ClaimRegistry(tmp_path), engine=small_claim_engine)
    try:
        service.start()
        claim_id = service.submit(frame)["claim_id"]
        assert service.scheduler.wait(claim_id, timeout=120) == "done"
        assert service.status(claim_id)["timings"]["batch_prove_seconds"] > 0
        engine = service.stats()["engine"]
        assert engine["proof_batches"] >= 1
        assert engine["proofs"] / engine["proof_batches"] == 1.0
    finally:
        service.close()
