"""The field layer is plain ``int`` arithmetic with no backend to choose.

``repro.field.backend`` survives only as a shim for the frozen benchmark
code; these tests pin the two names it keeps and that ``src/`` never
imports it again.
"""

import ast
from importlib.util import resolve_name
from pathlib import Path

from repro.curves.bn254 import R
from repro.field import backend

SRC = Path(__file__).resolve().parents[1] / "src"
SHIM = "repro.field.backend"


def test_shim_keeps_only_the_frozen_benchmark_contract():
    defined = {
        name
        for name, value in vars(backend).items()
        if not name.startswith("_")
        and getattr(value, "__module__", None) == backend.__name__
    }
    assert defined == set(backend.__all__) == {
        "active_field_backend",
        "get_field_ops",
    }
    assert backend.active_field_backend() == "python"
    assert backend.get_field_ops(R).wrap_many([-1, R + 5]) == [R - 1, 5]


def _imported_names(path: Path):
    """Every dotted module (and ``module.name``) ``path`` imports, made absolute."""
    package = ".".join(path.relative_to(SRC).parent.parts)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = resolve_name("." * node.level + (node.module or ""), package)
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def test_no_module_in_src_imports_the_shim():
    importers = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for lineno, name in _imported_names(path)
        if name == SHIM or name.startswith(SHIM + ".")
    ]
    assert importers == []
