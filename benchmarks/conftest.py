"""Benchmark configuration.

Scale selection: ``ZKROWNN_BENCH_SCALE`` environment variable, default
``reduced`` (the laptop-runnable dimensions; see repro.bench.table1).
``tiny`` cuts total runtime to well under a minute for CI-style smoke runs.

Every measured :class:`~repro.bench.metrics.CircuitReport` is collected and
printed as a Table-I style summary at the end of the session.

Machine-readable output: each benchmark module writes a
``BENCH_<name>.json`` file (into ``ZKROWNN_BENCH_JSON_DIR``, default the
working directory) containing per-test wall times plus whatever richer
entries -- proof/key sizes, constraint counts, sweep tables -- the tests
record through the ``bench_json`` fixture.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List

import pytest

from repro.bench.metrics import CircuitReport, format_table
from repro.bench.table1 import SCALES

_REPORTS: List[CircuitReport] = []
_JSON_REPORTS: Dict[str, dict] = {}


def _active_field_backend() -> str:
    from repro.field.backend import active_field_backend

    return active_field_backend()


def _g1_msm_status() -> dict:
    from repro.curves import native

    return native.status()


def _json_report_for(module: str) -> dict:
    """The mutable JSON payload for one benchmark module.

    Besides scale and interpreter, every payload records the kernel and
    backend configuration the numbers were produced under -- without it,
    artifact comparisons across CI runs are meaningless.
    """
    return _JSON_REPORTS.setdefault(
        module,
        {
            "benchmark": module,
            "scale": os.environ.get("ZKROWNN_BENCH_SCALE", "reduced"),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            # Environment-level defaults; benchmarks that construct their
            # own backends record the actual one per entry.
            "backend_env": os.environ.get("ZKROWNN_BACKEND", "serial"),
            "workers_env": os.environ.get("ZKROWNN_WORKERS"),
            "field_backend": _active_field_backend(),
            "msm_kernel": "glv+signed-window+batch-affine",
            "g1_msm": _g1_msm_status(),
            "ntt_kernel": "cached-twiddle-registry",
            "test_seconds": {},
            "entries": {},
        },
    )


@pytest.fixture
def bench_json(request):
    """Record machine-readable fields into this module's BENCH_*.json.

    Usage: ``bench_json("MNIST-MLP", proof_bytes=128, prove_seconds=3.2)``.
    Repeated calls with one name merge their fields.
    """
    module = request.module.__name__.rsplit(".", 1)[-1]

    def record(name: str, /, **fields):
        entries = _json_report_for(module)["entries"]
        entries.setdefault(name, {}).update(fields)

    return record


@pytest.fixture
def record_report(bench_json):
    """Serialize a CircuitReport into this module's BENCH_*.json."""
    import dataclasses

    def _record(report: CircuitReport):
        fields = dataclasses.asdict(report)
        bench_json(fields.pop("name"), **fields)

    return _record


def pytest_runtest_logreport(report):
    """Every benchmark test contributes at least its wall time."""
    if report.when != "call":
        return
    path = report.nodeid.split("::", 1)[0]
    module = os.path.splitext(os.path.basename(path))[0]
    if module.startswith("bench_"):
        _json_report_for(module)["test_seconds"][
            report.nodeid.split("::", 1)[-1]
        ] = report.duration


@pytest.fixture(scope="session")
def bench_scale():
    name = os.environ.get("ZKROWNN_BENCH_SCALE", "reduced")
    if name not in ("tiny", "reduced"):
        raise ValueError(f"ZKROWNN_BENCH_SCALE must be tiny or reduced, got {name}")
    return SCALES[name]


@pytest.fixture(scope="session")
def report_collector():
    return _REPORTS


@pytest.fixture(scope="session")
def proving_engine():
    """One ProvingEngine shared by the whole benchmark session.

    Table-I rows have distinct structure digests, so their timings stay
    cold-path; circuits that recur (the amortization benchmark, repeated
    shapes) hit the caches, which is the behavior under measurement.
    """
    from repro.engine import ProvingEngine

    return ProvingEngine()


def pytest_sessionfinish(session, exitstatus):
    capman = session.config.pluginmanager.getplugin("capturemanager")
    if capman:
        capman.suspend_global_capture(in_=True)
    if _REPORTS:
        print("\n\n# ZKROWNN Table I reproduction "
              f"(scale={os.environ.get('ZKROWNN_BENCH_SCALE', 'reduced')})\n")
        print(format_table(_REPORTS))
        print()
    try:
        out_dir = os.environ.get("ZKROWNN_BENCH_JSON_DIR", ".")
        os.makedirs(out_dir, exist_ok=True)
        for module, payload in sorted(_JSON_REPORTS.items()):
            payload["written_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
            name = module[len("bench_"):] if module.startswith("bench_") else module
            path = os.path.join(out_dir, f"BENCH_{name}.json")
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            print(f"wrote {path}")
    finally:
        if capman:
            capman.resume_global_capture()


@pytest.fixture(scope="session")
def watermarked_small_mlp():
    """A trained + watermarked model for the Figure-1 protocol benchmark."""
    import numpy as np

    from repro.datasets import mnist_like
    from repro.nn import Adam, mnist_mlp_scaled, train_classifier
    from repro.watermark import EmbedConfig, embed_watermark, generate_keys

    rng = np.random.default_rng(0)
    data = mnist_like(600, 150, image_size=4, seed=1)
    model = mnist_mlp_scaled(input_dim=16, hidden=16, rng=rng)
    train_classifier(model, data.x_train, data.y_train, Adam(0.005),
                     epochs=5, batch_size=32, rng=rng)
    keys = generate_keys(model, data.x_train, data.y_train,
                         embed_layer=1, wm_bits=8, min_triggers=4, rng=rng)
    keys.trigger_inputs = keys.trigger_inputs[:4]
    report = embed_watermark(
        model, keys, data.x_train, data.y_train,
        config=EmbedConfig(epochs=20, seed=3, lambda_projection=5.0),
    )
    assert report.ber_after == 0.0
    return model, keys
