"""Shared fixtures and hypothesis configuration.

Expensive cryptographic artifacts (Groth16 keypairs, trained watermarked
models) are session-scoped: the pure-Python pairing stack makes per-test
setup prohibitive, and reuse also exercises the paper's amortization story
(one setup, many proofs).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI's chaos job (``--hypothesis-profile=chaos``): more and longer runs
# of the service state machines.
settings.register_profile(
    "chaos",
    parent=settings.get_profile("repro"),
    max_examples=150,
    stateful_step_count=80,
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def nprng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(params=["native", "python"])
def g1_msm_path(request):
    """Run the test once on each G1 MSM path: the compiled kernel (skipped
    where none can be built) and the pure-Python pipeline."""
    from repro.curves import native

    pure = request.param == "python"
    if not pure and native.g1_kernel() is None:
        pytest.skip(f"no native G1 MSM here: {native.status()['reason']}")
    with native.pin_pure(pure):
        yield request.param


# ----------------------------------------------------------- snark fixtures --


def _cubic_circuit(x_value: int):
    """x^3 + x + 5 = y with private x: the canonical tiny R1CS."""
    from repro.snark import ConstraintSystem, LinearCombination as LC

    cs = ConstraintSystem()
    y = cs.allocate_public("y")
    x = cs.allocate_private("x")
    x2 = cs.allocate_private("x2")
    x3 = cs.allocate_private("x3")
    cs.enforce(LC.variable(x), LC.variable(x), LC.variable(x2))
    cs.enforce(LC.variable(x2), LC.variable(x), LC.variable(x3))
    cs.enforce(
        LC.variable(x3) + LC.variable(x) + LC.constant(5),
        LC.constant(1),
        LC.variable(y),
    )
    assignment = [1, x_value**3 + x_value + 5, x_value, x_value**2, x_value**3]
    return cs, assignment


@pytest.fixture(scope="session")
def cubic_circuit():
    return _cubic_circuit(3)


@pytest.fixture(scope="session")
def cubic_keypair(cubic_circuit):
    from repro.snark import setup

    cs, _ = cubic_circuit
    return setup(cs, seed=42)


# ------------------------------------------------------- watermark fixtures --


@pytest.fixture(scope="session")
def watermarked_mlp():
    """A trained, watermarked scaled MLP with its keys and data.

    BER 0 after embedding; shared by watermark, zkrownn, and integration
    tests.  Treat as read-only; copy before mutating.
    """
    from repro.datasets import mnist_like
    from repro.nn import Adam, mnist_mlp_scaled, train_classifier
    from repro.watermark import EmbedConfig, embed_watermark, generate_keys

    np_rng = np.random.default_rng(0)
    data = mnist_like(600, 150, image_size=4, seed=1)
    model = mnist_mlp_scaled(input_dim=16, hidden=16, rng=np_rng)
    train_classifier(
        model, data.x_train, data.y_train, Adam(0.005),
        epochs=5, batch_size=32, rng=np_rng,
    )
    keys = generate_keys(
        model, data.x_train, data.y_train,
        embed_layer=1, wm_bits=8, min_triggers=4, rng=np_rng,
    )
    keys.trigger_inputs = keys.trigger_inputs[:4]
    report = embed_watermark(
        model, keys, data.x_train, data.y_train,
        config=EmbedConfig(epochs=20, seed=3, lambda_projection=5.0),
    )
    assert report.ber_after == 0.0, "fixture embedding must converge"
    return model, keys, data


@pytest.fixture(scope="session")
def ownership_setup():
    """Extraction circuit + Groth16 keypair for ``shapes.small_claim()``:
    the protocol tests check the claim plumbing, not the MLP's prover."""
    from repro.snark import setup
    from repro.zkrownn import build_extraction_circuit
    from shapes import small_claim

    model, keys, config = small_claim()
    circuit = build_extraction_circuit(model, keys, config)
    keypair = setup(circuit.constraint_system, seed=7)
    return config, circuit, keypair


@pytest.fixture
def fresh_metrics(monkeypatch):
    """An empty process metrics registry for one test; the previous one is
    restored afterwards."""
    from repro.obs import metrics

    registry = metrics.MetricsRegistry()
    monkeypatch.setattr(metrics, "_REGISTRY", registry)
    return registry


# The small-claim shape's session engine lives with the shape itself.
from shapes import small_claim_engine  # noqa: E402,F401
