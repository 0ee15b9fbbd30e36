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
def ownership_setup(watermarked_mlp):
    """Extraction circuit + Groth16 keypair for the watermarked MLP."""
    from repro.circuit import FixedPointFormat
    from repro.snark import setup
    from repro.zkrownn import CircuitConfig, build_extraction_circuit

    model, keys, _ = watermarked_mlp
    config = CircuitConfig(
        theta=0.0, fixed_point=FixedPointFormat(frac_bits=14, total_bits=40)
    )
    circuit = build_extraction_circuit(model, keys, config)
    keypair = setup(circuit.constraint_system, seed=7)
    return config, circuit, keypair


# The small-claim shape's session engine lives with the shape itself.
from shapes import small_claim_engine  # noqa: E402,F401
