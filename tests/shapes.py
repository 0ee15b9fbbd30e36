"""The smallest real ownership claim, shared by the service tests.

Lifecycle tests (restart, failover, revocation, quarantine) need a claim
that passes through every gadget of the extraction circuit -- dense,
ReLU, averaging, sigmoid, hard threshold, BER -- but what they check is
the service, not the prover.  :func:`small_claim` is that claim at 1.4k
constraints: untrained weights and random keys, valid because
``theta = 1`` accepts any bit error rate.  A setup takes ~1.5 s and a
proof ~0.5 s, where the trained MLP of ``watermarked_mlp`` costs tens of
seconds per test.  The MLP shape stays covered by the benchmark's
workloads and the engine/protocol tests.

``small_claim_engine`` holds the shape's compiled circuit and keypair for
the whole session: a test that needs the expected bytes of an
uninterrupted run (or a warm engine to inject) pays the setup once.
"""

import numpy as np
import pytest

from repro.nn.layers import Dense, ReLU, Sigmoid
from repro.nn.model import Sequential
from repro.watermark import WatermarkKeys
from repro.zkrownn import CircuitConfig

# The setup seed every small-claim test submits with, so keys set up by a
# service and by the session engine are the same keys.
SMALL_SETUP_SEED = 99


def small_claim():
    """``(model, keys, config)`` of a claim that proves in under a second."""
    rng = np.random.default_rng(7)
    model = Sequential(
        [Dense(4, 3, rng=rng), ReLU(), Dense(3, 4, rng=rng), Sigmoid()],
        name="small-mlp",
    )
    keys = WatermarkKeys(
        embed_layer=1,
        target_class=2,
        trigger_inputs=rng.normal(size=(1, 4)),
        projection=rng.normal(size=(3, 2)),
        signature=(rng.random(2) < 0.5).astype(np.int64),
    )
    return model, keys, CircuitConfig(theta=1.0)


def direct_proof_bytes(engine, seed):
    """The proof an uninterrupted in-process run gives the small claim."""
    from repro.zkrownn import extraction_structure_key, extraction_synthesizer

    model, keys, config = small_claim()
    return engine.prove_job(
        extraction_structure_key(model, keys, config),
        extraction_synthesizer(model, keys, config),
        seed=seed,
        setup_seed=SMALL_SETUP_SEED,
    ).proof.to_bytes()


@pytest.fixture(scope="session")
def small_claim_engine():
    """A serial engine with the small claim compiled and set up.

    Shared by every test that asks for it: inject it where the test makes
    no assertion on engine counters.
    """
    from repro.engine import ProvingEngine
    from repro.parallel import SerialBackend

    engine = ProvingEngine(backend=SerialBackend())
    direct_proof_bytes(engine, seed=0)
    return engine
