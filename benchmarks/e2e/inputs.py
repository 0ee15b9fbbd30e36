"""Seeded inputs: the program under test only ever sees what is made here.

``--seed`` drives model weights, watermark keys, the Groth16 setup seed and
every proof's blinding seed.  Keys are random with ``theta = 1.0`` as in
``repro.bench.table1``: the workloads measure the protocol, not training
or embedding, and at theta 1 every claim is valid, so no operation fails.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.bench.table1 import BENCH_FORMAT, SCALES
from repro.nn import mnist_mlp_scaled
from repro.watermark.keys import WatermarkKeys
from repro.zkrownn import CircuitConfig

#: The MNIST-MLP extraction shape of the three keyed workloads: 4,683
#: constraints, QAP domain 8,192, 138 public inputs.
SCALE = SCALES["tiny"]
CONFIG = CircuitConfig(theta=1.0, fixed_point=BENCH_FORMAT)
EMBED_LAYER = 1


def subseed(seed: int, *tags) -> int:
    """A 31-bit seed derived from the run seed and a purpose tag."""
    text = ":".join(str(part) for part in (seed, *tags))
    value = int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")
    return (value >> 1) | (1 << 30)  # top bit set: always four bytes on the wire


def model(seed: int, *tags):
    rng = np.random.default_rng(subseed(seed, "model", *tags))
    return mnist_mlp_scaled(
        input_dim=SCALE.mlp_input, hidden=SCALE.mlp_hidden, rng=rng
    )


def watermark_keys(seed: int, *tags) -> WatermarkKeys:
    rng = np.random.default_rng(subseed(seed, "keys", *tags))
    triggers = rng.uniform(0, 1, (SCALE.mlp_triggers, SCALE.mlp_input))
    # The activation width at the embedding layer fixes the projection.
    probe = model(seed, "probe").forward_to(triggers[:1], EMBED_LAYER)
    feature_dim = int(np.prod(probe.shape[1:]))
    return WatermarkKeys(
        embed_layer=EMBED_LAYER,
        target_class=0,
        trigger_inputs=triggers,
        projection=rng.standard_normal((feature_dim, SCALE.wm_bits)),
        signature=rng.integers(0, 2, SCALE.wm_bits).astype(np.int64),
    )
