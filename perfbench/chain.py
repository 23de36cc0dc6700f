"""Real-weight networks and their layer chains, run in a child process.

    python3 perfbench/chain.py inputs --seed N --out DIR vgg16.3 giga1net.2 ...
    python3 perfbench/chain.py check --seed N --out DIR NETWORK

Both commands build a preset's real-weight network from the seed with
:func:`real_weight_network`, the same network the frame workload writes to
its ``.nht``/``.nhw`` files, and run it layer by layer.

``inputs`` saves the input of each listed layer (``preset.layer``, 1-based)
as ``DIR/preset.layer.nht``: the codec workload's tensors are these
measured layer outputs.  ``check`` runs the whole network as a chain made
apart from ``cli.run_network`` (see :func:`checked_chain`) and saves its
output in stream order as ``DIR/NETWORK.expected.npy``.  The last line of
standard output is a JSON object: for ``inputs`` each saved tensor's zero
fraction and mean zero-run length, for ``check`` the chain's check errors
and each layer's output zero fraction.

The chains run in a child so that their arrays (every layer's weights, the
int64 copies of the sampled check) stay out of the peak resident memory of
the benchmark process.  Run with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import zlib

import numpy as np

import checks
from nhsim import accel, netmodel, presets, refmodel
from nhsim.fxp import QFormat
from nhsim.netmodel import FeatureMapTensor, KernelSet, LayerDescriptor

FRAME_FRAC_W = 12
FRAME_SAMPLES = 64


def random_kernels(rng: np.random.Generator, layer: LayerDescriptor) -> KernelSet:
    """He-scaled normal weights, centred per filter, and small biases, quantized.

    Weights have standard deviation sqrt(2 / fan_in) in real terms, which
    keeps activation magnitudes steady through ReLU layers.  Each filter's
    weights are shifted to sum to zero, so a channel's zero fraction does
    not hinge on the sign of its weight sum over non-negative inputs, and
    the layer's sparsity varies little from seed to seed.  Biases lie in
    [-1/8, 1/8).
    """
    fan_in = layer.n_in * layer.k * layer.k
    w = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(layer.n_out, layer.n_in, layer.k, layer.k))
    w -= w.mean(axis=(1, 2, 3), keepdims=True)
    w = np.clip(np.rint(w * (1 << layer.frac_w)), -(1 << 15), (1 << 15) - 1).astype(np.int16)
    half = 1 << (layer.frac_in + layer.frac_w - 3)
    b = rng.integers(-half, half, size=layer.n_out).astype(np.int32)
    return KernelSet(w, b, QFormat(layer.frac_w))


def real_weight_network(seed: int, name: str, depth: int | None = None):
    """A preset with seeded random weights and input: (layers, kernels, x).

    Each network draws from its own generator, so a network's weights do
    not depend on which other networks a workload builds.  Layers weigh in
    at ``FRAME_FRAC_W`` fraction bits and name their ``.nhw`` files.  The
    input is drawn first, so with ``depth`` (only the first ``depth``
    layers) the input and those layers' weights are the same as without.
    """
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    net = presets.network(name)
    first = net.layers[0]
    x = FeatureMapTensor(
        rng.integers(0, 256, size=(first.n_in, first.h, first.w), dtype=np.int16),
        QFormat(first.frac_in),
    )
    layers, kernels = [], []
    for layer in net.layers[:depth]:
        layer = dataclasses.replace(
            layer, frac_w=FRAME_FRAC_W, weights_path=f"{name}_{layer.name}.nhw"
        )
        layers.append(layer)
        kernels.append(random_kernels(rng, layer))
    return layers, kernels, x


def zero_fraction(values: np.ndarray) -> float:
    return float(np.mean(values == 0))


def mean_zero_run(values: np.ndarray) -> float:
    """Mean length of the runs of zeros in stream order (0 if none)."""
    z = np.concatenate([[0], checks.stream_order(values) == 0, [0]]).astype(np.int8)
    edges = np.diff(z)
    runs = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
    return float(runs.mean()) if len(runs) else 0.0


def save_inputs(seed: int, out: str, wanted: list[str]) -> list[dict]:
    """Save the input of each ``preset.layer`` in ``wanted``; report each."""
    by_net: dict[str, set[int]] = {}
    for item in wanted:
        name, idx = item.rsplit(".", 1)
        by_net.setdefault(name, set()).add(int(idx))
    facts = []
    for name, idxs in by_net.items():
        layers, kernels, cur = real_weight_network(seed, name, depth=max(idxs) - 1)
        for idx in range(1, max(idxs) + 1):
            if idx in idxs:
                netmodel.save_tensor(cur, os.path.join(out, f"{name}.{idx}.nht"))
                facts.append({
                    "tensor": f"{name}.{idx}",
                    "zero_fraction": zero_fraction(cur.values),
                    "mean_zero_run": mean_zero_run(cur.values),
                })
            if idx <= len(layers):
                layer = dataclasses.replace(layers[idx - 1], encode=False)
                cur = accel.simulate_layer(cur, kernels[idx - 1], layer).tensor
    return facts


def checked_chain(seed: int, name: str) -> tuple[np.ndarray, list[str], list[float]]:
    """The network output from a layer chain made apart from run_network.

    giga1net runs the dense oracle layer by layer.  Larger networks are too
    slow for the oracle (VGG16 takes about 30 s a frame), so each layer's
    pipeline output is recomputed at sampled pixels in integer code, from
    the same layer input, and the chain's end is the reference.  Returns
    the output in stream order, the check errors and each layer's output
    zero fraction.
    """
    layers, kernels, cur = real_weight_network(seed, name)
    sample_rng = np.random.default_rng([seed, 1])
    errors: list[str] = []
    sparsity = []
    for layer, kern in zip(layers, kernels):
        if name == "giga1net":
            nxt = refmodel.layer_forward(cur, layer, kern)
        else:
            nxt = accel.simulate_layer(cur, kern, layer).tensor
            pos = checks.sample_positions(sample_rng, layer.out_shape, FRAME_SAMPLES)
            errors += checks.check_sampled_layer(
                cur.values, kern.weights, kern.bias, layer, nxt.values, pos
            )
        sparsity.append(zero_fraction(nxt.values))
        cur = nxt
    return checks.stream_order(cur.values).astype(np.int64), errors, sparsity


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description="real-weight layer chains")
    p.add_argument("command", choices=("inputs", "check"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("items", nargs="+")
    args = p.parse_args(argv)
    if args.command == "inputs":
        doc = {"tensors": save_inputs(args.seed, args.out, args.items)}
    else:
        (name,) = args.items
        want, errors, sparsity = checked_chain(args.seed, name)
        np.save(os.path.join(args.out, f"{name}.expected.npy"), want)
        doc = {"errors": errors, "sparsity": sparsity}
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
