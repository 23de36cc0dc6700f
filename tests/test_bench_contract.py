"""The benchmark's tracer against nhsim: the attributes it wraps still
exist and are called, its stage times see the calls, and ``restore()``
puts every attribute back.

``perfbench/tracing.py`` is loaded from there, not copied, so a change to
nhsim that the tracer cannot follow fails here rather than in a
benchmark run.
"""

import importlib.util
import os
import sys

import numpy as np

from conftest import random_kernels, random_tensor
from nhsim import accel, cli, codec, presets
from nhsim.netmodel import LayerDescriptor

_TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = tracing  # its dataclasses look their module up here
_spec.loader.exec_module(tracing)


def test_tracer_times_stages_and_restores_nhsim():
    originals = {(module, attr): getattr(module, attr) for module, attr, _ in tracing.TRACED}
    rng = np.random.default_rng(4)
    net = presets.network("face_detector")
    first = net.layers[0]
    x = random_tensor(rng, first.n_in, first.h, first.w, frac=first.frac_in)
    layer = LayerDescriptor(n_in=2, n_out=3, h=8, w=8, k=3, pad=1)
    small = random_tensor(rng, 2, 8, 8)
    kern = random_kernels(rng, 3, 2, 3, frac=layer.frac_w)
    tracer = tracing.Tracer()
    try:
        for (module, attr), fn in originals.items():
            assert getattr(module, attr) is not fn, attr
        tracer.recording = True
        cli.run_network(net, x, synthetic_sparsity=0.5, seed=1)
        accel.simulate_layer(small, kern, layer)
        codec.rl_encode(small)
        tracer.recording = False
        tracer.probe_stats()
        metrics = tracer.per_layer_metrics(1)
    finally:
        tracer.restore()
    assert metrics["accel.stats_s"][0] > 0
    assert metrics["codec.rl_encode_s"][0] > 0
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn, attr
