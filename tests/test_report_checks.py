"""Synthetic reports against the benchmark's own checks: every preset, and
random layers on random hardware points.

``perfbench/checks.py`` writes the report rules from the README without
calling nhsim; it is loaded from there, not copied, so the two suites
share one source.
"""

import importlib.util
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tensor, stats_cases
from nhsim import presets
from nhsim.cli import run_network
from nhsim.netmodel import LayerDescriptor, NetworkDescriptor

_CHECKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "checks.py"
)
_spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


@pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.82, 0.95, 1.0])
@pytest.mark.parametrize("name", presets.preset_names())
def test_preset_report_passes_benchmark_checks(name, sparsity):
    net = presets.network(name)
    first = net.layers[0]
    x = random_tensor(np.random.default_rng(1), first.n_in, first.h, first.w)
    report, _ = run_network(net, x, synthetic_sparsity=sparsity, seed=2)
    doc = report.as_dict()
    where = f"{name}@{sparsity}"
    assert checks.check_report_totals(where, doc) == []
    assert checks.check_layer_stats(where, doc["layers"]) == []
    # each layer writes what the next one reads: a layer that reloads its
    # input streams it once per pass; the rest of the gap is per-pass word
    # and segment rounding of the writer.  Only encoded presets: a raw
    # output is read as an encoded stream.
    for writer, reader in zip(report.layers, report.layers[1:]):
        streams = reader["passes"] if reader["input_reload"] else 1
        assert writer["bytes_out"] * streams >= reader["bytes_in"], (
            f"{where}: {writer['name']} writes {writer['bytes_out']} bytes, "
            f"{reader['name']} reads {reader['bytes_in']} in {streams} streams"
        )


@settings(max_examples=100, deadline=None)
@given(case=stats_cases(), sparsity=st.sampled_from([0.0, 0.5, 0.82, 1.0]))
def test_random_layers_pass_benchmark_checks(case, sparsity):
    # the random layer, then a 1x1 layer reading its output, so the totals
    # sum two layers; the HardwareConfig varies MACs, pixel memory and banks
    layer, hw, rng = case
    c, h, w = layer.out_shape
    tail = LayerDescriptor(n_in=c, n_out=int(rng.integers(1, 64)), h=h, w=w, k=1)
    net = NetworkDescriptor([layer, tail], name="random")
    x = random_tensor(rng, layer.n_in, layer.h, layer.w, frac=layer.frac_in)
    report, _ = run_network(net, x, hw=hw, synthetic_sparsity=sparsity, seed=3)
    doc = report.as_dict()
    where = f"{hw}@{sparsity}"
    assert checks.check_report_totals(where, doc) == []
    assert checks.check_layer_stats(where, doc["layers"]) == []
    assert checks.reload_fault_layers(doc["layers"], hw.pixel_mem_bytes) == []
