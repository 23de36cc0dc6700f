import dataclasses
import re

import numpy as np
import pytest

from conftest import random_tensor
from nhsim import codec, presets
from nhsim.accel import HardwareConfig, plan_layer, simulate_layer_stats
from nhsim.cli import run_network
from nhsim.fxp import QFormat
from nhsim.netmodel import FeatureMapTensor, LayerDescriptor, ValidationError

HW = HardwareConfig()


def layer(n_in, n_out, k, h=32, w=32, pad=0, **kw):
    return LayerDescriptor(n_in=n_in, n_out=n_out, k=k, h=h, w=w, pad=pad, **kw)


class TestPassRules:
    def test_one_to_one_mapping(self):
        s = plan_layer(layer(64, 128, 3), HW)
        assert s.n_passes == 1
        assert s.passes[0].chan_count == 128
        assert s.passes[0].cluster_size == 1

    def test_256_outputs_two_passes(self):
        s = plan_layer(layer(64, 256, 3), HW)
        assert s.n_passes == 2
        assert [p.chan_count for p in s.passes] == [128, 128]
        assert [p.chan_start for p in s.passes] == [0, 128]

    def test_uneven_split_is_balanced(self):
        s = plan_layer(layer(8, 200, 3), HW)
        assert s.n_passes == 2
        assert [p.chan_count for p in s.passes] == [100, 100]
        assert all(p.cluster_size == 1 for p in s.passes)

    def test_16_outputs_cluster_of_8(self):
        s = plan_layer(layer(3, 16, 1, h=224, w=224), HW)
        assert s.n_passes == 1
        assert s.passes[0].cluster_size == 8

    def test_kernel_bank_overflow_clusters_in_pairs(self):
        # 512 * 3 * 3 = 4608 values > 4096 per bank
        s = plan_layer(layer(512, 512, 3, h=14, w=14, pad=1), HW)
        assert s.passes[0].bank_group == 2
        assert all(p.chan_count == 64 for p in s.passes)
        assert s.n_passes == 8
        assert all(p.cluster_size == 2 for p in s.passes)
        assert s.values_per_bank <= HW.kernel_bank_values

    def test_cluster_size_rounds_down(self):
        s = plan_layer(layer(3, 5, 3), HW)
        # 128 MACs over 5 channels: 25 cooperate per channel, 3 idle
        assert s.passes[0].cluster_size == 25

    def test_channel_ranges_partition_output(self):
        for n_out in (5, 16, 100, 128, 200, 256, 500, 1024):
            s = plan_layer(layer(16, n_out, 3), HW)
            covered = []
            for p in s.passes:
                covered.extend(range(p.chan_start, p.chan_start + p.chan_count))
            assert covered == list(range(n_out))
            assert all(p.chan_count * p.cluster_size <= HW.macs for p in s.passes)

    def test_deterministic(self):
        l = layer(48, 96, 5)
        assert plan_layer(l, HW) == plan_layer(l, HW)

    def test_huge_footprint_still_schedulable(self):
        # 1024 channels, k=7: 50176 values -> groups of 13 banks
        s = plan_layer(layer(1024, 16, 7, h=16, w=16), HW)
        assert s.passes[0].bank_group == 13
        assert s.values_per_bank <= HW.kernel_bank_values
        assert all(p.chan_count * p.cluster_size <= HW.macs for p in s.passes)


class TestVggShapes:
    def test_all_vgg19_layers_follow_the_rules(self):
        net = presets.network("vgg19")
        for l in net.layers:
            s = plan_layer(l, HW)
            footprint = l.n_in * l.k * l.k
            if footprint > HW.kernel_bank_values:
                assert s.passes[0].bank_group == 2
                assert s.passes[0].chan_count <= 64
            if l.n_out > HW.macs:
                assert s.n_passes >= 2
            else:
                if footprint <= HW.kernel_bank_values:
                    assert s.n_passes == 1
            assert s.values_per_bank <= HW.kernel_bank_values

    # input reload is decided by the stats model from the real stream size

    def _dense_stats(self, rng, l, hw=HW):
        """Stats for a dense input, plus that input's stream size in bytes."""
        t = random_tensor(rng, l.n_in, l.h, l.w, sparsity=0.0)
        out = FeatureMapTensor(np.zeros(l.out_shape, dtype=np.int16), QFormat(8))
        return simulate_layer_stats(t, out, l, hw=hw), 4 * codec.encode(t).word_count

    def test_early_vgg_layers_stream_once_even_when_input_is_big(self, rng):
        net = presets.network("vgg19")
        second = net.layers[1]  # 64x224x224 input, far beyond pixel memory
        s, stream_bytes = self._dense_stats(rng, second)
        # a single-pass layer never needs to re-stream, however big the input
        assert stream_bytes > HW.pixel_mem_bytes
        assert s.passes == 1
        assert s.input_reload is False
        assert s.bytes_in == stream_bytes

    def test_multi_pass_large_input_flags_reload(self, rng):
        s, stream_bytes = self._dense_stats(rng, layer(64, 256, 3, h=224, w=224, pad=1))
        assert s.passes == 2
        assert stream_bytes > HW.pixel_mem_bytes
        assert s.input_reload is True  # every pass streams the input again
        assert s.bytes_in == 2 * stream_bytes

    def test_multi_pass_small_input_no_reload(self, rng):
        s, stream_bytes = self._dense_stats(rng, layer(64, 256, 3, h=14, w=14, pad=1))
        assert s.passes == 2
        assert s.input_reload is False
        assert s.bytes_in == stream_bytes

    def test_reload_threshold_is_the_input_stream_size(self):
        l = layer(64, 256, 3, h=14, w=14, pad=1)
        _, stream_bytes = self._dense_stats(np.random.default_rng(3), l)
        fits, _ = self._dense_stats(
            np.random.default_rng(3), l, HardwareConfig(pixel_mem_bytes=stream_bytes)
        )
        assert fits.input_reload is False
        assert fits.bytes_in == stream_bytes
        over, _ = self._dense_stats(
            np.random.default_rng(3), l, HardwareConfig(pixel_mem_bytes=stream_bytes - 1)
        )
        assert over.input_reload is True
        assert over.bytes_in == 2 * stream_bytes

    @pytest.mark.parametrize("name", ["vgg16", "vgg19"])
    def test_synthetic_reload_flag_matches_traffic(self, rng, name):
        net = presets.network(name)
        first = net.layers[0]
        x = FeatureMapTensor(
            rng.integers(1, 256, size=(first.n_in, first.h, first.w), dtype=np.int16),
            QFormat(first.frac_in),
        )
        report, _ = run_network(net, x, synthetic_sparsity=0.82, seed=5)
        multi = [e for e in report.layers if e["passes"] > 1]
        assert multi
        for e in multi:
            assert e["input_reload"] == (e["bytes_in"] > HW.pixel_mem_bytes), e["name"]


def test_hardware_fields_are_exactly_the_model_knobs():
    names = [f.name for f in dataclasses.fields(HardwareConfig)]
    assert names == ["macs", "pixel_mem_bytes", "kernel_bank_values", "clock_hz"]


@pytest.mark.parametrize("field", ["macs", "pixel_mem_bytes", "kernel_bank_values", "clock_hz"])
@pytest.mark.parametrize("value", [0, -8, float("nan"), float("inf")])
def test_hardware_fields_must_be_positive_and_finite(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be positive and finite"):
        HardwareConfig(**{field: value})


@pytest.mark.parametrize("field", ["macs", "pixel_mem_bytes", "kernel_bank_values"])
@pytest.mark.parametrize("value", [100.5, 4096.0])
def test_hardware_counts_must_be_integers(field, value):
    message = f"{field} must be an integer, got {value}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        HardwareConfig(**{field: value})
    # the positive-and-finite rule is checked first
    with pytest.raises(ValidationError, match=f"{field} must be positive and finite"):
        HardwareConfig(**{field: -value})


def test_hardware_counts_take_numpy_integers():
    # stored as Python ints: an unsigned count would overflow the planner's
    # ceiling divisions, and reports must stay plain JSON
    given = HardwareConfig(
        macs=np.int64(64), kernel_bank_values=np.uint16(1024), clock_hz=250.5e6
    )
    assert type(given.macs) is int and type(given.kernel_bank_values) is int
    plain = HardwareConfig(macs=64, kernel_bank_values=1024, clock_hz=250.5e6)
    assert plan_layer(layer(16, 16, 3), given) == plan_layer(layer(16, 16, 3), plain)
