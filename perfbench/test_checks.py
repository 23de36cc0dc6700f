"""Each benchmark check accepts the simulator's output and rejects a corrupted one.

    python3 -m pytest perfbench -q
"""

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import chain  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from nhsim import accel, cli, codec, presets  # noqa: E402
from nhsim.fxp import QFormat  # noqa: E402
from nhsim.netmodel import FeatureMapTensor, LayerDescriptor  # noqa: E402


def test_requantize_rounds_half_to_even_and_saturates():
    acc = np.array([6, 10, 14, -6, -10, 7, 1 << 30, -(1 << 30)])
    assert checks.requantize(acc, 2).tolist() == [2, 2, 4, -2, -2, 2, 32767, -32768]
    assert checks.requantize(np.array([3, -3]), -2).tolist() == [12, -12]


@pytest.mark.parametrize("pool", [False, True])
def test_sampled_layer_check_rejects_one_wrong_pixel(pool):
    rng = np.random.default_rng(5)
    layer = LayerDescriptor(n_in=5, n_out=7, h=10, w=9, k=3, pad=1, pool=pool,
                            frac_in=8, frac_w=12, frac_out=8, name="l")
    kern = chain.random_kernels(rng, layer)
    x = FeatureMapTensor(rng.integers(0, 256, (5, 10, 9)).astype(np.int16), QFormat(8))
    out = accel.simulate_layer(x, kern, layer).tensor.values
    c, h, w = out.shape
    every = np.array([(i, y, xx) for i in range(c) for y in range(h) for xx in range(w)])
    assert checks.check_sampled_layer(x.values, kern.weights, kern.bias, layer, out, every) == []
    bad = out.copy()
    bad[3, h - 1, 2] += 1
    assert checks.check_sampled_layer(x.values, kern.weights, kern.bias, layer, bad, every)


def test_check_equal_rejects_changed_value_and_shape():
    a = np.arange(12)
    assert checks.check_equal("v", a, a.copy()) == []
    b = a.copy()
    b[7] = -1
    assert checks.check_equal("v", b, a)
    assert checks.check_equal("v", a[:-1], a)


def _face_report(sp=0.5):
    net = presets.network("face_detector")
    x = FeatureMapTensor(np.ones((1, 36, 36), np.int16), QFormat(8))
    return cli.run_network(net, x, synthetic_sparsity=sp, seed=3)[0].as_dict()


def test_layer_stats_check_rejects_impossible_stats():
    doc = _face_report()
    assert checks.check_layer_stats("f", doc["layers"]) == []
    for key, value in (("utilization", 1.01), ("dense_macs", 1), ("mult_ops", 10**12)):
        bad = copy.deepcopy(doc["layers"])
        bad[1][key] = value
        assert checks.check_layer_stats("f", bad), key


def test_report_totals_check_rejects_totals_off_their_layers():
    doc = _face_report()
    assert checks.check_report_totals("f", doc) == []
    for key in ("cycles_total", "bytes_out", "dram_bytes_per_frame", "gop_per_s", "utilization"):
        bad = copy.deepcopy(doc)
        bad["totals"][key] *= 1.5
        assert checks.check_report_totals("f", bad), key


def test_design_point_check():
    assert checks.check_design_points("vgg19", 0.82, {"gop_per_s": 450.0}) == []
    assert checks.check_design_points("vgg19", 0.82, {"gop_per_s": 600.0})
    assert checks.check_design_points("vgg16", 0.82, {"dram_bytes_per_frame": 40 * 2**20}) == []
    assert checks.check_design_points("vgg16", 0.82, {"dram_bytes_per_frame": 60 * 2**20})
    assert checks.check_design_points("vgg19", 0.5, {"gop_per_s": 10.0}) == []


def test_reload_check_flags_reload_without_restreaming():
    mem = accel.HardwareConfig().pixel_mem_bytes
    entry = {"name": "c", "passes": 2, "input_reload": True, "bytes_in": 2 * (mem + 4)}
    assert checks.reload_fault_layers([entry], mem) == []
    assert checks.reload_fault_layers([dict(entry, bytes_in=mem // 2)], mem) == ["c"]
    assert checks.reload_fault_layers([dict(entry, input_reload=False)], mem) == ["c"]
    assert checks.reload_fault_layers([dict(entry, passes=1, bytes_in=1)], mem) == []


def _sparse(rng, shape, sp):
    """Signed 12-bit values, each zero with probability ``sp``."""
    values = rng.integers(1, 1 << 12, size=shape) * rng.choice([-1, 1], size=shape)
    return (values * (rng.random(shape) >= sp)).astype(np.int16)


def test_stream_size_check_rejects_wrong_counts():
    rng = np.random.default_rng(2)
    values = _sparse(rng, (5, 6, 7), 0.6)
    s = codec.encode(FeatureMapTensor(values, QFormat(8)))
    assert checks.check_stream_size("t", values, s.field_count, s.word_count) == []
    assert checks.check_stream_size("t", values, s.field_count + 2, s.word_count + 1)
    assert checks.check_stream_size("t", values, s.field_count, s.word_count + 1)


@pytest.mark.parametrize("sp", [0.0, 0.5, 0.97, 1.0])
def test_rl_bits_counts_the_encoder_pairs(sp):
    rng = np.random.default_rng(int(sp * 100))
    values = _sparse(rng, (3, 20, 17), sp)
    values[:, 9:11, :] = 0  # a zero run longer than 32 pixels
    values[:, -1, :] = 0  # a long trailing zero run
    assert checks.rl_bits(values) == codec.rl_encode(FeatureMapTensor(values, QFormat(8)))[0]


def _build(cls, tmp_path):
    wl = cls(7, str(tmp_path))
    wl.build()
    return wl, {op.name: op for op in wl.ops()}


class SmallCodec(workloads.Codec):
    tensors = ("roshambo.1", "roshambo.3", "face_detector.2")


def test_codec_workload_rejects_corrupted_outputs(tmp_path):
    wl, ops = _build(SmallCodec, tmp_path)
    op = ops["roshambo.conv3"]
    t, s, loaded, back = op.fn()
    assert wl.check(op, (t, s, loaded, back)).errors == []
    flipped = back.values.copy()
    flipped[0, 0, 0] ^= 1
    assert wl.check(op, (t, s, loaded, FeatureMapTensor(flipped, QFormat(8)))).errors
    short = copy.copy(loaded)
    short.field_count -= 1
    assert wl.check(op, (t, s, short, back)).errors

    sweep = ops["compare_codecs"]
    rows = sweep.fn()
    bad = copy.deepcopy(rows)
    bad[4]["rl_bits"] += 21.0
    assert wl.check(sweep, bad).errors
    assert wl.check(sweep, rows).errors == []


def test_verify_workload_rejects_one_wrong_pixel(tmp_path):
    wl, ops = _build(workloads.Verify, tmp_path)
    op = ops["case3"]
    layer, sim, want, got = op.fn()
    assert wl.check(op, (layer, sim, want, got)).errors == []
    wrong = got.values.copy()
    wrong.flat[wrong.size // 2] += 1
    assert wl.check(op, (layer, sim, want, FeatureMapTensor(wrong, QFormat(8)))).errors


class SmallFrame(workloads.Frame):
    networks = ("roshambo", "face_detector")


def test_frame_workload_rejects_a_wrong_network_output(tmp_path):
    wl, ops = _build(SmallFrame, tmp_path)
    op = ops["roshambo"]
    report, vec = op.fn()
    assert wl.check(op, (report, vec)).errors == []
    assert wl.check(op, (report, vec + (np.arange(vec.size) == 5))).errors


def test_whatif_workload_counts_the_reload_fault(tmp_path):
    wl, ops = _build(workloads.WhatIf, tmp_path)
    op = ops["vgg16@0.82"]
    report = op.fn()
    checked = wl.check(op, report)
    assert checked.errors == []
    passes = {e["name"]: e["passes"] for e in report.as_dict()["layers"]}
    assert all(passes[name] > 1 for name in checked.faulted)


def test_measure_counts_raises_and_rejected_outputs_as_failed():
    import run

    class Fake:
        def check(self, op, out):
            if op.name == "wrong":
                return workloads.Checked(["wrong: bad output"])
            return workloads.Checked([], ["l1", "l2"] if op.name == "faulted" else [])

    def boom():
        raise ValueError("no")

    ops = [
        workloads.Op("ok", lambda: 1, 3),
        workloads.Op("faulted", lambda: 1, 5),
        workloads.Op("wrong", lambda: 1, 4),
        workloads.Op("raises", boom, 2),
    ]
    result = run.measure(Fake(), ops, 0.0, None)
    assert result["rounds"] == 1
    assert result["attempted"] == 14
    assert result["failed"] == 2 + 4 + 2
    assert any("raised ValueError" in e for e in result["errors"])
