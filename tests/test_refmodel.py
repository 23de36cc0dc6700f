import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    naive_layer_forward,
    random_kernels,
    random_tensor,
    reference_conv2d,
    relu16,
    requantize,
    saturate32,
)
from nhsim import refmodel
from nhsim.fxp import I16_MAX, I16_MIN, I32_MAX, I32_MIN, QFormat
from nhsim.netmodel import (
    MAX_CHANNELS,
    MAX_KERNEL,
    FeatureMapTensor,
    KernelSet,
    LayerDescriptor,
    ValidationError,
)


def test_float64_accumulation_bound():
    # the oracle and the pipeline sum int16 x int16 products in float64, and
    # the oracle starts each sum from its int32 bias; the sums stay exact
    # integers only while the largest one fits in 53 bits
    assert MAX_CHANNELS * MAX_KERNEL**2 * 2**30 + 2**31 < 2**53


def _extreme_draw(rng, shape, lo, hi, edges):
    """Uniform values in [lo, hi] with about half of them from ``edges``."""
    vals = rng.integers(lo, hi, size=shape, endpoint=True)
    picks = rng.choice(np.array(edges, dtype=np.int64), size=shape)
    return np.where(rng.random(shape) < 0.5, picks, vals)


@st.composite
def conv_cases(draw):
    k = draw(st.integers(1, 7))
    pad = draw(st.integers(0, 3))
    min_hw = max(1, k - 2 * pad)
    h = draw(st.integers(min_hw, min_hw + 4))
    w = draw(st.integers(min_hw, min_hw + 4))
    n_in = draw(st.integers(1, 300))
    n_out = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _extreme_draw(rng, (n_in, h, w), I16_MIN, I16_MAX, [I16_MIN, I16_MAX, 0, -1, 1])
    wt = _extreme_draw(rng, (n_out, n_in, k, k), I16_MIN, I16_MAX, [I16_MIN, I16_MAX, 0])
    b = _extreme_draw(rng, n_out, I32_MIN, I32_MAX, [I32_MIN, I32_MAX, 0])
    t = FeatureMapTensor(x.astype(np.int16), QFormat(8))
    kern = KernelSet(wt.astype(np.int16), b.astype(np.int32), QFormat(8))
    return t, kern, pad


class TestConv2d:
    def test_identity_kernel_shifts_into_accumulator_format(self, rng):
        t = random_tensor(rng, 3, 6, 6, sparsity=0.3, frac=8)
        w = np.zeros((3, 3, 1, 1), dtype=np.int16)
        for j in range(3):
            w[j, j, 0, 0] = 1 << 8  # 1.0 at frac 8
        kern = KernelSet(w, np.zeros(3, dtype=np.int32), QFormat(8))
        acc = refmodel.conv2d(t, kern, pad=0)
        assert np.array_equal(acc, t.values.astype(np.int64) << 8)

    def test_zero_input_leaves_bias(self, rng):
        t = FeatureMapTensor(np.zeros((2, 5, 5), dtype=np.int16), QFormat(8))
        bias = np.array([17, -4], dtype=np.int32)
        kern = KernelSet(
            rng.integers(-50, 50, size=(2, 2, 3, 3)).astype(np.int16), bias, QFormat(8)
        )
        acc = refmodel.conv2d(t, kern, pad=1)
        for j in range(2):
            assert np.all(acc[j] == bias[j])

    def test_box_kernel_of_ones(self):
        t = FeatureMapTensor(np.ones((1, 3, 3), dtype=np.int16), QFormat(8))
        kern = KernelSet(
            np.ones((1, 1, 3, 3), dtype=np.int16),
            np.array([5], dtype=np.int32),
            QFormat(8),
        )
        acc = refmodel.conv2d(t, kern, pad=0)
        assert acc.shape == (1, 1, 1)
        assert acc[0, 0, 0] == 9 + 5

    @settings(max_examples=60, deadline=None)
    @given(conv_cases())
    def test_equals_int64_reference(self, case):
        t, kern, pad = case
        got = refmodel.conv2d(t, kern, pad)
        want = reference_conv2d(t, kern, pad)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_clamp_engages_at_int16_extremes(self):
        # 300 * 49 products of 2**30 overflow 32 bits either way
        t = FeatureMapTensor(np.full((300, 7, 7), I16_MIN, dtype=np.int16), QFormat(8))
        w = np.full((2, 300, 7, 7), I16_MIN, dtype=np.int16)
        w[1] = I16_MAX
        kern = KernelSet(w, np.array([I32_MAX, I32_MIN], dtype=np.int32), QFormat(8))
        acc = refmodel.conv2d(t, kern, pad=0)
        assert acc[:, 0, 0].tolist() == [I32_MAX, I32_MIN]
        assert np.array_equal(acc, reference_conv2d(t, kern, 0))

    @pytest.mark.parametrize("bias", [I32_MIN, I32_MAX])
    def test_largest_layer_at_int16_extremes_is_exact(self, bias):
        # one output pixel of a 1,024-channel 7x7 layer.  Output 0 sums
        # 50,175 products of +2**30 and one of -(2**30 - 2**15).  Output 1
        # takes +2**30 from the first half of the channels and -(2**30 -
        # 2**15) from the second, but 32767**2 (odd) from the last channel's
        # last tap: its partial sums pass 2**44, yet with an I32_MIN bias
        # its total is in the 32-bit range and needs every bit.
        c, k = MAX_CHANNELS, MAX_KERNEL
        x = np.full((c, k, k), I16_MIN, dtype=np.int16)
        x[-1, -1, -1] = I16_MAX
        w = np.full((2, c, k, k), I16_MIN, dtype=np.int16)
        w[1, c // 2 :] = I16_MAX
        t = FeatureMapTensor(x, QFormat(8))
        kern = KernelSet(w, np.full(2, bias, dtype=np.int32), QFormat(8))
        acc = refmodel.conv2d(t, kern, pad=0)
        mixed = 2**31 + (c // 2 * k * k - 1) * 2**15 - 2**16 + 1 + bias
        assert acc[:, 0, 0].tolist() == [I32_MAX, min(mixed, I32_MAX)]
        assert np.array_equal(acc, reference_conv2d(t, kern, 0))

    def test_channel_mismatch(self, rng):
        t = random_tensor(rng, 2, 4, 4)
        kern = random_kernels(rng, 3, 3, 3)
        with pytest.raises(ValidationError):
            refmodel.conv2d(t, kern)


def naive_maxpool(m):
    """Per-window 2x2 max over the even rows and columns."""
    c, h, w = m.shape
    out = np.empty((c, h // 2, w // 2), dtype=m.dtype)
    for j in range(c):
        for y in range(h // 2):
            for x in range(w // 2):
                window = [m[j, 2 * y + dy, 2 * x + dx] for dy in (0, 1) for dx in (0, 1)]
                out[j, y, x] = max(int(v) for v in window)
    return out


class TestPoolRelu:
    @settings(max_examples=100, deadline=None)
    @given(dtype=st.sampled_from([np.int16, np.int64]), c=st.integers(1, 4),
           h=st.integers(2, 9), w=st.integers(2, 9), transposed=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_per_window_loop(self, dtype, c, h, w, transposed, seed):
        info = np.iinfo(dtype)
        m = np.random.default_rng(seed).integers(
            info.min, info.max, size=(c, h, w), dtype=dtype, endpoint=True
        )
        if transposed:
            # the same map as a non-contiguous view of its transpose
            m = np.ascontiguousarray(m.transpose(0, 2, 1)).transpose(0, 2, 1)
            assert not m.flags.c_contiguous
        got = refmodel.maxpool2x2(m)
        assert got.dtype == dtype
        assert np.array_equal(got, naive_maxpool(m))

    def test_constant_map_halves(self):
        m = np.full((2, 6, 6), 42, dtype=np.int64)
        out = refmodel.maxpool2x2(m)
        assert out.shape == (2, 3, 3)
        assert np.all(out == 42)

    def test_window_max(self):
        m = np.array([[[1, 5], [3, 2]]], dtype=np.int64)
        assert refmodel.maxpool2x2(m)[0, 0, 0] == 5

    def test_odd_dims_drop_trailing(self):
        m = np.arange(9, dtype=np.int64).reshape(1, 3, 3)
        out = refmodel.maxpool2x2(m)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 4  # max of the top-left 2x2 block

    def test_relu_then_pool_equals_pool_then_relu(self, rng):
        m = rng.integers(-1000, 1000, size=(3, 8, 10)).astype(np.int64)
        a = refmodel.maxpool2x2(refmodel.apply_relu(m))
        b = refmodel.apply_relu(refmodel.maxpool2x2(m))
        assert np.array_equal(a, b)


class TestLayerForward:
    def test_first_layer_shape_from_reference_table(self, rng):
        # 1 -> 16 maps, k=5, 64x64 input, pooled: 16 x 30 x 30 out
        layer = LayerDescriptor(n_in=1, n_out=16, h=64, w=64, k=5, pad=0, pool=True)
        t = random_tensor(rng, 1, 64, 64)
        kern = random_kernels(rng, 16, 1, 5)
        out = refmodel.layer_forward(t, layer, kern)
        assert out.values.shape == (16, 30, 30)

    def test_unpooled_dims(self, rng):
        layer = LayerDescriptor(n_in=2, n_out=3, h=9, w=11, k=3, pad=1, pool=False)
        t = random_tensor(rng, 2, 9, 11)
        out = refmodel.layer_forward(t, layer, random_kernels(rng, 3, 2, 3))
        assert out.values.shape == (3, 9, 11)

    @pytest.mark.parametrize("pad", [0, 1, 2, 3])
    @pytest.mark.parametrize("pool", [False, True])
    def test_dims_obey_descriptor(self, rng, pad, pool):
        layer = LayerDescriptor(n_in=1, n_out=2, h=10, w=10, k=3, pad=pad, pool=pool)
        t = random_tensor(rng, 1, 10, 10)
        out = refmodel.layer_forward(t, layer, random_kernels(rng, 2, 1, 3))
        assert out.values.shape == layer.out_shape

    def test_matches_naive_quadruple_loop(self, rng):
        for trial in range(12):
            k = int(rng.choice([1, 2, 3]))
            layer = LayerDescriptor(
                n_in=int(rng.integers(1, 4)),
                n_out=int(rng.integers(1, 5)),
                h=int(rng.integers(k, 9)),
                w=int(rng.integers(k, 9)),
                k=k,
                pad=int(rng.integers(0, 3)),
                relu=bool(rng.integers(0, 2)),
                pool=False,
                frac_in=8,
                frac_w=9,
                frac_out=7,
            )
            if layer.conv_h >= 2 and layer.conv_w >= 2:
                layer.pool = bool(rng.integers(0, 2))
            t = random_tensor(rng, layer.n_in, layer.h, layer.w, sparsity=0.4)
            kern = random_kernels(rng, layer.n_out, layer.n_in, k)
            got = refmodel.layer_forward(t, layer, kern)
            want = naive_layer_forward(t, layer, kern)
            assert np.array_equal(got.values, want), f"trial {trial}: {layer}"

    def test_saturating_inputs_match_naive(self, rng):
        layer = LayerDescriptor(
            n_in=4, n_out=3, h=6, w=6, k=3, pad=1, relu=False, pool=False
        )
        t = random_tensor(rng, 4, 6, 6, sparsity=0.0, lo=-32768, hi=32767)
        kern = random_kernels(rng, 3, 4, 3, wmax=32767, bmax=1 << 31)
        got = refmodel.layer_forward(t, layer, kern)
        want = naive_layer_forward(t, layer, kern)
        assert np.array_equal(got.values, want)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("pool", [False, True])
    def test_int16_out_and_input_untouched(self, rng, relu, pool):
        layer = LayerDescriptor(n_in=3, n_out=4, h=7, w=6, k=3, pad=1, relu=relu, pool=pool)
        t = random_tensor(rng, 3, 7, 6)
        before = t.values.copy()
        t.values.setflags(write=False)  # a write into the input raises
        kern = random_kernels(rng, 4, 3, 3)
        out = refmodel.layer_forward(t, layer, kern)
        assert out.values.dtype == np.int16
        assert np.array_equal(t.values, before)
        assert np.array_equal(out.values, naive_layer_forward(t, layer, kern))

    def test_input_shape_mismatch(self, rng):
        layer = LayerDescriptor(n_in=2, n_out=2, h=8, w=8, k=3)
        t = random_tensor(rng, 2, 7, 8)
        with pytest.raises(ValidationError):
            refmodel.layer_forward(t, layer, random_kernels(rng, 2, 2, 3))


class TestDenseForward:
    def test_identity(self):
        vec = np.array([5, -3, 100], dtype=np.int64)
        w = np.eye(3, dtype=np.int64)
        out = refmodel.dense_forward(vec, w, np.zeros(3), 0, 0, relu=False)
        assert out.tolist() == [5, -3, 100]

    def test_zero_matrix_gives_requantized_bias(self):
        bias = np.array([512, -512], dtype=np.int64)
        out = refmodel.dense_forward(
            np.ones(4, dtype=np.int64), np.zeros((2, 4)), bias, 9, 8, relu=False
        )
        assert out.tolist() == [256, -256]

    def test_random_case_vs_scalar_reference(self, rng):
        vec = rng.integers(-100, 100, size=3)
        w = rng.integers(-100, 100, size=(4, 3))
        bias = rng.integers(-1000, 1000, size=4)
        out = refmodel.dense_forward(vec, w, bias, 10, 8, relu=True)
        for j in range(4):
            acc = int(bias[j]) + sum(int(w[j][i]) * int(vec[i]) for i in range(3))
            want = relu16(requantize(saturate32(acc), 10, QFormat(8)))
            assert out[j] == want

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            refmodel.dense_forward(np.ones(3), np.zeros((2, 4)), np.zeros(2), 8, 8)
