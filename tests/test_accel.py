import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    decode_stripe,
    expand_trace,
    random_kernels,
    random_tensor,
    reference_trace,
    stats_cases,
    stream_order_iter,
    weight_ops_for_pixel,
)
from nhsim import accel, codec, netmodel, presets, refmodel
from nhsim.accel import (
    HardwareConfig,
    LayerStats,
    estimate_dram_energy,
    plan_layer,
    simulate_layer,
    simulate_layer_stats,
)
from nhsim.cli import random_case, run_network
from nhsim.fxp import I16_MAX, I16_MIN, I32_MAX, I32_MIN, QFormat
from nhsim.netmodel import FeatureMapTensor, LayerDescriptor, ValidationError

HW = HardwareConfig()


class TestWeightOps:
    def test_interior_k3(self):
        # two output rows x three columns
        assert weight_ops_for_pixel(10, 10, 3, 30, 30, 8) == 6

    def test_boundary_clipping_one_column_from_edge(self):
        # pixel in the second column of an unpadded map: the k_{*,2} taps
        # fall outside, leaving 2 rows x 2 columns
        assert weight_ops_for_pixel(1, 10, 3, 30, 30, 8) == 4

    def test_leftmost_column(self):
        assert weight_ops_for_pixel(0, 10, 3, 30, 30, 8) == 2

    def test_k1_at_most_two(self):
        for y in range(6):
            for top in range(0, 6, 2):
                assert weight_ops_for_pixel(3, y, 1, 8, 8, top) <= 2

    def test_never_exceeds_double_kernel_width(self, rng):
        for _ in range(200):
            k = int(rng.choice([1, 3, 5, 7]))
            ow = int(rng.integers(1, 20))
            oh = int(rng.integers(1, 20))
            x = int(rng.integers(0, ow + k - 1))
            y = int(rng.integers(0, oh + k - 1))
            top = 2 * int(rng.integers(0, (oh + 1) // 2))
            assert 0 <= weight_ops_for_pixel(x, y, k, ow, oh, top) <= 2 * k


class TestDecodeStripe:
    def test_all_zero_stripe_emits_nothing(self):
        t = FeatureMapTensor(np.zeros((2, 8, 8), dtype=np.int16), QFormat(8))
        s = codec.encode(t)
        assert list(decode_stripe(s, 0, 3, 0)) == []

    def test_dense_stripe_emits_k_plus_1_per_cycle(self, rng):
        t = random_tensor(rng, 1, 8, 8, sparsity=0.0)
        s = codec.encode(t)
        batches = list(decode_stripe(s, 0, 3, 0))
        # 4 row FSMs, 8 pixels per row: 8 full batches of 4
        assert len(batches) == 8
        assert all(len(b) == 4 for b in batches)

    def test_emitted_set_matches_dense_scan(self, rng):
        for _ in range(10):
            t = random_tensor(rng, 2, 10, 6, sparsity=0.6)
            s = codec.encode(t)
            k_h = 3
            top = 2 * int(rng.integers(0, 4))
            emitted = {
                (i, x, y)
                for batch in decode_stripe(s, top, k_h, 0)
                for (i, x, y, _) in batch
            }
            want = {
                (i, x, y)
                for (i, x, y, v) in stream_order_iter(t)
                if v != 0 and top <= y <= top + k_h
            }
            assert emitted == want

    def test_padding_offsets_coordinates(self, rng):
        t = random_tensor(rng, 1, 4, 4, sparsity=0.0)
        s = codec.encode(t)
        pad = 2
        batches = list(decode_stripe(s, 0, 3, pad))
        coords = {(x, y) for b in batches for (_, x, y, _) in b}
        # stripe rows 0..3 padded cover real rows 0..1 only, shifted by pad
        assert {y for _, y in coords} == {2, 3}
        assert min(x for x, _ in coords) == pad

    def test_per_pixel_values_survive(self, rng):
        t = random_tensor(rng, 2, 6, 6, sparsity=0.5)
        s = codec.encode(t)
        for batch in decode_stripe(s, 2, 3, 0):
            for (i, x, y, v) in batch:
                assert t.values[i, y, x] == v

    def test_conservation_across_all_stripes(self, rng):
        # every non-zero pixel is read in exactly the stripes the model's
        # per-row visit count gives for its row
        layer = LayerDescriptor(n_in=2, n_out=4, h=10, w=8, k=3, pad=1)
        t = random_tensor(rng, 2, 10, 8, sparsity=0.5)
        s = codec.encode(t)
        _, _, visits = accel._row_col_geometry(layer)
        counts = {}
        n_stripes = -(-layer.conv_h // 2)
        for st_i in range(n_stripes):
            for batch in decode_stripe(s, 2 * st_i, layer.k, layer.pad):
                for (i, x, y, _) in batch:
                    counts[(i, x, y)] = counts.get((i, x, y), 0) + 1
        nz = np.nonzero(t.values)
        assert len(nz[0]) > 0
        for idx in range(len(nz[0])):
            i, y, x = (int(a[idx]) for a in nz)
            key = (i, x + layer.pad, y + layer.pad)
            assert counts.get(key, 0) == int(visits[y])


class TestSeparableModel:
    """The per-row / per-column stats model against per-pixel loops."""

    def _layers(self, rng, n):
        for _ in range(n):
            k = int(rng.choice([1, 3, 5, 7]))
            pad = int(rng.integers(0, min(k, 3) + 1)) if k > 1 else 0
            h = int(rng.integers(max(1, k - 2 * pad), 14))
            w = int(rng.integers(max(1, k - 2 * pad), 14))
            n_in = int(rng.integers(1, 6))
            yield LayerDescriptor(n_in=n_in, n_out=4, h=h, w=w, k=k, pad=pad, pool=False)

    def test_channel_updates_equal_scalar_stripe_sum(self, rng):
        for layer in self._layers(rng, 40):
            t = random_tensor(rng, layer.n_in, layer.h, layer.w, sparsity=0.6)
            rows, cols, _ = accel._row_col_geometry(layer)
            got, nnz_per_row = accel._input_counts(t.values != 0, rows, cols, layer.k)
            want = [0] * layer.n_in
            n_stripes = -(-layer.conv_h // 2)
            for i, y, x in zip(*np.nonzero(t.values)):
                want[i] += sum(
                    weight_ops_for_pixel(
                        int(x) + layer.pad, int(y) + layer.pad, layer.k,
                        layer.conv_w, layer.conv_h, 2 * st,
                    )
                    for st in range(n_stripes)
                )
            assert got.tolist() == want
            assert nnz_per_row.tolist() == np.count_nonzero(t.values, axis=(0, 2)).tolist()

    def test_drain_and_output_fields_equal_segment_loop(self, rng):
        for _ in range(30):
            c = int(rng.integers(1, 9))
            h = int(rng.integers(1, 7))
            w = int(rng.integers(1, 11))
            sp = float(rng.choice([0.0, 0.5, 0.9, 1.0]))
            out = random_tensor(rng, c, h, w, sparsity=sp).values
            seg_nnz = np.bitwise_count(codec.sparsity_maps(out != 0))
            drain = fields = 0
            for y in range(h):
                px = [int(out[ch, y, x]) for x in range(w) for ch in range(c)]
                for lo in range(0, len(px), codec.SEGMENT_BITS):
                    nnz = sum(v != 0 for v in px[lo : lo + codec.SEGMENT_BITS])
                    drain += 1 + nnz // 2
                    fields += 1 + nnz
            assert seg_nnz.size + int((seg_nnz >> 1).sum()) == drain
            assert seg_nnz.size + int(seg_nnz.sum()) == fields
            enc = codec.encode(FeatureMapTensor(out, QFormat(8)))
            assert enc.field_count == fields


class TestFunctionalEquivalence:
    def test_random_sweep_matches_oracle(self, rng):
        for trial in range(120):
            layer, t, kern = random_case(rng)
            sim = simulate_layer(t, kern, layer)
            want = refmodel.layer_forward(t, layer, kern)
            assert np.array_equal(sim.tensor.values, want.values), f"trial {trial}"
            if isinstance(sim.stream, codec.CompressedStream):
                got = codec.decode(sim.stream)
            else:
                got = codec.decode_raw(sim.stream)
            assert np.array_equal(got.values, want.values), f"trial {trial}"

    def test_identity_layer_dense_passthrough(self, rng):
        layer = LayerDescriptor(
            n_in=1, n_out=1, h=6, w=6, k=1, pad=0, relu=True, pool=False,
            frac_in=8, frac_w=8, frac_out=8,
        )
        t = random_tensor(rng, 1, 6, 6, sparsity=0.0, lo=1, hi=100)
        w = np.array([[[[1 << 8]]]], dtype=np.int16)
        kern = netmodel.KernelSet(w, np.zeros(1, dtype=np.int32), QFormat(8))
        sim = simulate_layer(t, kern, layer)
        assert np.array_equal(sim.tensor.values, t.values)

    def test_multi_pass_layer_matches_oracle(self, rng):
        layer = LayerDescriptor(n_in=8, n_out=200, h=10, w=10, k=3, pad=1)
        t = random_tensor(rng, 8, 10, 10, sparsity=0.5)
        kern = random_kernels(rng, 200, 8, 3)
        sim = simulate_layer(t, kern, layer)
        want = refmodel.layer_forward(t, layer, kern)
        assert np.array_equal(sim.tensor.values, want.values)
        assert sim.stats.passes == 2

    @pytest.mark.parametrize(
        "layer, clusters",
        [
            # 65 then 64 channels: the passes have cluster sizes 1 and 2
            (LayerDescriptor(n_in=6, n_out=129, h=7, w=9, k=3, pad=1, relu=False), [1, 2]),
            # 25 clusters for 3 input channels: 22 clusters stay idle
            (LayerDescriptor(n_in=3, n_out=5, h=8, w=8, k=3, relu=False), [25]),
            # 7 conv rows: the last stripe holds one row, which pooling drops
            (LayerDescriptor(n_in=4, n_out=6, h=9, w=10, k=3, pool=True), [21]),
            (LayerDescriptor(n_in=5, n_out=12, h=10, w=11, k=7, pad=3, relu=False), [10]),
            # bank groups of 2 (84*7*7 values > 4096): 33 then 32 channels
            (LayerDescriptor(n_in=84, n_out=65, h=6, w=7, k=7, pad=3, pool=True,
                             frac_in=2, frac_w=13, frac_out=9), [3, 4]),
            # three passes of one cluster size
            (LayerDescriptor(n_in=3, n_out=300, h=7, w=7, k=3, pad=1, pool=True,
                             frac_in=0, frac_w=1, frac_out=12), [1, 1, 1]),
        ],
        ids=["mixed-cluster-sizes", "idle-clusters", "odd-rows-pooled", "k7-pad3",
             "bank-groups-3-4", "three-passes"],
    )
    def test_layer_shapes_match_oracle(self, rng, layer, clusters):
        assert [p.cluster_size for p in plan_layer(layer, HW).passes] == clusters
        t = random_tensor(rng, layer.n_in, layer.h, layer.w, sparsity=0.3,
                          lo=-32768, hi=32767)
        kern = random_kernels(rng, layer.n_out, layer.n_in, layer.k,
                              wmax=32767, bmax=1 << 31)
        sim = simulate_layer(t, kern, layer)
        want = refmodel.layer_forward(t, layer, kern)
        assert np.array_equal(sim.tensor.values, want.values)

    def test_schedule_layer_mismatch_rejected(self, rng):
        layer, t, kern = random_case(rng)
        other = LayerDescriptor(n_in=layer.n_in + 1, n_out=layer.n_out,
                                h=layer.h, w=layer.w, k=layer.k)
        sched = plan_layer(other, HW)
        with pytest.raises(ValidationError):
            simulate_layer(t, kern, layer, schedule=sched)


def extreme_case(rng, layer, mag_x=15, mag_w=15, mag_b=31):
    """Input, weights and bias up to 2**mag in magnitude, a tenth of each
    pinned to its type's limits, so the clamps at 32 and 16 bits engage."""

    def draw(shape, mag, lo, hi):
        v = rng.integers(-(1 << mag), 1 << mag, size=shape, endpoint=True)
        u = rng.random(shape)
        v[u < 0.05], v[u > 0.95] = lo, hi
        return np.clip(v, lo, hi)

    shape = (layer.n_in, layer.h, layer.w)
    x = draw(shape, mag_x, I16_MIN, I16_MAX) * (rng.random(shape) >= 0.3)
    w = draw((layer.n_out, layer.n_in, layer.k, layer.k), mag_w, I16_MIN, I16_MAX)
    b = draw(layer.n_out, mag_b, I32_MIN, I32_MAX)
    return (
        FeatureMapTensor(x.astype(np.int16), QFormat(layer.frac_in)),
        netmodel.KernelSet(w.astype(np.int16), b.astype(np.int32), QFormat(layer.frac_w)),
    )


random_layers = given(
    k=st.sampled_from([1, 3, 5, 7]), pad=st.integers(0, 3),
    conv_h=st.integers(1, 13), conv_w=st.integers(1, 13),
    n_in=st.integers(1, 12), n_out=st.integers(1, 40),
    fracs=st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)),
    mags=st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 31)),
    relu=st.booleans(), pool=st.booleans(), seed=st.integers(0, 2**32 - 1),
)


def check_random_layer(k, pad, conv_h, conv_w, n_in, n_out, fracs, mags, relu, pool, seed):
    """An extreme case of the drawn layer through the pipeline and the oracle."""
    pad = min(pad, (conv_h + k - 2) // 2, (conv_w + k - 2) // 2)
    pool = pool and conv_h >= 2 and conv_w >= 2
    frac_in, frac_w, frac_out = fracs
    layer = LayerDescriptor(
        n_in=n_in, n_out=n_out, h=conv_h + k - 1 - 2 * pad, w=conv_w + k - 1 - 2 * pad,
        k=k, pad=pad, relu=relu, pool=pool,
        frac_in=frac_in, frac_w=frac_w, frac_out=frac_out,
    )
    t, kern = extreme_case(np.random.default_rng(seed), layer, *mags)
    sim = simulate_layer(t, kern, layer)
    assert np.array_equal(sim.tensor.values, refmodel.layer_forward(t, layer, kern).values)


class TestPipelineProperties:
    """The pipeline's float64 readout (pool first, then bias, clamp,
    requantize and ReLU) against the oracle's int64 readout."""

    @settings(max_examples=200, deadline=None)
    @random_layers
    def test_matches_oracle(self, k, pad, conv_h, conv_w, n_in, n_out, fracs, mags,
                            relu, pool, seed):
        check_random_layer(k, pad, conv_h, conv_w, n_in, n_out, fracs, mags, relu, pool, seed)

    @settings(max_examples=100, deadline=None)
    @random_layers
    def test_one_stripe_and_one_channel_per_product(self, k, pad, conv_h, conv_w, n_in,
                                                    n_out, fracs, mags, relu, pool, seed):
        # with no budget and floors of one, every block is one stripe and
        # every channel range one input channel
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(accel, "_BLOCK_BYTES", 0)
            mp.setattr(accel, "_MIN_COLUMNS", 1)
            mp.setattr(accel, "_MIN_DEPTH", 1)
            check_random_layer(k, pad, conv_h, conv_w, n_in, n_out, fracs, mags, relu,
                               pool, seed)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("pool", [False, True])
    # right shift by 8, no shift, left shift by 15
    @pytest.mark.parametrize("fracs", [(8, 8, 8), (3, 4, 7), (0, 0, 15)])
    def test_saturating_layer_with_odd_rows_and_columns(self, rng, relu, pool, fracs):
        frac_in, frac_w, frac_out = fracs
        layer = LayerDescriptor(
            n_in=5, n_out=7, h=9, w=11, k=3, relu=relu, pool=pool,
            frac_in=frac_in, frac_w=frac_w, frac_out=frac_out,
        )
        assert layer.conv_h % 2 == 1 and layer.conv_w % 2 == 1
        t, kern = extreme_case(rng, layer)
        acc = refmodel.conv2d(t, kern, layer.pad)
        assert acc.min() == I32_MIN and acc.max() == I32_MAX
        got = simulate_layer(t, kern, layer).tensor.values
        assert np.array_equal(got, refmodel.layer_forward(t, layer, kern).values)
        assert got.min() == (0 if relu else I16_MIN) and got.max() == I16_MAX

    def test_int32_clamp_decides_a_wide_right_shift(self, rng):
        # shifted right by 30 bits the clamped accumulators read out as -2
        # and 2, well inside int16, so only the 32-bit clamp keeps the
        # accumulators past it from reading out larger
        layer = LayerDescriptor(n_in=5, n_out=7, h=9, w=11, k=3, relu=False,
                                frac_in=15, frac_w=15, frac_out=0)
        t, kern = extreme_case(rng, layer)
        acc = refmodel.conv2d(t, kern, layer.pad)
        assert acc.min() == I32_MIN and acc.max() == I32_MAX
        got = simulate_layer(t, kern, layer).tensor.values
        assert np.array_equal(got, refmodel.layer_forward(t, layer, kern).values)
        assert (got.min(), got.max()) == (-2, 2)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize(
        "stripes, blocks",
        # 11 conv rows, as (rows, input channels of each range) per block.
        # A budget of two stripes takes all 5 channels in one range; with
        # none, a block is one stripe and the reduction is cut at the depth
        # floor of 2 channels, leaving a short last range.  The last block
        # holds the odd row, which pooling drops.
        [
            (2, [(4, [5]), (4, [5]), (3, [5])]),
            (0, [(rows, [2, 2, 1]) for rows in (2, 2, 2, 2, 2, 1)]),
        ],
    )
    def test_blocks_match_oracle(self, rng, monkeypatch, k, stripes, blocks):
        layer = LayerDescriptor(
            n_in=5, n_out=3, h=11, w=9, k=k, pad=(k - 1) // 2, pool=True,
            frac_in=6, frac_w=12, frac_out=10,
        )
        # a stripe's tap matrix over all input channels, which is larger
        # than its accumulator
        stripe_bytes = layer.n_in * k * k * 2 * layer.conv_w * 8
        monkeypatch.setattr(accel, "_BLOCK_BYTES", stripes * stripe_bytes)
        monkeypatch.setattr(accel, "_MIN_COLUMNS", 1)
        monkeypatch.setattr(accel, "_MIN_DEPTH", 2 * k * k)
        products = []
        real = np.lib.stride_tricks.sliding_window_view

        def spy(x, window_shape, axis):
            products.append((window_shape[0], x.shape[0]))
            return real(x, window_shape, axis=axis)

        monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", spy)
        t, kern = extreme_case(rng, layer, mag_x=10, mag_w=10, mag_b=20)
        got = simulate_layer(t, kern, layer).tensor.values
        assert products == [(rows, c) for rows, chans in blocks for c in chans]
        assert np.array_equal(got, refmodel.layer_forward(t, layer, kern).values)


class TestZeroSkipping:
    def _enumerate_mult_ops(self, t, layer):
        """Independent count: products with a non-zero activation operand."""
        count = 0
        nz = np.nonzero(t.values)
        for idx in range(len(nz[0])):
            _, y, x = (int(a[idx]) for a in nz)
            xp, yp = x + layer.pad, y + layer.pad
            cols = min(xp, layer.conv_w - 1) - max(xp - layer.k + 1, 0) + 1
            rows = min(yp, layer.conv_h - 1) - max(yp - layer.k + 1, 0) + 1
            count += rows * cols
        return count * layer.n_out

    def test_mult_ops_equal_oracle_count(self, rng):
        for _ in range(10):
            layer, t, kern = random_case(rng)
            sim = simulate_layer(t, kern, layer)
            assert sim.stats.mult_ops == self._enumerate_mult_ops(t, layer)

    def test_all_zero_input_needs_no_multiplies(self, rng):
        layer = LayerDescriptor(n_in=4, n_out=8, h=8, w=8, k=3)
        t = FeatureMapTensor(np.zeros((4, 8, 8), dtype=np.int16), QFormat(8))
        sim = simulate_layer(t, random_kernels(rng, 8, 4, 3), layer)
        assert sim.stats.mult_ops == 0
        assert sim.stats.cycles_compute == 0

    def test_compute_cycles_scale_with_density(self, rng):
        layer = LayerDescriptor(n_in=128, n_out=128, h=32, w=32, k=3, pad=1)
        kern = random_kernels(rng, 128, 128, 3, wmax=64)
        base = simulate_layer(
            random_tensor(rng, 128, 32, 32, sparsity=0.0), kern, layer
        ).stats.cycles_compute
        for sp in (0.3, 0.5, 0.8):
            got = simulate_layer(
                random_tensor(rng, 128, 32, 32, sparsity=sp), kern, layer
            ).stats.cycles_compute
            assert abs(got / base - (1 - sp)) <= 0.15 * (1 - sp)


class TestCycleModel:
    def test_utilization_bounds(self, rng):
        for _ in range(20):
            layer, t, kern = random_case(rng)
            s = simulate_layer(t, kern, layer).stats
            assert 0.0 <= s.utilization <= s.utilization_excl_load <= 1.0

    def test_stream_cycles_equal_word_count(self, rng):
        # one 32-bit word consumed per cycle; single-pass layers stream once
        layer, t, kern = random_case(rng)
        sim = simulate_layer(t, kern, layer)
        words = codec.encode(t).word_count
        assert plan_layer(layer, HW).n_passes == 1
        assert sim.stats.cycles_input_stream == words

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.sampled_from([1, 3, 5, 7]), pad=st.integers(0, 3),
        conv_h=st.integers(1, 12), conv_w=st.integers(1, 12),
        n_in=st.integers(1, 24), n_out=st.integers(1, 300),
        pool=st.booleans(), encode=st.booleans(),
        sparsity=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        macs=st.sampled_from([8, 16, 64, 128, 256]),
        pixel_mem_bytes=st.sampled_from([64, 1024, 512 * 1024]),
        kernel_bank_values=st.sampled_from([256, 1024, 4096]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_output_stream_size(self, k, pad, conv_h, conv_w, n_in, n_out, pool,
                                encode, sparsity, macs, pixel_mem_bytes,
                                kernel_bank_values, seed):
        # bytes_out against the stream the codec writes for the whole output:
        # one pass writes exactly it, more passes round per pass and write
        # at least it
        pad = min(pad, (conv_h + k - 2) // 2, (conv_w + k - 2) // 2)
        pool = pool and conv_h >= 2 and conv_w >= 2
        layer = LayerDescriptor(
            n_in=n_in, n_out=n_out, h=conv_h + k - 1 - 2 * pad,
            w=conv_w + k - 1 - 2 * pad, k=k, pad=pad, pool=pool, encode=encode,
        )
        hw = HardwareConfig(macs=macs, pixel_mem_bytes=pixel_mem_bytes,
                            kernel_bank_values=kernel_bank_values)
        rng = np.random.default_rng(seed)
        t = random_tensor(rng, n_in, layer.h, layer.w, sparsity=0.5)
        out = random_tensor(rng, *layer.out_shape, sparsity=sparsity)
        stats = simulate_layer_stats(t, out, layer, hw=hw)
        if encode:
            want = 4 * codec.encode(out).word_count
        else:
            want = 4 * codec.encode_raw(out).words.size
        if stats.passes == 1:
            assert stats.bytes_out == want
        else:
            assert stats.bytes_out >= want

    def test_drain_respects_output_bus_cap(self, rng):
        layer, t, kern = random_case(rng)
        sim = simulate_layer(t, kern, layer)
        nnz_out = int(np.count_nonzero(sim.tensor.values))
        assert sim.stats.cycles_output_drain >= -(-nnz_out // 2)

    def test_phase_total(self, rng):
        layer = LayerDescriptor(n_in=3, n_out=16, h=12, w=12, k=3, pad=0)
        t = random_tensor(rng, 3, 12, 12, sparsity=0.5)
        kern = random_kernels(rng, 16, 3, 3)
        s = simulate_layer(t, kern, layer).stats
        assert s.cycles_total >= s.cycles_kernel_load + max(
            s.cycles_compute, s.cycles_input_stream, s.cycles_output_drain
        )

    def test_encode_off_drains_half_pixel_rate(self, rng):
        layer = LayerDescriptor(
            n_in=2, n_out=128, h=8, w=8, k=1, pad=0, relu=False, pool=False,
            encode=False,
        )
        t = random_tensor(rng, 2, 8, 8, sparsity=0.9)
        kern = random_kernels(rng, 128, 2, 1)
        sim = simulate_layer(t, kern, layer)
        assert isinstance(sim.stream, codec.RawPixelStream)
        out_px = sim.tensor.pixel_count
        assert sim.stats.cycles_output_drain == -(-out_px // 2)
        assert np.array_equal(codec.decode_raw(sim.stream).values, sim.tensor.values)

    def test_input_reload_multiplies_traffic(self, rng):
        layer = LayerDescriptor(n_in=8, n_out=256, h=16, w=16, k=3, pad=1)
        t = random_tensor(rng, 8, 16, 16, sparsity=0.2)
        kern = random_kernels(rng, 256, 8, 3)
        words = codec.encode(t).word_count
        normal = simulate_layer(t, kern, layer).stats
        assert normal.bytes_in == 4 * words
        tiny = HardwareConfig(pixel_mem_bytes=64)
        reloaded = simulate_layer(t, kern, layer, hw=tiny).stats
        assert reloaded.bytes_in == 2 * 4 * words  # two passes, streamed twice
        assert reloaded.cycles_input_stream == 2 * words

    def test_kernel_load_cycles_two_values_per_word(self, rng):
        layer = LayerDescriptor(n_in=4, n_out=8, h=8, w=8, k=3)
        t = random_tensor(rng, 4, 8, 8)
        kern = random_kernels(rng, 8, 4, 3)
        s = simulate_layer(t, kern, layer).stats
        values = 8 * 4 * 9
        assert s.cycles_kernel_load == -(-values // 2)
        assert s.bytes_kernels == 2 * values

    def test_stats_only_path_matches_full_sim(self, rng):
        layer, t, kern = random_case(rng)
        sim = simulate_layer(t, kern, layer)
        stats2 = simulate_layer_stats(t, sim.tensor, layer)
        assert stats2.as_dict() == sim.stats.as_dict()


class TestStatsInvariants:
    """Metamorphic properties of the stats model on non-zero masks."""

    @staticmethod
    def masks(layer, rng, sparsity=0.5):
        x = rng.random((layer.n_in, layer.h, layer.w)) >= sparsity
        return x, rng.random(layer.out_shape) >= 0.5

    @settings(max_examples=100, deadline=None)
    @given(case=stats_cases(), sparsity=st.sampled_from([0.0, 0.5, 0.9]),
           extra=st.sampled_from([0.1, 0.5, 1.0]))
    def test_zeroing_inputs_never_adds_work(self, case, sparsity, extra):
        layer, hw, rng = case
        x, out = self.masks(layer, rng, sparsity)
        fewer = x & (rng.random(x.shape) >= extra)
        more = simulate_layer_stats(x, out, layer, hw=hw)
        less = simulate_layer_stats(fewer, out, layer, hw=hw)
        assert less.cycles_compute <= more.cycles_compute
        assert less.mult_ops <= more.mult_ops

    @settings(max_examples=100, deadline=None)
    @given(case=stats_cases())
    def test_permuting_channels_keeps_mult_ops(self, case):
        layer, hw, rng = case
        x, out = self.masks(layer, rng)
        base = simulate_layer_stats(x, out, layer, hw=hw)
        shuffled = simulate_layer_stats(x[rng.permutation(layer.n_in)], out, layer, hw=hw)
        assert shuffled.mult_ops == base.mult_ops

    @settings(max_examples=100, deadline=None)
    @given(case=stats_cases())
    def test_permuting_within_clusters_keeps_compute(self, case):
        # channels are dealt round-robin to a pass's v MACs, so a permutation
        # that keeps every channel's index modulo each pass's v keeps the loads
        layer, hw, rng = case
        x, out = self.masks(layer, rng)
        period = math.lcm(*(p.cluster_size for p in plan_layer(layer, hw).passes))
        perm = np.arange(layer.n_in)
        for r in range(min(period, layer.n_in)):
            perm[r::period] = rng.permutation(perm[r::period])
        base = simulate_layer_stats(x, out, layer, hw=hw)
        shuffled = simulate_layer_stats(x[perm], out, layer, hw=hw)
        assert shuffled.cycles_compute == base.cycles_compute


class TestStatsInputs:
    """``simulate_layer_stats`` on tensors and on non-zero masks."""

    LAYER = LayerDescriptor(n_in=8, n_out=16, h=10, w=10, k=3)

    def test_mask_gives_same_stats_as_tensor(self, rng):
        for _ in range(20):
            layer, t, kern = random_case(rng)
            out = simulate_layer(t, kern, layer).tensor
            want = simulate_layer_stats(t, out, layer)
            for x, y in [(t.values != 0, out), (t, out.values != 0),
                         (t.values != 0, out.values != 0)]:
                assert simulate_layer_stats(x, y, layer).as_dict() == want.as_dict()

    @pytest.mark.parametrize("shape", [(8, 10, 14), (4, 10, 10), (16, 10, 10), (8, 12, 10)])
    def test_input_shape_checked(self, rng, shape):
        # a wider input used to give a wrong cycles_total without an error;
        # the others raised numpy errors from inside the model
        layer = self.LAYER
        out = random_tensor(rng, *layer.out_shape)
        t = random_tensor(rng, *shape)
        message = rf"input \({shape[0]}, {shape[1]}, {shape[2]}\) does not match layer \(8, 10, 10\)"
        with pytest.raises(ValidationError, match=message):
            simulate_layer(t, random_kernels(rng, 16, 8, 3), layer)
        for x in (t, t.values != 0):
            with pytest.raises(ValidationError, match=message):
                simulate_layer_stats(x, out, layer)

    def test_output_shape_checked_for_masks(self, rng):
        layer = self.LAYER
        t = random_tensor(rng, 8, 10, 10)
        with pytest.raises(ValidationError, match="stand-in output"):
            simulate_layer_stats(t, np.ones((16, 8, 9), dtype=bool), layer)

    def test_non_bool_array_rejected(self, rng):
        layer = self.LAYER
        t = random_tensor(rng, 8, 10, 10)
        out = random_tensor(rng, *layer.out_shape)
        with pytest.raises(ValidationError, match="bool mask"):
            simulate_layer_stats(t.values, out, layer)
        with pytest.raises(ValidationError, match="bool mask"):
            simulate_layer_stats(t, out.values, layer)


class TestTotalStats:
    def test_sums_every_counter(self):
        a = LayerStats(1, 2, 3, 4, 10, 5, 6, 7, 8, 1, 9, 11, macs=64)
        b = LayerStats(10, 20, 30, 40, 100, 50, 60, 70, 80, 2, 90, 110, macs=64,
                       input_reload=True)
        t = accel.total_stats([a, b])
        assert t == LayerStats(11, 22, 33, 44, 110, 55, 66, 77, 88, 3, 99, 121, macs=64,
                               input_reload=True)
        assert t.parts == (a, b)
        assert accel.total_stats([a]) == a

    def test_mixed_or_missing_mac_counts_rejected(self):
        with pytest.raises(ValidationError):
            accel.total_stats([LayerStats(macs=64), LayerStats(macs=128)])
        with pytest.raises(ValidationError):
            accel.total_stats([])

    def test_report_totals_come_from_total_stats(self, rng):
        net = presets.network("face_detector")
        first = net.layers[0]
        x = random_tensor(rng, first.n_in, first.h, first.w)
        report = run_network(net, x, synthetic_sparsity=0.7, seed=3)[0]
        stats = [LayerStats(**{f: e[f] for f in accel._SUMMED_FIELDS if f in e})
                 for e in report.layers]
        total = accel.total_stats(stats)
        t = report.totals
        assert t["cycles_total"] == total.cycles_total
        assert (t["bytes_in"], t["bytes_out"], t["bytes_kernels"]) == (
            total.bytes_in, total.bytes_out, total.bytes_kernels)
        assert t["dram_bytes_per_frame"] == total.total_bytes
        assert t["dram_energy_j_per_frame"] == estimate_dram_energy(total)
        assert t["utilization"] == total.utilization
        assert t["utilization_excl_load"] == total.utilization_excl_load


class TestTrace:
    @staticmethod
    def _runs(stats, k):
        """Write the trace of ``stats``, check its runs against the record,
        and return them as (first_cycle, cycles, phase, px_in, px_out)."""
        buf = io.StringIO()
        accel.write_trace(buf, stats, k)
        runs = [(int(a), int(n), ph, int(i), int(o))
                for a, n, ph, i, o in map(str.split, buf.getvalue().splitlines())]
        cycle = 0
        for first, n, phase, pin, pout in runs:
            assert first == cycle and n > 0
            assert phase in ("kernel_load", "prefill", "overlap")
            assert 0 <= pin <= k + 1 and 0 <= pout <= accel.OUTPUT_PIXELS_PER_CYCLE
            cycle += n
        assert cycle == stats.cycles_total
        assert sum(n * pin for _, n, _, pin, _ in runs) == stats.pixels_decoded
        assert sum(n * pout for _, n, _, _, pout in runs) == stats.pixels_drained
        assert all(a[2:] != b[2:] for a, b in zip(runs, runs[1:]))
        return runs

    def _traced(self, rng, layer, sparsity):
        """Simulate ``layer``, check its trace, and return the result and
        the pixels the trace moves out."""
        t = random_tensor(rng, layer.n_in, layer.h, layer.w, sparsity=sparsity)
        kern = random_kernels(rng, layer.n_out, layer.n_in, layer.k)
        sim = simulate_layer(t, kern, layer)
        runs = self._runs(sim.stats, layer.k)
        assert {"kernel_load", "overlap"} <= {r[2] for r in runs}
        return sim, sum(n * pout for _, n, _, _, pout in runs)

    def test_trace_caps_and_length(self, rng):
        layer = LayerDescriptor(n_in=2, n_out=8, h=8, w=8, k=3, pad=0)
        sim, px_out = self._traced(rng, layer, 0.4)
        # an encoded layer writes its non-zero pixels
        assert px_out == np.count_nonzero(sim.tensor.values)

    def test_raw_trace_moves_every_pixel(self, rng):
        # a raw layer writes every pixel, zeros too; with 1x1 kernels over
        # two input maps the drain of 128 output maps bounds every pass
        layer = LayerDescriptor(n_in=2, n_out=128, h=8, w=8, k=1, encode=False)
        sim, px_out = self._traced(rng, layer, 0.4)
        assert px_out == sim.tensor.pixel_count
        assert sim.stats.bytes_out == 2 * px_out

    def test_stats_only_trace_matches_full_sim(self, rng):
        layer = LayerDescriptor(n_in=3, n_out=130, h=6, w=6, k=3, pad=1, pool=True)
        t = random_tensor(rng, 3, 6, 6, sparsity=0.4)
        full, stats_only = io.StringIO(), io.StringIO()
        sim = simulate_layer(t, random_kernels(rng, 130, 3, 3), layer)
        accel.write_trace(full, sim.stats, layer.k)
        accel.write_trace(stats_only, simulate_layer_stats(t, sim.tensor, layer), layer.k)
        assert sim.stats.passes == 2
        assert stats_only.getvalue() == full.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(case=stats_cases(), sparsity=st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    def test_runs_expand_to_per_cycle_reference(self, case, sparsity):
        # encoded and raw layers, one or several passes, with and without
        # input reload (stats_cases draws 64 B of pixel memory too)
        layer, hw, rng = case
        x = rng.random((layer.n_in, layer.h, layer.w)) >= sparsity
        out = rng.random(layer.out_shape) >= sparsity
        stats = simulate_layer_stats(x, out, layer, hw=hw)
        buf = io.StringIO()
        accel.write_trace(buf, stats, layer.k)
        assert expand_trace(buf.getvalue()) == reference_trace(stats, layer.k)
        self._runs(stats, layer.k)


class TestLazyStream:
    def test_stream_encoded_once_on_first_read(self, rng, monkeypatch):
        calls = []
        real_encode = codec.encode
        monkeypatch.setattr(codec, "encode", lambda t: calls.append(t) or real_encode(t))
        layer = LayerDescriptor(n_in=2, n_out=8, h=8, w=8, k=3, pad=1)
        t = random_tensor(rng, 2, 8, 8, sparsity=0.4)
        sim = simulate_layer(t, random_kernels(rng, 8, 2, 3), layer)
        assert calls == []
        first = sim.stream
        assert sim.stream is first
        assert len(calls) == 1
        want = real_encode(sim.tensor)
        assert isinstance(first, codec.CompressedStream)
        assert first.field_count == want.field_count
        assert first.words.tobytes() == want.words.tobytes()


class TestEnergy:
    def test_zero_traffic(self):
        assert estimate_dram_energy(LayerStats()) == 0.0

    def test_one_megabyte(self):
        s = LayerStats(bytes_in=1 << 20)
        assert estimate_dram_energy(s) == pytest.approx(2 ** 23 * 21e-12)
        assert estimate_dram_energy(s) == pytest.approx(1.76e-4, rel=1e-2)

    def test_formula_is_bits_times_21pj(self, rng):
        s = LayerStats(bytes_in=123, bytes_out=456, bytes_kernels=789)
        assert estimate_dram_energy(s) == (123 + 456 + 789) * 8 * 21.0 * 1e-12

    def test_power_at_frame_rate(self, rng):
        net = presets.network("roshambo")
        first = net.layers[0]
        x = random_tensor(rng, first.n_in, first.h, first.w)
        totals = run_network(net, x, synthetic_sparsity=0.82)[0].totals
        assert totals["frames_per_s"] > 0
        assert totals["dram_power_w"] == (
            totals["dram_energy_j_per_frame"] * totals["frames_per_s"]
        )
