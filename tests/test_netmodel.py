import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quantize_kernel_set, reference_synthetic_tensor, stream_order_iter
from nhsim import codec, netmodel, presets
from nhsim.fxp import QFormat
from nhsim.netmodel import (
    FeatureMapTensor,
    KernelSet,
    LayerDescriptor,
    NetworkDescriptor,
    ValidationError,
    load_network,
    load_tensor,
    load_weights,
    save_network,
    save_tensor,
    save_weights,
    sparsity,
    stream_order_values,
)


def tensor_from_flat(flat, c, h, w, frac=8):
    arr = np.asarray(flat, dtype=np.int16).reshape(h, w, c).transpose(2, 0, 1)
    return FeatureMapTensor(np.ascontiguousarray(arr), QFormat(frac))


class TestStreamOrder:
    def test_single_pixel(self):
        t = FeatureMapTensor(np.array([[[7]]], dtype=np.int16), QFormat(8))
        assert list(stream_order_iter(t)) == [(0, 0, 0, 7)]

    def test_channel_fastest_then_column(self):
        # 2 channels, W=2, H=1
        t = tensor_from_flat([1, 2, 3, 4], c=2, h=1, w=2)
        order = [(i, x, y) for i, x, y, _ in stream_order_iter(t)]
        assert order == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]

    def test_rows_top_to_bottom(self):
        # 1 channel, W=2, H=2
        t = tensor_from_flat([1, 2, 3, 4], c=1, h=2, w=2)
        order = [(i, x, y) for i, x, y, _ in stream_order_iter(t)]
        assert order == [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)]

    def test_yields_every_pixel_once_and_sorts_back(self, rng):
        t = FeatureMapTensor(
            rng.integers(-99, 99, size=(3, 4, 5)).astype(np.int16), QFormat(8)
        )
        items = list(stream_order_iter(t))
        assert len(items) == t.pixel_count
        rebuilt = np.zeros_like(t.values)
        for i, x, y, v in items:
            rebuilt[i, y, x] = v
        assert np.array_equal(rebuilt, t.values)

    def test_flat_view_matches_iter(self, rng):
        t = FeatureMapTensor(
            rng.integers(-99, 99, size=(2, 3, 4)).astype(np.int16), QFormat(8)
        )
        flat = stream_order_values(t)
        assert flat.tolist() == [v for _, _, _, v in stream_order_iter(t)]


class TestSparsity:
    def test_all_zero(self):
        t = FeatureMapTensor(np.zeros((1, 4, 4), dtype=np.int16), QFormat(8))
        assert sparsity(t) == 1.0

    def test_all_nonzero(self):
        t = FeatureMapTensor(np.ones((1, 4, 4), dtype=np.int16), QFormat(8))
        assert sparsity(t) == 0.0

    def test_half(self):
        v = np.zeros((1, 4, 4), dtype=np.int16)
        v[0, :2, :] = 3
        assert sparsity(FeatureMapTensor(v, QFormat(8))) == 0.5

    def test_synthetic_hits_target(self, rng):
        t = netmodel.synthetic_tensor(4, 32, 32, 0.7, rng)
        assert abs(sparsity(t) - 0.7) < 0.05

    def test_synthetic_bursty_hits_target(self, rng):
        sps = [
            sparsity(netmodel.synthetic_tensor(2, 24, 24, 0.6, rng, burst_mean=64.0))
            for _ in range(200)
        ]
        assert abs(float(np.mean(sps)) - 0.6) < 0.05

    def test_synthetic_rejects_bad_sparsity(self, rng):
        with pytest.raises(ValidationError):
            netmodel.synthetic_tensor(1, 4, 4, 1.5, rng)


def draw_mask(c, h, w, sp, rng, burst_mean):
    """A stand-in's non-zero mask as nhsim draws it: ``synthetic_mask`` if
    i.i.d., a group of one from ``synthetic_mask_groups`` if Markov."""
    if burst_mean is None:
        return netmodel.synthetic_mask(c, h, w, sp, rng)
    (group,) = netmodel.synthetic_mask_groups(1, c, h, w, sp, rng, burst_mean)
    return group[0]


def assert_same_as_reference(c, h, w, sp, burst_mean, seed):
    """Same values, dtype and generator state as the per-pixel generator,
    and the same non-zero pixels and state from :func:`draw_mask`."""
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = reference_synthetic_tensor(c, h, w, sp, want_rng, QFormat(6), burst_mean)
    got = netmodel.synthetic_tensor(c, h, w, sp, got_rng, QFormat(6), burst_mean)
    assert got.values.dtype == np.int16
    assert got.values.shape == (c, h, w)
    assert np.array_equal(got.values, want.values)
    assert got.qformat == want.qformat
    mask_rng = np.random.default_rng(seed)
    mask = draw_mask(c, h, w, sp, mask_rng, burst_mean)
    assert mask.dtype == bool
    assert np.array_equal(mask, want.values != 0)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert mask_rng.bit_generator.state == want_rng.bit_generator.state
    want_next = want_rng.random()
    assert got_rng.random() == want_next
    assert mask_rng.random() == want_next


class TestSyntheticMatchesReference:
    @pytest.mark.parametrize("burst_mean", [None, 0.5, 1.0, 2.0, 128.0])
    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (1, 1, 7), (1, 5, 1), (4, 1, 1), (2, 3, 5), (16, 9, 7)]
    )
    def test_fixed_shapes(self, shape, burst_mean):
        for seed, sp in enumerate([0.0, 1.0, 0.3, 0.82, 0.999]):
            assert_same_as_reference(*shape, sp, burst_mean, seed)

    @staticmethod
    def assert_random_cases(meta, count):
        for _ in range(count):
            c, h, w = (int(x) for x in meta.integers(1, 13, size=3))
            sp = float(meta.choice([0.0, 1.0, meta.random()]))
            burst_mean = [None, 0.5, 1.0, float(meta.uniform(0.2, 300.0))][
                int(meta.integers(0, 4))
            ]
            assert_same_as_reference(c, h, w, sp, burst_mean, int(meta.integers(1 << 31)))

    def test_random_cases(self):
        self.assert_random_cases(np.random.default_rng(77), 200)

    def test_layer_sized_tensor(self):
        assert_same_as_reference(64, 56, 56, 0.82, None, 5)

    @pytest.mark.parametrize("burst_mean", [None, 16.0])
    @pytest.mark.parametrize("chunk", [2, 6, 64])
    def test_draws_span_several_chunks(self, monkeypatch, chunk, burst_mean):
        monkeypatch.setattr(netmodel, "_CHUNK", chunk)
        # odd and even counts, chunk multiples and one off them
        counts = {1, 2, 3, chunk - 1, chunk, chunk + 1, 3 * chunk - 1, 3 * chunk,
                  3 * chunk + 1, 4 * chunk + 2}
        for n in sorted(counts - {0}):
            for seed, sp in enumerate([0.0, 1.0, 0.3, 0.82]):
                assert_same_as_reference(n, 1, 1, sp, burst_mean, seed)
        for seed, shape in enumerate([(3, 5, 7), (4, 4, 6), (2, 9, 16)]):
            assert_same_as_reference(*shape, 0.5, burst_mean, 100 + seed)

    @pytest.mark.parametrize("chunk", [2, 6, 64])
    def test_random_cases_in_small_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(netmodel, "_CHUNK", chunk)
        self.assert_random_cases(np.random.default_rng(chunk), 50)

    @pytest.mark.parametrize("burst_mean", [None, 16.0])
    @pytest.mark.parametrize(
        "shape",
        # 2**16 - 1, 2**16, 3 * 2**16 - 1, 3 * 2**16 and 4 * 2**16 + 1 pixels
        [(771, 85, 1), (1024, 64, 1), (467, 421, 1), (1024, 192, 1), (545, 481, 1)],
    )
    def test_default_chunk_boundaries(self, shape, burst_mean):
        assert netmodel._CHUNK == 1 << 16  # the shapes sit on its boundaries
        for seed, sp in enumerate([0.0, 1.0, 0.3]):
            assert_same_as_reference(*shape, sp, burst_mean, seed)

    def test_peak_memory_below_four_bytes_a_pixel(self):
        # VGG16 conv1's output map; whole-tensor draws peaked at 9 bytes a
        # pixel.  The two-byte result and the one-byte mask leave one byte a
        # pixel for the chunk buffers.
        c, h, w = 64, 224, 224
        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            netmodel.synthetic_tensor(c, h, w, 0.82, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * c * h * w


    def test_markov_peak_memory_below_16_mib(self):
        # the whole-stream Markov scan peaked at 143.9 MiB on this map
        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            netmodel.synthetic_tensor(64, 224, 224, 0.82, rng, burst_mean=16.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


def same_state(a, b) -> bool:
    """Bit-generator states equal, including MT19937's key array."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


BIT_GENERATORS = [
    np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
    np.random.SFC64,
]


class TestStandInDraw:
    """One uniform a pixel: its zero test and, from its low 13 bits, its value."""

    def test_values_cover_the_range_uniformly(self):
        # 2**21 pixels at sparsity 0.3: about 1.47 M non-zero values over the
        # 8,192 values +-[1, 4096], some 180 each
        t = netmodel.synthetic_tensor(64, 128, 256, 0.3, np.random.default_rng(18))
        v = t.values[t.values != 0].astype(np.int64)
        assert len(v) >= 1 << 20
        assert -4096 <= v.min() and v.max() <= 4096
        counts = np.bincount(v + 4096, minlength=8193)
        counts = np.delete(counts, 4096)  # the zero slot, empty
        assert counts.min() > 0
        expected = len(v) / 8192
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        df = 8191
        assert chi2 < df + 5 * np.sqrt(2 * df)  # about 8,831

    @pytest.mark.parametrize("sp", [0.0, 0.5, 0.82, 1.0])
    def test_first_mask_is_the_uniforms_threshold(self, sp):
        # the draw of every earlier release: rng.random(n) >= sp in stream order
        shape = (64, 33, 31)
        n = int(np.prod(shape))
        mask = netmodel.synthetic_mask(*shape, sp, np.random.default_rng(0))
        u = np.random.default_rng(0).random(n)
        assert np.array_equal(mask, (u >= sp).reshape(33, 31, 64).transpose(2, 0, 1))

    @pytest.mark.parametrize("burst_mean", [None, 16.0])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_generator_ends_where_random_leaves_it(self, bit_generator, burst_mean):
        # n uniforms a stand-in, and one more for a Markov initial state
        shape, count = (5, 33, 17), 9
        n = int(np.prod(shape)) + (burst_mean is not None)
        draws = {
            "tensor": lambda r: netmodel.synthetic_tensor(*shape, 0.82, r, burst_mean=burst_mean),
        }
        if burst_mean is None:
            draws["mask"] = lambda r: netmodel.synthetic_mask(*shape, 0.82, r)
        else:  # groups draw Markov stand-ins only
            draws["groups"] = lambda r: list(
                netmodel.synthetic_mask_groups(count, *shape, 0.82, r, burst_mean)
            )
        for what, draw in draws.items():
            rng = np.random.Generator(bit_generator(7))
            want = np.random.Generator(bit_generator(7))
            draw(rng)
            want.random(n * (count if what == "groups" else 1))
            assert same_state(rng.bit_generator.state, want.bit_generator.state), what

    @pytest.mark.parametrize("sp", [0.9, 0.95, 1.0])
    def test_markov_reaches_targets_past_the_ceiling(self, sp):
        # burst_mean 4 caps the zero fraction at 0.8 while the chain keeps a
        # mean zero run of 4; past it the zero runs grow instead
        rng = np.random.default_rng(0)
        got = [
            sparsity(netmodel.synthetic_tensor(2, 24, 24, sp, rng, burst_mean=4.0))
            for _ in range(400)
        ]
        assert abs(float(np.mean(got)) - sp) < 0.01
        masks = np.concatenate(
            list(netmodel.synthetic_mask_groups(400, 2, 24, 24, sp, rng, 4.0))
        )
        assert abs(1.0 - float(masks.mean()) - sp) < 0.01


class TestSyntheticMask:
    """``synthetic_mask`` against ``synthetic_tensor(...).values != 0``;
    with ``burst_mean``, :func:`draw_mask`'s group of one."""

    @staticmethod
    def assert_mask_matches_tensor(bit_generator, shape, sp, burst_mean, seed=1, drawn=0):
        """``drawn`` words go first, so an odd count leaves a half kept."""
        tensor_rng = np.random.Generator(bit_generator(seed))
        mask_rng = np.random.Generator(bit_generator(seed))
        for r in (tensor_rng, mask_rng):
            r.integers(0, 1 << 32, size=drawn, dtype=np.uint32)
        t = netmodel.synthetic_tensor(*shape, sp, tensor_rng, burst_mean=burst_mean)
        mask = draw_mask(*shape, sp, mask_rng, burst_mean)
        assert mask.dtype == bool and mask.shape == shape
        assert np.array_equal(mask, t.values != 0)
        assert same_state(mask_rng.bit_generator.state, tensor_rng.bit_generator.state)
        assert mask_rng.random() == tensor_rng.random()

    @pytest.mark.parametrize("burst_mean", [None, 16.0])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_every_bit_generator(self, bit_generator, burst_mean):
        assert netmodel._CHUNK == 1 << 16  # the counts sit on its boundaries
        # 7 pixels, then 2**16 - 1, 2**16 and 2**16 + 2: below, at and above
        # the chunk (2**16 + 1 is prime)
        for shape in [(7, 1, 1), (771, 85, 1), (1024, 64, 1), (198, 331, 1)]:
            for seed, sp in enumerate([0.0, 1.0, 0.82]):
                self.assert_mask_matches_tensor(bit_generator, shape, sp, burst_mean, seed)
        self.assert_mask_matches_tensor(bit_generator, (5, 33, 17), 0.5, burst_mean)

    @pytest.mark.parametrize("chunk", [2, 6, 64])
    def test_value_words_over_many_blocks(self, monkeypatch, chunk):
        # the uniforms in chunks of 2, 6 and 64, on a 64-bit and a 32-bit
        # bit generator
        monkeypatch.setattr(netmodel, "_CHUNK", chunk)
        for shape in [(1, 1, 1), (2, 1, 1), (3, 1, 1), (999, 61, 1)]:
            for bit_generator in (np.random.PCG64, np.random.MT19937):
                self.assert_mask_matches_tensor(bit_generator, shape, 0.3, None, chunk)

    @pytest.mark.parametrize("drawn", [1, 3])
    @pytest.mark.parametrize("burst_mean", [None, 16.0])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_words_drawn_before_the_call(self, bit_generator, burst_mean, drawn):
        # the call starts with a 32-bit half kept in the generator state,
        # which random() neither reads nor clears
        for seed, shape in enumerate([(1, 1, 1), (7, 1, 1), (5, 33, 17), (198, 331, 1)]):
            self.assert_mask_matches_tensor(
                bit_generator, shape, 0.82, burst_mean, seed, drawn=drawn
            )

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_consecutive_masks_from_one_generator(self, bit_generator):
        # as run_network draws one stand-in after another
        tensor_rng = np.random.Generator(bit_generator(9))
        mask_rng = np.random.Generator(bit_generator(9))
        for shape, sp in [((3, 5, 7), 0.5), ((64, 33, 31), 0.82), ((1, 1, 1), 0.0),
                          ((9, 11, 13), 0.3)]:
            t = netmodel.synthetic_tensor(*shape, sp, tensor_rng)
            mask = netmodel.synthetic_mask(*shape, sp, mask_rng)
            assert np.array_equal(mask, t.values != 0)
            assert same_state(mask_rng.bit_generator.state, tensor_rng.bit_generator.state)

    @pytest.mark.parametrize("chunk", [2, 6, 64])
    def test_kept_half_over_many_blocks(self, monkeypatch, chunk):
        # chunks drawn while a 32-bit half is kept in the generator state
        monkeypatch.setattr(netmodel, "_CHUNK", chunk)
        shapes = [(1, 1, 1), (2, 1, 1), (5, 1, 1), (37, 5, 1)]
        for shape in shapes + [(999, 61, 1)] * (chunk == 64):
            for bit_generator in BIT_GENERATORS:
                for drawn in (1, 3):
                    self.assert_mask_matches_tensor(
                        bit_generator, shape, 0.3, None, chunk, drawn=drawn
                    )

    def test_values_reads_as_plain_array(self, rng):
        mask = netmodel.synthetic_mask(3, 4, 5, 0.5, rng)
        assert isinstance(mask, netmodel.NonzeroMask)
        assert type(mask.values) is np.ndarray
        assert np.array_equal(mask.values, mask)

    @pytest.mark.parametrize(
        "shape, message",
        [((0, 4, 4), "channels"), ((1025, 1, 1), "channels"), ((1, 513, 1), "dims"),
         ((1, 1, 0), "dims")],
    )
    def test_rejects_shape_before_drawing(self, shape, message):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValidationError, match=message):
            netmodel.synthetic_mask(*shape, 0.5, rng)
        assert rng.bit_generator.state == before

    def test_rejects_bad_sparsity(self, rng):
        with pytest.raises(ValidationError, match="sparsity"):
            netmodel.synthetic_mask(1, 4, 4, -0.1, rng)


SPARSITIES = [0.0, 1.0, 0.3, 0.82, 0.999]


class TestSyntheticMaskGroups:
    """``synthetic_mask_groups`` against successive ``synthetic_tensor`` calls."""

    @staticmethod
    def group_size(shape) -> int:
        return max(1, netmodel._CHUNK // int(np.prod(shape)))

    @staticmethod
    def assert_groups_match_tensors(
        bit_generator, count, shape, sp, burst_mean, seed=1, drawn=0
    ):
        """``drawn`` words go first, so an odd count leaves a half kept."""
        tensor_rng = np.random.Generator(bit_generator(seed))
        group_rng = np.random.Generator(bit_generator(seed))
        for r in (tensor_rng, group_rng):
            r.integers(0, 1 << 32, size=drawn, dtype=np.uint32)
        want = [
            netmodel.synthetic_tensor(*shape, sp, tensor_rng, burst_mean=burst_mean).values != 0
            for _ in range(count)
        ]
        groups = list(
            netmodel.synthetic_mask_groups(count, *shape, sp, group_rng, burst_mean)
        )
        limit = TestSyntheticMaskGroups.group_size(shape)
        assert all(g.dtype == bool and 1 <= len(g) <= limit for g in groups)
        got = np.concatenate(groups) if groups else np.zeros((0, *shape), dtype=bool)
        assert got.shape == (count, *shape)
        assert np.array_equal(got, np.array(want).reshape(got.shape))
        assert same_state(group_rng.bit_generator.state, tensor_rng.bit_generator.state)
        assert group_rng.random() == tensor_rng.random()

    @pytest.mark.parametrize("burst_mean", [0.5, 1.0, 16.0, 128.0])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_every_bit_generator(self, bit_generator, burst_mean):
        # compare-codecs' stand-in shape: 56 trials a group
        shape = (2, 24, 24)
        g = self.group_size(shape)
        assert g == 56
        for seed, sp in enumerate(SPARSITIES):
            for count in (1, 2, g - 1, g, g + 1):
                self.assert_groups_match_tensors(
                    bit_generator, count, shape, sp, burst_mean, seed
                )

    @pytest.mark.parametrize("drawn", [1, 3])
    @pytest.mark.parametrize("burst_mean", [16.0])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_words_drawn_before_the_call(self, bit_generator, burst_mean, drawn):
        # the first trial starts with a 32-bit half kept in the state
        for seed, (shape, count) in enumerate([((1, 1, 1), 3), ((7, 1, 1), 2),
                                               ((5, 33, 17), 24)]):
            self.assert_groups_match_tensors(
                bit_generator, count, shape, 0.82, burst_mean, seed, drawn=drawn
            )

    @pytest.mark.parametrize("burst_mean", [0.5, 16.0])
    @pytest.mark.parametrize("chunk", [2, 6, 64])
    def test_trials_spanning_chunks(self, monkeypatch, chunk, burst_mean):
        # a trial of more than _CHUNK pixels is a group of one, scanned whole
        # where synthetic_tensor scans it chunk by chunk
        monkeypatch.setattr(netmodel, "_CHUNK", chunk)
        for shape in [(1, 1, 1), (3, 1, 1), (2, 3, 5), (5, 5, 5)]:
            g = self.group_size(shape)
            for seed, sp in enumerate(SPARSITIES):
                for count in sorted({1, 2, g - 1, g, g + 1} - {0}):
                    self.assert_groups_match_tensors(
                        np.random.PCG64, count, shape, sp, burst_mean, seed, drawn=seed % 2
                    )

    def test_zero_trials_draw_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert list(netmodel.synthetic_mask_groups(0, 2, 24, 24, 0.5, rng, 128.0)) == []
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize(
        "shape, sp, message",
        [((0, 4, 4), 0.5, "channels"), ((1, 513, 1), 0.5, "dims"),
         ((2, 4, 4), 1.5, "sparsity")],
    )
    def test_rejects_before_drawing(self, shape, sp, message):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValidationError, match=message):
            next(netmodel.synthetic_mask_groups(2, *shape, sp, rng, 16.0))
        assert rng.bit_generator.state == before


class TestTensorLimits:
    def test_channel_cap(self):
        with pytest.raises(ValidationError):
            FeatureMapTensor(np.zeros((1025, 1, 1), dtype=np.int16), QFormat(8))

    def test_dim_cap(self):
        with pytest.raises(ValidationError):
            FeatureMapTensor(np.zeros((1, 513, 1), dtype=np.int16), QFormat(8))

    def test_kernel_cap(self):
        with pytest.raises(ValidationError):
            KernelSet(
                np.zeros((1, 1, 8, 8), dtype=np.int16),
                np.zeros(1, dtype=np.int32),
                QFormat(8),
            )

    def test_non_square_kernel_rejected(self):
        with pytest.raises(ValidationError):
            KernelSet(
                np.zeros((1, 1, 3, 5), dtype=np.int16),
                np.zeros(1, dtype=np.int32),
                QFormat(8),
            )


class TestValueRanges:
    """Other dtypes are cast to int16/int32 only when every value fits."""

    @pytest.mark.parametrize("bad", [40000, -32769, np.nan])
    def test_tensor_value_outside_int16_rejected(self, bad):
        v = np.zeros((1, 2, 2))
        v[0, 1, 1] = bad
        with pytest.raises(ValidationError, match="tensor values"):
            FeatureMapTensor(v, QFormat(8))

    @pytest.mark.parametrize("bad", [32768, -40000])
    def test_weight_outside_int16_rejected(self, bad):
        w = np.zeros((2, 1, 3, 3), dtype=np.int32)
        w[1, 0, 2, 2] = bad
        with pytest.raises(ValidationError, match="weights"):
            KernelSet(w, np.zeros(2, dtype=np.int32), QFormat(8))

    @pytest.mark.parametrize("bad", [2**31, -(2**31) - 1])
    def test_bias_outside_int32_rejected(self, bad):
        with pytest.raises(ValidationError, match="bias"):
            KernelSet(
                np.zeros((2, 1, 1, 1), dtype=np.int16),
                np.array([0, bad], dtype=np.int64),
                QFormat(8),
            )

    def test_fractional_activations_rejected(self):
        with pytest.raises(ValidationError, match="tensor values hold non-integral"):
            FeatureMapTensor(np.array([[[1.5, -2.7]]]), QFormat(8))

    def test_fractional_weight_rejected(self):
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 0.9
        with pytest.raises(ValidationError, match="weights hold non-integral"):
            KernelSet(w, np.zeros(1, dtype=np.int32), QFormat(8))

    def test_fractional_bias_rejected(self):
        with pytest.raises(ValidationError, match="bias hold non-integral"):
            KernelSet(np.zeros((1, 1, 1, 1), np.int16), np.array([0.5]), QFormat(8))

    def test_nan_has_its_own_message(self):
        with pytest.raises(ValidationError, match="^tensor values contain NaN$"):
            FeatureMapTensor(np.array([[[0.0, np.nan]]]), QFormat(8))
        with pytest.raises(ValidationError, match="^weights contain NaN$"):
            KernelSet(np.full((1, 1, 1, 1), np.nan), np.zeros(1), QFormat(8))
        with pytest.raises(ValidationError, match="^bias contain NaN$"):
            KernelSet(np.zeros((1, 1, 1, 1)), np.array([np.nan]), QFormat(8))

    def test_non_numeric_dtype_rejected(self):
        with pytest.raises(ValidationError, match="tensor values have dtype"):
            FeatureMapTensor(np.array([[["1"]]]), QFormat(8))

    def test_integral_floats_are_cast(self):
        t = FeatureMapTensor(np.array([[[-32768.0, -0.0, 3.0, 32767.0]]]), QFormat(8))
        assert t.values.dtype == np.int16
        assert t.values.tolist() == [[[-32768, 0, 3, 32767]]]
        kern = KernelSet(np.full((1, 1, 1, 1), -7.0), np.array([-(2.0**31)]), QFormat(8))
        assert kern.weights.ravel().tolist() == [-7]
        assert kern.bias.tolist() == [-(2**31)]

    def test_values_at_the_limits_are_cast(self):
        t = FeatureMapTensor(np.array([[[-32768, 32767]]], dtype=np.int64), QFormat(8))
        assert t.values.dtype == np.int16
        assert t.values.tolist() == [[[-32768, 32767]]]
        kern = KernelSet(
            np.array([[[[32767]]], [[[-32768]]]], dtype=np.int64),
            np.array([-(2**31), 2**31 - 1], dtype=np.int64),
            QFormat(8),
        )
        assert kern.weights.dtype == np.int16 and kern.bias.dtype == np.int32
        assert kern.weights.ravel().tolist() == [32767, -32768]
        assert kern.bias.tolist() == [-(2**31), 2**31 - 1]


class TestFileRoundtrips:
    @settings(max_examples=40, deadline=None)
    @given(
        c=st.integers(1, 5), h=st.integers(1, 9), w=st.integers(1, 9),
        frac=st.integers(0, 15), seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_tensor_roundtrip(self, tmp_path_factory, c, h, w, frac, seed):
        rng = np.random.default_rng(seed)
        t = FeatureMapTensor(
            rng.integers(-32768, 32768, size=(c, h, w)).astype(np.int16), QFormat(frac)
        )
        path = str(tmp_path_factory.mktemp("nht") / "t.nht")
        save_tensor(t, path)
        back = load_tensor(path)
        assert np.array_equal(back.values, t.values)
        assert back.qformat == t.qformat

    def test_weights_roundtrip(self, rng, tmp_path):
        k = KernelSet(
            rng.integers(-1000, 1000, size=(6, 3, 5, 5)).astype(np.int16),
            rng.integers(-(1 << 30), 1 << 30, size=6).astype(np.int32),
            QFormat(12),
        )
        path = str(tmp_path / "w.nhw")
        save_weights(k, path)
        back = load_weights(path)
        assert np.array_equal(back.weights, k.weights)
        assert np.array_equal(back.bias, k.bias)
        assert back.qformat == k.qformat

    def test_loaded_weights_own_their_memory(self, rng, tmp_path):
        # the arrays are fresh copies: writable, and not views of the bytes
        # read from the file
        k = KernelSet(
            rng.integers(-1000, 1000, size=(4, 2, 3, 3)).astype(np.int16),
            rng.integers(-1000, 1000, size=4).astype(np.int32),
            QFormat(8),
        )
        path = str(tmp_path / "w.nhw")
        save_weights(k, path)
        back = load_weights(path)
        for a in (back.weights, back.bias):
            assert a.flags.writeable
            while isinstance(a.base, np.ndarray):
                a = a.base
            assert a.base is None and a.flags.owndata
        back.weights[0, 0, 0, 0] += 1
        back.bias[0] += 1
        assert np.array_equal(load_weights(path).weights, k.weights)

    def test_tensor_bad_magic(self, tmp_path):
        p = tmp_path / "bad.nht"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(netmodel.FileFormatError):
            load_tensor(str(p))

    def test_tensor_truncated(self, tmp_path, rng):
        t = FeatureMapTensor(
            rng.integers(-5, 5, size=(2, 3, 3)).astype(np.int16), QFormat(8)
        )
        path = tmp_path / "t.nht"
        save_tensor(t, str(path))
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(netmodel.FileFormatError):
            load_tensor(str(path))

    def test_weights_truncated_header(self, tmp_path):
        path = tmp_path / "w.nhw"
        k = KernelSet(np.ones((2, 1, 1, 1), np.int16), np.zeros(2, np.int32), QFormat(8))
        save_weights(k, str(path))
        path.write_bytes(path.read_bytes()[:6])  # magic plus two header bytes
        with pytest.raises(netmodel.FileFormatError, match="truncated header"):
            load_weights(str(path))


    # byte 10 of all three headers is frac_bits; QFormat admits [0, 15]
    @pytest.mark.parametrize("frac", [16, 200, 255])
    def test_tensor_frac_bits_out_of_range(self, tmp_path, frac):
        path = tmp_path / "t.nht"
        save_tensor(FeatureMapTensor(np.ones((1, 2, 2), np.int16), QFormat(8)), str(path))
        blob = bytearray(path.read_bytes())
        blob[10] = frac
        path.write_bytes(bytes(blob))
        with pytest.raises(netmodel.FileFormatError, match=f"frac_bits {frac} outside"):
            load_tensor(str(path))

    def test_weights_frac_bits_out_of_range(self, tmp_path):
        path = tmp_path / "w.nhw"
        k = KernelSet(np.ones((2, 1, 1, 1), np.int16), np.zeros(2, np.int32), QFormat(8))
        save_weights(k, str(path))
        blob = bytearray(path.read_bytes())
        blob[10] = 200
        path.write_bytes(bytes(blob))
        with pytest.raises(netmodel.FileFormatError, match="frac_bits 200 outside"):
            load_weights(str(path))


# per container: a writer of a small valid file, its loader, and what a
# file with the wrong magic is said not to be
_CONTAINERS = {
    "nht": (
        lambda p: save_tensor(
            FeatureMapTensor(np.arange(12, dtype=np.int16).reshape(3, 2, 2), QFormat(8)), p
        ),
        load_tensor, "tensor file",
    ),
    "nhw": (
        lambda p: save_weights(
            KernelSet(np.ones((2, 1, 3, 3), np.int16), np.arange(2, dtype=np.int32), QFormat(8)),
            p,
        ),
        load_weights, "weight file",
    ),
    "nhc": (
        lambda p: codec.save_stream(
            codec.encode(FeatureMapTensor(np.eye(4, dtype=np.int16)[None], QFormat(8))), p
        ),
        codec.load_stream, "compressed stream",
    ),
}


class TestFileFraming:
    """The three containers share one reader: a file with one fault in its
    framing fails with that fault's message, word for word."""

    @pytest.mark.parametrize("fault", ["magic", "short header", "one byte more", "one byte less"])
    @pytest.mark.parametrize("kind", sorted(_CONTAINERS))
    def test_single_fault_message(self, tmp_path, kind, fault):
        save, load, what = _CONTAINERS[kind]
        path = tmp_path / f"f.{kind}"
        save(str(path))
        blob = path.read_bytes()
        header_bytes = 16 if kind == "nhc" else 11
        bad, message = {
            "magic": (b"NHX1" + blob[4:], f"bad magic, not a {what}"),
            "short header": (blob[: header_bytes - 1], "truncated header"),
            "one byte more": (blob + b"\0", f"expected {len(blob)} bytes, got {len(blob) + 1}"),
            "one byte less": (blob[:-1], f"expected {len(blob)} bytes, got {len(blob) - 1}"),
        }[fault]
        path.write_bytes(bad)
        with pytest.raises(netmodel.FileFormatError) as err:
            load(str(path))
        assert str(err.value) == f"{path}: {message}"


class TestNetworkDescriptors:
    def test_roshambo_table_loads_and_chains(self, tmp_path):
        net = presets.network("roshambo")
        assert [l.k for l in net.layers] == [5, 3, 3, 3, 1]
        assert all(l.pool for l in net.layers)
        # save -> load roundtrip revalidates the chaining
        path = str(tmp_path / "net.json")
        save_network(net, path)
        back = load_network(path)
        assert len(back.layers) == 5
        assert back.layers[1].h == 30 and back.layers[1].w == 30

    def test_unknown_preset_is_a_validation_error(self):
        message = f"unknown preset 'vgg17'; have {presets.preset_names()}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            presets.network("vgg17")

    def test_giga1net_table_loads(self, tmp_path):
        net = presets.network("giga1net")
        assert [l.k for l in net.layers] == [1, 7, 7, 5, 5, 5, 3, 3, 3, 3, 3]
        path = str(tmp_path / "net.json")
        save_network(net, path)
        assert len(load_network(path).layers) == 11

    def test_dimension_mismatch_reports_layer(self):
        layers = [
            LayerDescriptor(n_in=1, n_out=4, h=8, w=8, k=3),
            LayerDescriptor(n_in=4, n_out=4, h=5, w=6, k=3),  # should be 6x6
        ]
        with pytest.raises(ValidationError, match="layer 0"):
            NetworkDescriptor(layers)

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "net.json"
        p.write_text('{"layers": [{"n_in": 1, "n_out": 4}]}')
        with pytest.raises(netmodel.FileFormatError, match="missing keys"):
            load_network(str(p))

    def test_format_chain_mismatch_between_layers(self):
        layers = [
            LayerDescriptor(n_in=1, n_out=4, h=8, w=8, k=3, frac_out=4),
            LayerDescriptor(n_in=4, n_out=4, h=6, w=6, k=3, frac_in=12),
        ]
        with pytest.raises(ValidationError, match="layer 1 reads 12"):
            NetworkDescriptor(layers)

    def test_format_chain_mismatch_into_fc(self):
        layers = [LayerDescriptor(n_in=1, n_out=4, h=8, w=8, k=3, frac_out=8)]
        fc = [netmodel.DenseLayerDescriptor(n_in=144, n_out=2, frac_in=10)]
        with pytest.raises(ValidationError, match="fc 0 reads 10"):
            NetworkDescriptor(layers, fc)

    @pytest.mark.parametrize("key", ["n_in", "n_out"])
    def test_fc_entry_missing_size_rejected(self, tmp_path, key):
        path = str(tmp_path / "net.json")
        net = NetworkDescriptor(
            [LayerDescriptor(n_in=1, n_out=4, h=8, w=8, k=3)],
            [netmodel.DenseLayerDescriptor(n_in=144, n_out=2)],
        )
        save_network(net, path)
        with open(path) as f:
            doc = json.load(f)
        del doc["fc"][0][key]
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(netmodel.FileFormatError, match=f"fc 0 missing keys \\['{key}'\\]"):
            load_network(path)

    def _saved_doc(self, tmp_path):
        path = str(tmp_path / "net.json")
        net = NetworkDescriptor(
            [LayerDescriptor(n_in=1, n_out=4, h=8, w=8, k=3)],
            [netmodel.DenseLayerDescriptor(n_in=144, n_out=2)],
        )
        save_network(net, path)
        with open(path) as f:
            return path, json.load(f)

    @pytest.mark.parametrize(
        "section, key, value",
        [("layers", "n_in", "abc"), ("layers", "pad", None), ("fc", "frac_w", [8]),
         ("layers", "weights", 5), ("layers", "relu", "false"), ("fc", "relu", None),
         ("layers", "n_out", "4"), ("layers", "pad", False), ("layers", "k", True),
         ("fc", "n_out", "2"), ("fc", "frac_in", True)],
    )
    def test_wrongly_typed_field_rejected(self, tmp_path, section, key, value):
        path, doc = self._saved_doc(tmp_path)
        doc[section][0][key] = value
        with open(path, "w") as f:
            json.dump(doc, f)
        where = "layer 0" if section == "layers" else "fc 0"
        with pytest.raises(netmodel.FileFormatError, match=f"{where} field '{key}'"):
            load_network(path)

    @pytest.mark.parametrize(
        "section, value, match",
        [("layers", 5, "'layers' must be a list of objects, got int"),
         ("layers", [7], "layer 0 must be an object, got int"),
         ("fc", {"n_in": 144}, "'fc' must be a list of objects, got dict"),
         ("fc", ["x"], "fc 0 must be an object, got str")],
    )
    def test_section_not_a_list_of_objects_rejected(self, tmp_path, section, value, match):
        path, doc = self._saved_doc(tmp_path)
        doc[section] = value
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(netmodel.FileFormatError, match=match):
            load_network(path)

    @pytest.mark.parametrize(
        "key, value", [("n_in", 1.5), ("h", float("inf")), ("k", float("-inf"))]
    )
    def test_non_integral_number_rejected(self, tmp_path, key, value):
        path, doc = self._saved_doc(tmp_path)
        doc["layers"][0][key] = value
        with open(path, "w") as f:
            json.dump(doc, f)  # writes Infinity, which json.load reads back
        with pytest.raises(netmodel.FileFormatError, match=f"layer 0 field '{key}'"):
            load_network(path)

    def test_roshambo_boolean_and_numeric_string_rejected(self, tmp_path):
        # int() would load these as n_out 16 and pad 0
        path = str(tmp_path / "net.json")
        for idx, key, value in [(0, "n_out", "16"), (4, "pad", False)]:
            save_network(presets.network("roshambo"), path)
            with open(path) as f:
                doc = json.load(f)
            doc["layers"][idx][key] = value
            with open(path, "w") as f:
                json.dump(doc, f)
            with pytest.raises(
                netmodel.FileFormatError,
                match=f"layer {idx} field '{key}' is not an integer: {value!r}",
            ):
                load_network(path)

    def test_integral_float_accepted(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["layers"][0]["n_out"] = 4.0
        with open(path, "w") as f:
            json.dump(doc, f)
        assert load_network(path).layers[0].n_out == 4

    @pytest.mark.parametrize(
        "section, key", [("layers", "frac_out"), ("layers", "frac_w"), ("fc", "frac_out")]
    )
    def test_frac_field_out_of_range_rejected(self, tmp_path, section, key):
        path, doc = self._saved_doc(tmp_path)
        doc[section][0][key] = 16
        if key == "frac_out" and section == "layers":
            doc["fc"][0]["frac_in"] = 16  # keep the chain check out of the way
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(ValidationError, match=f"{key} 16 outside \\[0, 15\\]"):
            load_network(path)

    @pytest.mark.parametrize("blob", [b"\xff\xfe{}", b"[" * 100_000])
    def test_undecodable_or_deep_json_rejected(self, tmp_path, blob):
        p = tmp_path / "net.json"
        p.write_bytes(blob)
        with pytest.raises(netmodel.FileFormatError, match="cannot parse"):
            load_network(str(p))

    def test_parse_error(self, tmp_path):
        p = tmp_path / "net.json"
        p.write_text("{not json")
        with pytest.raises(netmodel.FileFormatError):
            load_network(str(p))

    def test_output_dims_formula(self):
        l = LayerDescriptor(n_in=1, n_out=1, h=10, w=12, k=3, pad=1, pool=False)
        assert (l.conv_h, l.conv_w) == (10, 12)
        l2 = LayerDescriptor(n_in=1, n_out=1, h=10, w=12, k=3, pad=0, pool=True)
        assert (l2.out_h, l2.out_w) == (4, 5)

    def test_pad_range(self):
        with pytest.raises(ValidationError):
            LayerDescriptor(n_in=1, n_out=1, h=8, w=8, k=3, pad=4)

    def test_vgg_presets_workload(self):
        # dense workloads of the two reference stacks, in GOp at 2 ops/MAC
        v19 = presets.network("vgg19")
        v16 = presets.network("vgg16")
        assert round(2 * sum(l.dense_macs for l in v19.layers) / 1e9, 2) == 39.07
        assert round(2 * sum(l.dense_macs for l in v16.layers) / 1e9, 2) == 30.69


def test_quantize_kernel_set_roundtrip():
    w = np.array([[[[0.5]]]])
    b = np.array([1.0])
    ks = quantize_kernel_set(w, b, frac_w=8, frac_in=8)
    assert ks.weights[0, 0, 0, 0] == 128
    assert ks.bias[0] == 1 << 16
