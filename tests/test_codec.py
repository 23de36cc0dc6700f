import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    iter_nonzero,
    random_tensor,
    reference_compare_codecs_rows,
    reference_decode,
    reference_encode,
    rl_decode,
    row_field_offsets,
    stream_order_iter,
)
from nhsim import codec, netmodel
from nhsim.cli import compare_codecs_cmd
from nhsim.codec import (
    CompressedStream,
    StreamError,
    batch_sizes,
    cis_bits,
    decode,
    decode_raw,
    encode,
    encode_raw,
    load_stream,
    rl_encode,
    row_segments,
    save_stream,
    sparsity_maps,
    threshold_sparsity,
)
from nhsim.fxp import QFormat
from nhsim.netmodel import FeatureMapTensor


def tensor(flat, c, h, w, frac=8):
    arr = np.asarray(flat, dtype=np.int16).reshape(h, w, c).transpose(2, 0, 1)
    return FeatureMapTensor(np.ascontiguousarray(arr), QFormat(frac))


def sizes_of(t: FeatureMapTensor, precision: int = 16) -> dict:
    """:func:`batch_sizes` of the one tensor ``t``, as Python numbers."""
    return {key: v.item() for key, v in batch_sizes(t.values[None], precision).items()}


def walk_grammar(s: CompressedStream):
    """Independent re-parse: classify fields, return (sm_fields, value_fields)."""
    fields = s.fields()
    row_px = s.width * s.channels
    sms, vals = [], []
    pos = 0
    for _ in range(s.height):
        filled = 0
        while filled < row_px:
            sm = int(fields[pos])
            sms.append(sm)
            pos += 1
            for _ in range(bin(sm).count("1")):
                vals.append(int(fields[pos]))
                pos += 1
            filled += min(codec.SEGMENT_BITS, row_px - filled)
    assert pos == len(fields)
    return sms, vals


class TestEncodeExamples:
    def test_all_zero_rows_emit_one_segment_each(self):
        # 4x4 single channel, all zero: one all-zero SM per image row
        t = tensor([0] * 16, c=1, h=4, w=4)
        s = encode(t)
        assert s.fields().tolist() == [0, 0, 0, 0]
        assert s.word_count == 2

    def test_single_nonzero_in_16px_row(self):
        flat = [0] * 16
        flat[0] = 5
        s = encode(tensor(flat, c=1, h=1, w=16))
        assert s.fields().tolist() == [0x0001, 0x0005]
        assert s.words.tolist() == [0x00050001]

    def test_32_zero_pixels_back_to_back_segments(self):
        s = encode(tensor([0] * 32, c=1, h=1, w=32))
        assert s.fields().tolist() == [0x0000, 0x0000]
        assert s.word_count == 1

    def test_first_field_is_always_sm(self, rng):
        for _ in range(20):
            c, h, w = rng.integers(1, 5), rng.integers(1, 6), rng.integers(1, 20)
            t = netmodel.synthetic_tensor(int(c), int(h), int(w), 0.5, rng)
            walk_grammar(encode(t))  # would throw if field 0 were a value

    def test_lsb_maps_to_first_pixel_of_group(self):
        flat = [0] * 16
        flat[3] = 9
        s = encode(tensor(flat, c=1, h=1, w=16))
        assert s.fields().tolist() == [1 << 3, 9]

    def test_negative_values_roundtrip_two_complement(self):
        flat = [0, -1, 0, -32768] + [0] * 12
        t = tensor(flat, c=1, h=1, w=16)
        s = encode(t)
        assert s.fields().tolist() == [0b1010, 0xFFFF, 0x8000]
        assert np.array_equal(decode(s).values, t.values)


class TestDecode:
    def test_worked_example(self):
        s = CompressedStream(
            np.array([0x00050001], dtype=np.uint32), 2, 1, 1, 16, 8
        )
        t = decode(s)
        assert t.values[0, 0, 0] == 5
        assert np.count_nonzero(t.values) == 1

    def test_truncated_stream_promising_pixels(self):
        # SM promises 3 pixels but the stream ends after 1
        s = CompressedStream(
            np.array([0x0005_0007], dtype=np.uint32), 2, 1, 1, 16, 8
        )
        with pytest.raises(StreamError, match="truncated"):
            decode(s)

    def test_truncated_stream_missing_rows(self):
        s = CompressedStream(np.array([0x0, 0x0], dtype=np.uint32), 4, 1, 8, 16, 8)
        with pytest.raises(StreamError, match="truncated"):
            decode(s)

    def test_overrun_of_declared_dims(self):
        # 4-pixel row but SM bit 7 set
        s = CompressedStream(np.array([1 << 7], dtype=np.uint32), 1, 1, 1, 4, 8)
        with pytest.raises(StreamError, match="past the end"):
            decode(s)

    def test_leftover_fields(self):
        s = CompressedStream(np.array([0x0, 0x0], dtype=np.uint32), 4, 1, 1, 16, 8)
        with pytest.raises(StreamError, match="left over"):
            decode(s)

    @pytest.mark.parametrize("block_bytes", [1, 40, 1000])
    def test_decode_in_row_blocks_equals_reference(self, monkeypatch, rng, block_bytes):
        monkeypatch.setattr(codec, "_DECODE_BLOCK_BYTES", block_bytes)
        for c, h, w, sp in [(3, 9, 7, 0.6), (1, 5, 16, 0.0), (8, 12, 5, 1.0), (5, 11, 9, 0.9)]:
            t = netmodel.synthetic_tensor(c, h, w, sp, rng)
            s = encode(t)
            assert np.array_equal(decode(s).values, reference_decode(s))

    def test_sparse_decode_peak_below_old_row_decoder(self, rng):
        # the per-row decoder this one replaced peaked at 2.03 MiB here,
        # one pixel mask for the whole tensor at 2.55 MiB
        v = rng.integers(1, 2000, size=(64, 112, 112)).astype(np.int16)
        v[rng.random(v.shape) < 0.9] = 0
        s = encode(FeatureMapTensor(v, QFormat(8)))
        tracemalloc.start()
        try:
            back = decode(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values, v)
        assert peak < 2.03 * 2**20

    def test_error_carries_word_offset(self):
        s = CompressedStream(
            np.array([0x0005_0007], dtype=np.uint32), 2, 1, 1, 16, 8
        )
        with pytest.raises(StreamError) as exc:
            decode(s)
        assert exc.value.word_offset >= 0


@st.composite
def tensors(draw):
    c = draw(st.integers(1, 6))
    h = draw(st.integers(1, 10))
    w = draw(st.integers(1, 24))
    sparsity = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    vals = rng.integers(-32768, 32768, size=(c, h, w))
    mask = rng.random((c, h, w)) >= sparsity
    return FeatureMapTensor((vals * mask).astype(np.int16), QFormat(draw(st.integers(0, 15))))


class TestRoundtripProperties:
    @settings(max_examples=300, deadline=None)
    @given(tensors())
    def test_roundtrip_identity(self, t):
        back = decode(encode(t))
        assert np.array_equal(back.values, t.values)
        assert back.qformat == t.qformat

    @settings(max_examples=200, deadline=None)
    @given(tensors())
    def test_count_conservation(self, t):
        s = encode(t)
        sms, vals = walk_grammar(s)
        nnz = int(np.count_nonzero(t.values))
        assert len(vals) == nnz
        assert sum(bin(sm).count("1") for sm in sms) == nnz
        assert s.sm_bits == sizes_of(t)["sm_bits"]

    @settings(max_examples=200, deadline=None)
    @given(tensors())
    def test_size_law(self, t):
        s = encode(t)
        cis = cis_bits(t.pixel_count, 16, netmodel.sparsity(t))
        assert s.sm_bits >= cis
        assert s.sm_bits - cis <= 16 * t.height  # row alignment padding only
        if (t.width * t.channels) % 16 == 0:
            assert s.sm_bits == cis

    @settings(max_examples=100, deadline=None)
    @given(tensors())
    def test_iter_nonzero_matches_dense_scan(self, t):
        got = sorted(iter_nonzero(encode(t)))
        want = sorted(
            (i, x, y, v)
            for (i, x, y, v) in stream_order_iter(t)
            if v != 0
        )
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(tensors())
    def test_row_offsets_point_at_sm_segments(self, t):
        s = encode(t)
        offs = row_field_offsets(s)
        assert offs[0] == 0
        assert len(offs) == t.height
        assert all(np.diff(offs) >= 1)

    @settings(max_examples=100, deadline=None)
    @given(tensors())
    def test_raw_stream_roundtrip(self, t):
        back = decode_raw(encode_raw(t))
        assert np.array_equal(back.values, t.values)


def decode_outcome(decoder, s: CompressedStream):
    """("ok", values) or ("error", message, word offset) of one decode."""
    try:
        return ("ok", decoder(s).tolist())
    except StreamError as e:
        return ("error", str(e), e.word_offset)


@st.composite
def corrupted_streams(draw):
    """A valid stream with one flipped bit, a field count moved by up to 2
    or set anywhere up to twice the words plus 4, or words dropped from the
    end under a field count that fills the words left."""
    s = reference_encode(draw(tensors()))
    words, count = s.words.copy(), s.field_count
    kind = draw(st.sampled_from(["flip", "count", "drop"]))
    if kind == "flip":
        i = draw(st.integers(0, len(words) - 1))
        words[i] ^= np.uint32(1) << np.uint32(draw(st.integers(0, 31)))
    elif kind == "count":
        count = draw(
            st.sampled_from([count - 2, count - 1, count + 1, count + 2])
            | st.integers(-2, 2 * len(words) + 4)
        )
    else:
        words = words[: draw(st.integers(0, len(words) - 1))]
        count = max(0, 2 * len(words) - draw(st.integers(0, 1)))
    return CompressedStream(words, count, s.channels, s.height, s.width, s.frac_bits)


class TestMatchesReference:
    """The vectorised codec against the row-by-row encoder and bit-by-bit
    decoder in conftest: equal streams, values and errors."""

    @settings(max_examples=300, deadline=None)
    @given(tensors())
    def test_encode_equals_reference(self, t):
        got, want = encode(t), reference_encode(t)
        assert got.words.dtype == np.uint32
        assert got.words.tolist() == want.words.tolist()
        assert got.field_count == want.field_count

    @settings(max_examples=200, deadline=None)
    @given(tensors())
    def test_decode_equals_reference(self, t):
        s = reference_encode(t)
        got = decode(s)
        assert got.values.dtype == np.int16
        assert np.array_equal(got.values, reference_decode(s))

    @settings(max_examples=500, deadline=None)
    @given(corrupted_streams())
    def test_corrupted_stream_same_outcome(self, s):
        got = decode_outcome(lambda x: decode(x).values, s)
        assert got == decode_outcome(reference_decode, s)


class TestSparsityMaps:
    def test_bits_follow_stream_order(self):
        # 2 channels x 9 columns = 18 pixels a row: two segments, the
        # second holding 2 pixels
        flat = [0] * 18
        flat[0], flat[3], flat[16], flat[17] = 1, -2, 3, 4
        t = tensor(flat + [0] * 17 + [5], c=2, h=2, w=9)
        assert sparsity_maps(t.values != 0).tolist() == [[0b1001, 0b11], [0, 0b10]]
        assert row_segments(9, 2) == 2
        assert encode(t).field_count == 2 * 2 + 5

    def test_fields_are_a_read_only_view_of_the_words(self, rng):
        s = encode(netmodel.synthetic_tensor(3, 4, 7, 0.5, rng))
        f = s.fields()
        assert np.shares_memory(f, s.words)
        assert not f.flags.writeable
        assert len(f) == s.field_count

    def test_raw_words_pack_low_pixel_first(self):
        t = tensor([1, -1, 2], c=1, h=1, w=3)
        raw = encode_raw(t)
        assert raw.words.tolist() == [0xFFFF_0001, 0x0000_0002]
        assert np.array_equal(decode_raw(raw).values, t.values)


class TestSizeModel:
    def test_cis_lower_limit_at_full_sparsity(self):
        assert cis_bits(100, 16, 1.0) == 100
        assert cis_bits(100, 8, 1.0) == 100

    def test_cis_dense(self):
        assert cis_bits(16, 16, 0.0) == 272  # 16 * (1 + 16)

    def test_cis_break_even_at_threshold(self):
        assert cis_bits(1000, 16, 0.0625) == 16000  # raw size E*N

    def test_threshold_table(self):
        assert threshold_sparsity(8) == 1 / 8
        assert threshold_sparsity(12) == 1 / 12
        assert threshold_sparsity(16) == 1 / 16
        assert threshold_sparsity(24) == 1 / 24
        assert threshold_sparsity(32) == 1 / 32

    def test_cis_strictly_decreasing_in_sparsity(self):
        vals = [cis_bits(10000, 16, sp) for sp in np.linspace(0, 1, 21)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            cis_bits(10, 0, 0.5)
        with pytest.raises(ValueError):
            cis_bits(10, 16, 1.5)
        with pytest.raises(ValueError):
            threshold_sparsity(0)


class TestRunLength:
    def test_dense_16_pixels_inflate(self):
        bits, pairs = rl_encode(tensor([3] * 16, 1, 1, 16))
        assert len(pairs) == 16
        assert bits == 336  # 16 pairs of 21 bits > 256 raw

    def test_all_zero_31_pixels_single_pair(self):
        bits, pairs = rl_encode(tensor([0] * 31, 1, 1, 31))
        assert pairs == [(31, 0)]
        assert bits == 21

    def test_single_nonzero_at_start(self):
        flat = [0] * 16
        flat[0] = 7
        bits, pairs = rl_encode(tensor(flat, 1, 1, 16))
        assert pairs == [(0, 7), (15, 0)]
        assert bits == 42

    def test_run_longer_than_31_emits_zero_value_pair(self):
        flat = [0] * 40 + [9]
        bits, pairs = rl_encode(tensor(flat, 1, 1, 41))
        assert pairs == [(31, 0), (8, 9)]

    def test_roundtrip_with_truncation(self, rng):
        for _ in range(50):
            c = int(rng.integers(1, 4))
            h = int(rng.integers(1, 6))
            w = int(rng.integers(1, 40))
            t = netmodel.synthetic_tensor(c, h, w, float(rng.uniform(0, 1)), rng)
            _, pairs = rl_encode(t)
            flat = np.transpose(t.values, (1, 2, 0)).reshape(-1)
            assert np.array_equal(rl_decode(pairs, t.pixel_count), flat)


@st.composite
def zero_runs(draw):
    """1 x 1 x w tensors built from zero runs around the 32-zero escape."""
    run = st.sampled_from([0, 1, 30, 31, 32, 33, 63, 64, 65]) | st.integers(0, 100)
    value = st.integers(-32768, 32767).filter(lambda v: v != 0)
    flat = []
    for n, v in draw(st.lists(st.tuples(run, value), max_size=4)):  # w <= 504
        flat += [0] * n + [v]
    flat += [0] * draw(run)
    if not flat:
        flat = [0]
    return tensor(flat, 1, 1, len(flat))


class TestRunLengthSize:
    @settings(max_examples=300, deadline=None)
    @given(zero_runs() | tensors())
    def test_closed_form_equals_encoder(self, t):
        assert sizes_of(t)["rl_bits"] == rl_encode(t)[0]

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65, 96])
    def test_all_zero(self, n):
        t = tensor([0] * n, 1, 1, n)
        assert sizes_of(t)["rl_bits"] == rl_encode(t)[0] == 21 * (n // 32 + (n % 32 > 0))

    def test_report_uses_closed_form(self, rng):
        # compare-codecs reports the closed form on bursty stand-ins
        t = netmodel.synthetic_tensor(2, 24, 24, 0.8, rng, burst_mean=40.0)
        assert sizes_of(t)["rl_bits"] == rl_encode(t)[0]


class TestCompare:
    def test_report_fields_consistent(self, rng):
        t = netmodel.synthetic_tensor(2, 8, 16, 0.5, rng)
        r = sizes_of(t)
        assert r["raw_bits"] == t.pixel_count * 16
        assert r["sm_bits"] >= r["cis_bits"]
        assert 0.0 <= r["sparsity"] <= 1.0

    def test_empty_corpus_rejected(self):
        out = io.StringIO()
        with pytest.raises(netmodel.ValidationError, match="corpus is empty"):
            compare_codecs_cmd([], corpus=[], file=out)
        assert out.getvalue() == ""


class TestBatchSizes:
    """One size formula over a batch, against the encoders one tensor at a time."""

    @staticmethod
    def assert_sizes_match_codecs(ts, precision=16):
        values = np.stack([t.values for t in ts])
        for given in (values, values != 0):
            sizes = batch_sizes(given, precision)
            assert all(len(v) == len(ts) for v in sizes.values())
            assert sizes["sparsity"].dtype == np.float64
            for key in ("raw_bits", "sm_bits", "cis_bits", "rl_bits"):
                assert sizes[key].dtype == np.int64
            for i, t in enumerate(ts):
                sp = netmodel.sparsity(t)
                assert sizes["raw_bits"][i] == t.pixel_count * precision
                assert sizes["sm_bits"][i] == codec.SEGMENT_BITS * encode(t).field_count
                assert sizes["rl_bits"][i] == rl_encode(t)[0]
                assert sizes["cis_bits"][i] == cis_bits(t.pixel_count, precision, sp)
                assert sizes["sparsity"][i] == sp

    @pytest.mark.parametrize("precision", [1, 8, 16])
    def test_matches_per_tensor_codecs(self, rng, precision):
        for c, h, w in [(1, 1, 1), (2, 24, 24), (3, 5, 7), (16, 3, 40)]:
            ts = [
                FeatureMapTensor(np.zeros((c, h, w), dtype=np.int16), QFormat(8)),
                FeatureMapTensor(np.full((c, h, w), -3, dtype=np.int16), QFormat(8)),
            ]
            for sp in (0.3, 0.82, 0.97):
                ts.append(netmodel.synthetic_tensor(c, h, w, sp, rng))
                ts.append(netmodel.synthetic_tensor(c, h, w, sp, rng, burst_mean=40.0))
            ts.append(random_tensor(rng, c, h, w, sparsity=float(rng.random())))
            rng.shuffle(ts)  # zero runs on both sides of each row boundary
            self.assert_sizes_match_codecs(ts, precision)
            assert len(batch_sizes(np.zeros((0, c, h, w), dtype=bool))["rl_bits"]) == 0

    def test_zero_runs_around_the_escape(self):
        # a row ends in 31, 32 or 33 zeros (or none), and the next row starts
        # with zeros: no run crosses the rows
        w = 120
        rows = []
        for lead in (0, 1, 31, 32, 33, 64, 65):
            for trail in (0, 31, 32, 33):
                flat = [0] * lead + [5] + [0] * (w - lead - 2 - trail) + [-7] + [0] * trail
                rows.append(tensor(flat, 1, 1, w))
        rows += [tensor([0] * w, 1, 1, w), tensor([1] * w, 1, 1, w)]
        self.assert_sizes_match_codecs(rows)

    @pytest.mark.parametrize("n", [1, 7, 16, 1152])
    def test_cis_model_is_the_integer_count(self, n):
        # limit_denominator(n) recovers z / n exactly, so the float model
        # gives the closed form at every measured zero fraction
        for precision in (1, 8, 16):
            for z in range(n + 1):
                assert cis_bits(n, precision, z / n) == n + precision * (n - z)

    def test_per_tensor_sizes_route_through_the_batch(self, rng):
        t = netmodel.synthetic_tensor(3, 5, 7, 0.6, rng, burst_mean=8.0)
        # one tensor's sizes are a batch of one
        self.assert_sizes_match_codecs([t], 12)

    def test_precision_past_int64_rejected(self):
        with pytest.raises(netmodel.ValidationError, match="overflows 64-bit sizes"):
            batch_sizes(np.ones((1, 2, 24, 24), dtype=bool), 1 << 62)
        with pytest.raises(ValueError, match="precision must be >= 1"):
            batch_sizes(np.ones((1, 1, 1, 1), dtype=bool), 0)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_sweep_rows_match_per_tensor_reference(self, seed):
        # 1, 55 and 113 trials: a group of one, one short of a full group of
        # 56, and two full groups and one trial more
        points = [0.0, 0.3, 0.82, 1.0]
        for trials in (1, 55, 113):
            rows = compare_codecs_cmd(points, 16, trials, seed, file=io.StringIO())
            assert rows == reference_compare_codecs_rows(points, 16, trials, seed)


class TestContainer:
    @pytest.mark.parametrize("flat", [[0, 0, -4, 0, 0, 8] + [0] * 10, [7] * 5 + [0] * 11])
    def test_saved_bytes(self, tmp_path, flat):
        # 3 fields (odd, one pad field) and 6 fields (even)
        s = encode(tensor(flat, 1, 1, 16, frac=5))
        path = tmp_path / "s.nhc"
        save_stream(s, str(path))
        header = struct.pack("<HHHBIB", 1, 1, 16, 5, s.word_count, int(s.padded))
        assert path.read_bytes() == b"NHC1" + header + s.words.astype("<u4").tobytes()

    def test_stream_file_roundtrip_odd_fields(self, rng, tmp_path):
        flat = [0] * 16
        flat[2] = -4
        flat[5] = 8
        t = tensor(flat, 1, 1, 16)
        s = encode(t)
        assert s.padded  # 3 fields -> trailing pad
        path = str(tmp_path / "s.nhc")
        save_stream(s, path)
        back = load_stream(path)
        assert back.field_count == s.field_count
        assert np.array_equal(back.words, s.words)
        assert np.array_equal(decode(back).values, t.values)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.nhc"
        p.write_bytes(b"ZZZZ" + b"\x00" * 20)
        with pytest.raises(netmodel.FileFormatError):
            load_stream(str(p))

    def test_bad_pad_flag(self, tmp_path):
        t = tensor([i % 3 for i in range(32)], 2, 4, 4)
        path = tmp_path / "s.nhc"
        save_stream(encode(t), str(path))
        blob = bytearray(path.read_bytes())
        blob[15] = 7  # the trailing-pad flag byte
        path.write_bytes(bytes(blob))
        with pytest.raises(netmodel.FileFormatError, match="pad flag 7"):
            load_stream(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "s.nhc"
        path.write_bytes(b"NHC1" + b"\x00" * 6)
        with pytest.raises(netmodel.FileFormatError, match="truncated header"):
            load_stream(str(path))

    def test_frac_bits_out_of_range(self, tmp_path):
        path = tmp_path / "s.nhc"
        save_stream(encode(tensor([1, 0, 2, 0], 1, 2, 2)), str(path))
        blob = bytearray(path.read_bytes())
        blob[10] = 200  # the frac_bits byte
        path.write_bytes(bytes(blob))
        with pytest.raises(netmodel.FileFormatError, match="frac_bits 200 outside"):
            load_stream(str(path))


class TestDecodeHeader:
    """decode checks an in-memory stream's header before sizing buffers."""

    def test_frac_bits_out_of_range(self):
        s = CompressedStream(np.array([0x00050001], dtype=np.uint32), 2, 1, 1, 16, 16)
        with pytest.raises(StreamError, match="frac_bits 16 outside"):
            decode(s)

    @pytest.mark.parametrize("count", [14, 5, 0, -1])
    def test_field_count_the_words_cannot_hold(self, count):
        # a 1x1x8 stream of 2 words holds 3 or 4 fields
        s = encode(tensor([1, 2, 0, 0, 0, 0, 0, 0], 1, 1, 8))
        assert (s.word_count, s.field_count) == (2, 3)
        bad = CompressedStream(s.words, count, 1, 1, 8, 8)
        with pytest.raises(StreamError, match=f"field count {count} does not fill 2 words"):
            decode(bad)
        with pytest.raises(StreamError, match="does not fill") as exc:
            reference_decode(bad)
        assert exc.value.word_offset == 0

    _BAD_DIMS = {
        (1025, 1, 1): "channels 1025 outside", (1, 513, 1): "height 513 outside",
        (65535, 65535, 65535): "channels 65535 outside", (0, 1, 1): "channels 0 outside",
        (1, 0, 1): "height 0 outside", (1, 1, 0): "width 0 outside",
    }

    @pytest.mark.parametrize("dims", list(_BAD_DIMS))
    def test_dims_beyond_limits(self, dims):
        s = CompressedStream(np.zeros(1, dtype=np.uint32), 2, *dims, 8)
        with pytest.raises(StreamError, match=self._BAD_DIMS[dims]) as exc:
            decode(s)
        assert exc.value.word_offset == 0
