"""Sparsity-map compression of feature maps, plus a run-length baseline.

Wire format
-----------
The stream is a sequence of 16-bit *fields* packed two per 32-bit word,
low field first.  A field is either a sparsity-map (SM) segment or a raw
non-zero pixel value.  Pixels are taken in canonical stream order and
grouped 16 at a time; each group contributes one SM segment whose bit ``b``
(bit 0 = least significant) is 1 iff the ``b``-th pixel of the group is
non-zero.  The segment is followed immediately by its non-zero pixel
values in order; an all-zero segment is followed directly by the next
segment.  The first field of a stream is always an SM segment.

Each image row (all channels and columns of one ``y``) starts a fresh SM
segment, so a decoder can keep a pointer to every row and decode rows
independently.  Rows are aligned to 16-bit field boundaries; the stream as
a whole is padded with at most one zero field so it fits 32-bit words, and
that padding is excluded from the field count carried alongside the words.

``.nhc`` container: magic ``NHC1``; little-endian u16 channels, u16 height,
u16 width, u8 frac_bits, u32 word count, u8 trailing-pad flag; then the
32-bit words.

The run-length baseline encodes the same traversal as (5-bit zero-run
length capped at 31, 16-bit value) pairs; a run longer than 31 emits a
(31, 0) pair whose value field consumes the 32nd zero, and trailing zeros
are flushed with a final pair whose value lies past the end of the image.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .fxp import QFormat
from .netmodel import FeatureMapTensor, FileFormatError

SEGMENT_BITS = 16
RL_RUN_BITS = 5
RL_VALUE_BITS = 16
RL_MAX_RUN = 31


class StreamError(ValueError):
    """Malformed compressed stream; ``word_offset`` locates the fault."""

    def __init__(self, msg: str, word_offset: int):
        super().__init__(f"{msg} (at word {word_offset})")
        self.word_offset = word_offset


@dataclass
class CompressedStream:
    """SM-compressed image: packed words plus the true field count.

    ``field_count`` excludes the trailing zero pad field present when the
    number of fields is odd; shape and precision metadata ride along so a
    stream is self-describing.
    """

    words: np.ndarray  # uint32
    field_count: int
    channels: int
    height: int
    width: int
    frac_bits: int

    @property
    def word_count(self) -> int:
        return len(self.words)

    @property
    def padded(self) -> bool:
        return self.field_count % 2 == 1

    @property
    def sm_bits(self) -> int:
        """Encoded size in bits, excluding container padding."""
        return SEGMENT_BITS * self.field_count

    @property
    def byte_size(self) -> int:
        return 4 * self.word_count

    def fields(self) -> np.ndarray:
        """The 16-bit fields as uint16, trailing pad stripped."""
        lo = (self.words & 0xFFFF).astype(np.uint16)
        hi = (self.words >> 16).astype(np.uint16)
        out = np.empty(2 * len(self.words), dtype=np.uint16)
        out[0::2] = lo
        out[1::2] = hi
        return out[: self.field_count]


@dataclass
class RawPixelStream:
    """Encoder-off output: every pixel streamed, two per word, no SMs."""

    words: np.ndarray  # uint32
    pixel_count: int
    channels: int
    height: int
    width: int
    frac_bits: int

    @property
    def byte_size(self) -> int:
        return 4 * len(self.words)


@dataclass
class CompressionReport:
    raw_bits: int
    sm_bits: int
    cis_bits: int
    rl_bits: int
    sparsity: float


# ---------------------------------------------------------------------------
# size model


def cis_bits(pixel_count: int, precision: int, sp: float) -> int:
    """Predicted compressed image size: E*(1 + N*(1 - S_p)) bits, rounded up.

    The ceiling is taken in exact rational arithmetic; a sparsity measured
    as zeros/pixels therefore reproduces the integer E + N*nonzeros without
    float roundoff creeping past the ceiling.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if not 0.0 <= sp <= 1.0:
        raise ValueError("sparsity must be in [0, 1]")
    frac = Fraction(sp).limit_denominator(max(pixel_count, 1))
    return math.ceil(pixel_count * (1 + precision * (1 - frac)))


def threshold_sparsity(precision: int) -> float:
    """Minimum zero fraction for which SM compression shrinks the data: 1/N."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    return 1.0 / precision


# ---------------------------------------------------------------------------
# encode


def _row_pixels(t: FeatureMapTensor, y: int) -> np.ndarray:
    # row y in stream order: columns outer, channels inner
    return np.ascontiguousarray(t.values[:, y, :].T).reshape(-1)


def _encode_row_fields(px: np.ndarray) -> np.ndarray:
    """Interleaved fields (uint16) for one image row."""
    n = len(px)
    mask = px != 0
    n_chunks = -(-n // SEGMENT_BITS)
    idx = np.arange(n)
    chunk_id = idx // SEGMENT_BITS
    bit = idx % SEGMENT_BITS
    sm = np.zeros(n_chunks, dtype=np.int64)
    np.add.at(sm, chunk_id[mask], np.int64(1) << bit[mask])
    nnz_per_chunk = np.bincount(chunk_id[mask], minlength=n_chunks)
    prefix = np.concatenate([[0], np.cumsum(nnz_per_chunk)])[:-1]
    fields = np.zeros(n_chunks + int(nnz_per_chunk.sum()), dtype=np.uint16)
    sm_pos = np.arange(n_chunks) + prefix
    fields[sm_pos] = sm.astype(np.uint16)
    if mask.any():
        rank = np.cumsum(mask) - 1
        val_pos = sm_pos[chunk_id[mask]] + 1 + (rank[mask] - prefix[chunk_id[mask]])
        fields[val_pos] = px[mask].astype(np.int16).view(np.uint16)
    return fields


def _pack_fields(fields: np.ndarray) -> tuple[np.ndarray, int]:
    count = len(fields)
    if count % 2:
        fields = np.concatenate([fields, np.zeros(1, dtype=np.uint16)])
    arr = fields.astype(np.uint32)
    words = arr[0::2] | (arr[1::2] << 16)
    return words, count


def encode(t: FeatureMapTensor) -> CompressedStream:
    """Compress a tensor into the interleaved SM / non-zero-value format."""
    fields = np.concatenate(
        [_encode_row_fields(_row_pixels(t, y)) for y in range(t.height)]
    )
    words, count = _pack_fields(fields)
    return CompressedStream(
        words, count, t.channels, t.height, t.width, t.qformat.frac_bits
    )


def encode_raw(t: FeatureMapTensor) -> RawPixelStream:
    """Pack every pixel (zeros included) two per word, no sparsity maps."""
    px = np.transpose(t.values, (1, 2, 0)).reshape(-1).astype(np.uint16)
    n = len(px)
    if n % 2:
        px = np.concatenate([px, np.zeros(1, dtype=np.uint16)])
    words = px[0::2].astype(np.uint32) | (px[1::2].astype(np.uint32) << 16)
    return RawPixelStream(words, n, t.channels, t.height, t.width, t.qformat.frac_bits)


def decode_raw(s: RawPixelStream) -> FeatureMapTensor:
    lo = (s.words & 0xFFFF).astype(np.uint16)
    hi = (s.words >> 16).astype(np.uint16)
    px = np.empty(2 * len(s.words), dtype=np.uint16)
    px[0::2] = lo
    px[1::2] = hi
    flat = px[: s.pixel_count].astype(np.int16)
    values = flat.reshape(s.height, s.width, s.channels).transpose(2, 0, 1)
    return FeatureMapTensor(np.ascontiguousarray(values), QFormat(s.frac_bits))


# ---------------------------------------------------------------------------
# decode

def field_count_for(t: FeatureMapTensor) -> int:
    """Field count :func:`encode` would produce, without building the stream."""
    row_px = t.width * t.channels
    segs = -(-row_px // SEGMENT_BITS) * t.height
    return segs + int(np.count_nonzero(t.values))


def _check_dims(s: CompressedStream, dims) -> tuple[int, int, int]:
    if dims is None:
        return s.channels, s.height, s.width
    c, h, w = dims
    if (c, h, w) != (s.channels, s.height, s.width):
        raise StreamError(
            f"declared dims {(c, h, w)} disagree with stream header "
            f"{(s.channels, s.height, s.width)}", 0,
        )
    return c, h, w


def iter_rows(s: CompressedStream, dims=None) -> Iterator[tuple[int, np.ndarray]]:
    """Decode row by row, yielding (y, row pixels in stream order).

    Works segment-by-segment; no dense intermediate beyond one image row.
    Raises :class:`StreamError` on truncation, on an SM bit past the end of
    a row, or on fields left over after the last row.
    """
    c, h, w = _check_dims(s, dims)
    fields = s.fields()
    values_i16 = fields.view(np.int16)
    row_px = w * c
    pos = 0  # field cursor
    for y in range(h):
        row = np.zeros(row_px, dtype=np.int16)
        filled = 0
        while filled < row_px:
            if pos >= len(fields):
                raise StreamError(
                    f"truncated stream: row {y} ends after {filled}/{row_px} pixels",
                    pos // 2,
                )
            sm = int(fields[pos])
            pos += 1
            group = min(SEGMENT_BITS, row_px - filled)
            if sm >> group:
                raise StreamError(
                    f"SM marks pixels past the end of row {y}", (pos - 1) // 2
                )
            n_vals = bin(sm).count("1")
            if pos + n_vals > len(fields):
                raise StreamError(
                    f"truncated stream: SM promises {n_vals} pixels, "
                    f"{len(fields) - pos} left", len(fields) // 2,
                )
            b = sm
            while b:
                offset = (b & -b).bit_length() - 1
                row[filled + offset] = values_i16[pos]
                pos += 1
                b &= b - 1
            filled += group
        yield y, row
    if pos != len(fields):
        raise StreamError(
            f"{len(fields) - pos} fields left over after the last row", pos // 2
        )


def decode(s: CompressedStream, dims=None) -> FeatureMapTensor:
    """Exact inverse of :func:`encode`."""
    c, h, w = _check_dims(s, dims)
    values = np.zeros((c, h, w), dtype=np.int16)
    for y, row in iter_rows(s, dims):
        values[:, y, :] = row.reshape(w, c).T
    return FeatureMapTensor(values, QFormat(s.frac_bits))


# ---------------------------------------------------------------------------
# run-length baseline


def rl_encode(t: FeatureMapTensor) -> tuple[int, list[tuple[int, int]]]:
    """Run-length encode; returns (bits used, list of (run, value) pairs)."""
    flat = np.transpose(t.values, (1, 2, 0)).reshape(-1)
    pairs: list[tuple[int, int]] = []
    run = 0
    for v in flat:
        v = int(v)
        if v == 0:
            if run == RL_MAX_RUN:
                pairs.append((RL_MAX_RUN, 0))  # value field consumes this zero
                run = 0
            else:
                run += 1
        else:
            pairs.append((run, v))
            run = 0
    if run:
        pairs.append((run, 0))  # flush; decoder truncates at the pixel count
    return (RL_RUN_BITS + RL_VALUE_BITS) * len(pairs), pairs


def rl_decode(pairs: list[tuple[int, int]], pixel_count: int) -> np.ndarray:
    """Expand (run, value) pairs back to a flat pixel array of known length."""
    out = np.zeros(pixel_count, dtype=np.int16)
    pos = 0
    for run, v in pairs:
        pos += run
        if pos < pixel_count:
            out[pos] = v
        pos += 1
    return out


# ---------------------------------------------------------------------------
# comparison


def report_for(t: FeatureMapTensor, precision: int = 16) -> CompressionReport:
    from .netmodel import sparsity as _sparsity

    sp = _sparsity(t)
    rl_b, _ = rl_encode(t)
    return CompressionReport(
        raw_bits=t.pixel_count * precision,
        sm_bits=SEGMENT_BITS * field_count_for(t),
        cis_bits=cis_bits(t.pixel_count, precision, sp),
        rl_bits=rl_b,
        sparsity=sp,
    )


def compare_codecs(corpus, precision: int = 16) -> list[CompressionReport]:
    """Per-tensor raw/SM/RL/CIS sizes for a non-empty corpus."""
    reports = [report_for(t, precision) for t in corpus]
    if not reports:
        raise ValueError("corpus is empty")
    return reports


# ---------------------------------------------------------------------------
# .nhc container

_STREAM_MAGIC = b"NHC1"


def save_stream(s: CompressedStream, path: str) -> None:
    with open(path, "wb") as f:
        f.write(_STREAM_MAGIC)
        f.write(
            struct.pack(
                "<HHHBIB",
                s.channels, s.height, s.width, s.frac_bits,
                s.word_count, 1 if s.padded else 0,
            )
        )
        f.write(s.words.astype("<u4").tobytes())


def load_stream(path: str) -> CompressedStream:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _STREAM_MAGIC:
        raise FileFormatError(f"{path}: bad magic, not a compressed stream")
    if len(blob) < 16:
        raise FileFormatError(f"{path}: truncated header")
    c, h, w, frac, n_words, pad_flag = struct.unpack("<HHHBIB", blob[4:16])
    if pad_flag not in (0, 1):
        raise FileFormatError(f"{path}: trailing-pad flag {pad_flag}, expected 0 or 1")
    expected = 16 + 4 * n_words
    if len(blob) != expected:
        raise FileFormatError(f"{path}: expected {expected} bytes, got {len(blob)}")
    words = np.frombuffer(blob, dtype="<u4", offset=16).astype(np.uint32)
    return CompressedStream(words, 2 * n_words - pad_flag, c, h, w, frac)
