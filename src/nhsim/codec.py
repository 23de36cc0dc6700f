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

Decoding
--------
An SM segment is followed by exactly as many values as it has set bits,
so each header fixes where the next one starts.  :func:`decode` chases the
headers from field 0 with one integer add per segment and checks each
row's last SM for bits past the row end.  It then unpacks the SMs of a
block of rows at a time into a pixel mask of at most 64 KiB and places
that block's non-SM fields with one boolean scatter.  A stream whose field
count does not fill its words exactly (``ceil(field_count / 2)`` words)
raises :class:`StreamError` at word 0, with the other header checks;
otherwise a malformed stream raises at the first fault met in stream
order: an SM past the row end, an SM promising more values than remain, a
row the stream ends inside, or fields left after the last row.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fxp import QFormat
from .netmodel import (
    FeatureMapTensor,
    FileFormatError,
    ValidationError,
    _check_limits,
    _Layout,
    _read_file,
    _write_file,
)

SEGMENT_BITS = 16
# bytes of pixel mask that decode unpacks per block of rows (at least one row)
_DECODE_BLOCK_BYTES = 1 << 16
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

    def fields(self) -> np.ndarray:
        """Read-only uint16 view of the fields, trailing pad stripped."""
        out = np.ascontiguousarray(self.words, dtype="<u4").view("<u2")
        out = out[: self.field_count]
        out.flags.writeable = False
        return out


@dataclass
class RawPixelStream:
    """Encoder-off output: every pixel streamed, two per word, no SMs."""

    words: np.ndarray  # uint32
    pixel_count: int
    channels: int
    height: int
    width: int
    frac_bits: int


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
# sparsity maps


def row_segments(w: int, c: int) -> int:
    """SM segments per image row: every row starts a fresh segment."""
    return -(-(w * c) // SEGMENT_BITS)


_MASK_BLOCK_BYTES = 1 << 18


def nonzero_mask(values: np.ndarray) -> np.ndarray:
    """(c, h, w) bool mask of the non-zero pixels of (c, h, w) ``values``.

    It is a view of a C-order (h, w, c) buffer, the stream order, so
    :func:`sparsity_maps` packs it without a copy.  Rows are tested in
    their own order, then transposed a block of at most ``_MASK_BLOCK_BYTES``
    at a time, which is several times faster than testing in stream order.
    """
    c, h, w = values.shape
    mask = np.empty((h, w, c), dtype=bool)
    rows = max(1, _MASK_BLOCK_BYTES // (c * w))
    block = np.empty((c, min(rows, h), w), dtype=bool)
    for y in range(0, h, rows):
        n = min(rows, h - y)
        np.not_equal(values[:, y : y + n], 0, out=block[:, :n])
        mask[y : y + n] = block[:, :n].transpose(1, 2, 0)
    return mask.transpose(2, 0, 1)


def sparsity_maps(mask: np.ndarray) -> np.ndarray:
    """(h, segments) uint16 SM words of a (c, h, w) bool non-zero mask.

    Bit ``b`` of segment ``s`` of row ``y`` is 1 iff pixel ``16*s + b`` of
    that row, in stream order, is non-zero; bits past the row end are 0.
    A mask from :func:`nonzero_mask` packs without a copy.
    """
    c, h, w = mask.shape
    buf = np.zeros((h, 2 * row_segments(w, c)), dtype=np.uint8)
    bits = np.packbits(mask.transpose(1, 2, 0).reshape(h, w * c), axis=1, bitorder="little")
    buf[:, : bits.shape[1]] = bits
    return buf.view("<u2")


# ---------------------------------------------------------------------------
# encode


def encode(t: FeatureMapTensor) -> CompressedStream:
    """Compress a tensor into the interleaved SM / non-zero-value format."""
    c, h, w = t.values.shape
    mask = nonzero_mask(t.values)
    sm = sparsity_maps(mask).reshape(-1)
    nonzero = t.values.transpose(1, 2, 0)[mask.transpose(1, 2, 0)]  # stream order
    del mask  # one byte a pixel: free it before the field buffers exist
    sizes = np.bitwise_count(sm) + np.uint8(1)  # each SM and its values
    starts = np.cumsum(sizes, dtype=np.int64)
    count = int(starts[-1])
    starts -= sizes
    fields = np.zeros(count + count % 2, dtype="<u2")
    fields[starts] = sm
    is_value = np.ones(count, dtype=bool)
    is_value[starts] = False
    fields[:count][is_value] = nonzero.view(np.uint16)
    return CompressedStream(fields.view("<u4"), count, c, h, w, t.qformat.frac_bits)


def encode_raw(t: FeatureMapTensor) -> RawPixelStream:
    """Pack every pixel (zeros included) two per word, no sparsity maps."""
    n = t.values.size
    px = np.zeros(n + n % 2, dtype="<i2")
    px[:n].reshape(t.height, t.width, t.channels)[...] = t.values.transpose(1, 2, 0)
    return RawPixelStream(
        px.view("<u4"), n, t.channels, t.height, t.width, t.qformat.frac_bits
    )


def decode_raw(s: RawPixelStream) -> FeatureMapTensor:
    px = np.ascontiguousarray(s.words, dtype="<u4").view("<i2")[: s.pixel_count]
    values = px.astype(np.int16).reshape(s.height, s.width, s.channels)
    return FeatureMapTensor(values.transpose(2, 0, 1), QFormat(s.frac_bits))


# ---------------------------------------------------------------------------
# decode


def _check_header(s: CompressedStream) -> tuple[int, int, int]:
    # checked before any buffer is sized from the header
    _check_limits(
        "stream header", lambda msg: StreamError(msg, 0),
        channels=s.channels, height=s.height, width=s.width, frac_bits=s.frac_bits,
    )
    if s.field_count < 0 or s.word_count != -(-s.field_count // 2):
        raise StreamError(
            f"field count {s.field_count} does not fill {s.word_count} words", 0
        )
    return s.channels, s.height, s.width


def _segment_starts(fields: np.ndarray, n_segs: int) -> tuple[np.ndarray, int]:
    """Field offsets of the SM segments, chased from field 0.

    Each SM is followed by as many values as it has set bits.  Returns the
    offsets of the segments that start inside the stream (at most
    ``n_segs``) and the offset just past the last of them.
    """
    step = memoryview(np.bitwise_count(fields) + np.uint8(1))
    starts = np.empty(n_segs, dtype=np.int64)
    at = memoryview(starts)
    pos = 0
    try:
        for i in range(n_segs):
            at[i] = pos
            pos += step[pos]
    except IndexError:  # segment i would start at or past the stream end
        return starts[:i], pos
    return starts, pos


def decode(s: CompressedStream) -> FeatureMapTensor:
    """Exact inverse of :func:`encode`.

    Raises :class:`StreamError` on a header fault (dims or ``frac_bits``
    out of range, a field count that does not fill the words), on
    truncation, on an SM bit past the end of a row, or on fields left over
    after the last row; when a stream has several faults in its fields, the
    one met first in stream order is reported.
    """
    c, h, w = _check_header(s)
    row_px = w * c
    segs = row_segments(w, c)
    fields = s.fields()
    n_fields = len(fields)
    starts, end = _segment_starts(fields, h * segs)

    # a row's last SM covers row_px - 16*(segs-1) pixels; higher bits overrun
    tail_px = row_px - SEGMENT_BITS * (segs - 1)
    if tail_px < SEGMENT_BITS:
        tails = starts[segs - 1 :: segs]
        bad = np.flatnonzero(fields[tails] >> tail_px)
        if len(bad):
            y = int(bad[0])
            raise StreamError(f"SM marks pixels past the end of row {y}", int(tails[y]) // 2)
    if end > n_fields:
        n_vals = int(np.bitwise_count(fields[starts[-1]]))
        raise StreamError(
            f"truncated stream: SM promises {n_vals} pixels, "
            f"{n_fields - int(starts[-1]) - 1} left", n_fields // 2,
        )
    if len(starts) < h * segs:
        y, seg = divmod(len(starts), segs)
        raise StreamError(
            f"truncated stream: row {y} ends after {SEGMENT_BITS * seg}/{row_px} pixels",
            end // 2,
        )
    if end != n_fields:
        raise StreamError(f"{n_fields - end} fields left over after the last row", end // 2)

    maps = fields[starts].reshape(h, segs).view(np.uint8)
    nonzero = np.delete(fields, starts).view(np.int16)
    del starts  # eight bytes a segment: free it before the pixels exist
    values = np.zeros((h, w, c), dtype=np.int16)
    rows = values.reshape(h, row_px)
    block = max(1, _DECODE_BLOCK_BYTES // max(1, row_px))
    done = 0
    for y in range(0, h, block):
        mask = np.unpackbits(
            maps[y : y + block], axis=1, count=row_px, bitorder="little"
        ).view(bool)
        n = np.count_nonzero(mask)
        rows[y : y + block][mask] = nonzero[done : done + n]
        done += n
    return FeatureMapTensor(values.transpose(2, 0, 1), QFormat(s.frac_bits))


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


# ---------------------------------------------------------------------------
# comparison


def batch_sizes(values: np.ndarray, precision: int = 16) -> dict[str, np.ndarray]:
    """Raw, SM, CIS and RL bits (int64) and zero fractions of T tensors.

    ``values`` is a (T, c, h, w) array of pixel values or non-zero flags.
    CIS bits are ``N + precision * nonzeros``, which :func:`cis_bits` gives
    at the measured sparsity when N < 2**26.  RL bits take one pair per
    non-zero pixel, one (31, 0) pair per 32 zeros of a run (its value field
    the 32nd zero) and a flush pair for zeros left over at the end.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    count, c, h, w = values.shape
    n = c * h * w
    if n * (precision + 1) > np.iinfo(np.int64).max:
        raise ValidationError(f"precision {precision} overflows 64-bit sizes")
    # each stream-order row ends in one extra non-zero pixel, so that every
    # zero run, the trailing one too, is the run before a non-zero pixel
    flags = np.ones((count, n + 1), dtype=bool)
    np.not_equal(np.moveaxis(values, -3, -1), 0, out=flags[:, :n].reshape(count, h, w, c))
    nnz = np.count_nonzero(flags, axis=1) - 1
    per_pair = RL_MAX_RUN + 1
    runs = np.diff(np.flatnonzero(flags), prepend=-1) - 1  # zeros before each flag
    ends = np.cumsum(nnz + 1) - 1  # each row's extra pixel
    escapes = np.diff(np.cumsum(runs // per_pair)[ends], prepend=0)
    rl_pairs = nnz + escapes + (runs[ends] % per_pair > 0)
    return {
        "raw_bits": np.full(count, n * precision, dtype=np.int64),
        "sm_bits": SEGMENT_BITS * (row_segments(w, c) * h + nnz),
        "cis_bits": n + precision * nnz,
        "rl_bits": (RL_RUN_BITS + RL_VALUE_BITS) * rl_pairs,
        "sparsity": (n - nnz) / n,
    }


# ---------------------------------------------------------------------------
# .nhc container

_STREAM_FILE = _Layout(
    b"NHC1", "<HHHBIB", "compressed stream", lambda c, h, w, frac, words, pad: 4 * words
)


def save_stream(s: CompressedStream, path: str) -> None:
    header = (s.channels, s.height, s.width, s.frac_bits, s.word_count, int(s.padded))
    _write_file(_STREAM_FILE, path, header, s.words.astype("<u4", copy=False))


def load_stream(path: str) -> CompressedStream:
    (c, h, w, frac, n_words, pad_flag), payload = _read_file(_STREAM_FILE, path)
    if pad_flag not in (0, 1):
        raise FileFormatError(f"{path}: trailing-pad flag {pad_flag}, expected 0 or 1")
    words = np.frombuffer(payload, dtype="<u4").astype(np.uint32)
    return CompressedStream(words, 2 * n_words - pad_flag, c, h, w, frac)
