"""Shared oracles and case generators.

The naive layer oracle below is written as plain quadruple loops over
scalar fixed-point ops, on purpose: it shares no code path with either the
vectorized golden model or the pipeline simulator it cross-checks.  The
scalar stripe oracles (:func:`weight_ops_for_pixel`, :func:`decode_stripe`)
likewise walk single pixels, to cross-check the accelerator's separable
per-row and per-column performance model.  The stream-order and decoder
oracles walk pixels and fields one at a time.  :func:`reference_encode`,
:func:`reference_iter_rows` and :func:`reference_synthetic_tensor` keep the
row-by-row encoder, the bit-by-bit decoder and the per-pixel generator that
the vectorised codec and generator must reproduce bit for bit.
:func:`reference_compare_codecs_rows` is the per-tensor codec sweep that
the batched draw and sizes of ``compare_codecs_cmd`` replaced.
:func:`reference_conv2d` is the int64 ``tensordot`` convolution that the
float64 matmul oracle in :mod:`nhsim.refmodel` replaced.
:func:`stats_cases` draws the random layers and hardware points of the
stats-model properties.  :func:`reference_trace` is the per-cycle trace
writer that :func:`nhsim.accel.write_trace`'s runs replaced, and
:func:`expand_trace` turns those runs back into per-cycle lines.
:func:`quantize_kernel_set` turns real-valued weights into a kernel set;
only tests need it, so it lives here rather than in the package.  So do
the scalar fixed-point rules (:func:`saturate16`, :func:`saturate32`,
:func:`quantize`, :func:`quantize_array`, :func:`requantize`,
:func:`relu16`), which the naive oracle and the checks of
:func:`nhsim.fxp.requantize_array` use, and :func:`rl_decode`, the inverse
of :func:`nhsim.codec.rl_encode`.
"""

import math
from typing import Iterator, Optional

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from nhsim import codec
from nhsim.accel import OUTPUT_PIXELS_PER_CYCLE, HardwareConfig, LayerStats
from nhsim.codec import CompressedStream, StreamError
from nhsim.fxp import I16_MAX, I16_MIN, I32_MAX, I32_MIN, QFormat
from nhsim.netmodel import (
    FeatureMapTensor,
    KernelSet,
    LayerDescriptor,
    ValidationError,
    sparsity,
)

# tests/mutants.py runs each seeded fault's test under this profile.  The
# explain phase runs only after a test has already failed, and the harness
# discards its report, so dropping it changes no kill; it was most of the
# time of the slowest mutant runs.
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.explain])


def saturate16(raw: int) -> int:
    return I16_MIN if raw < I16_MIN else I16_MAX if raw > I16_MAX else raw


def saturate32(raw: int) -> int:
    return I32_MIN if raw < I32_MIN else I32_MAX if raw > I32_MAX else raw


def quantize(x: float, q: QFormat) -> int:
    """Quantize a real number to a raw 16-bit value under ``q``.

    Round-to-nearest-even, saturating.  Non-finite input is rejected as
    invalid source data.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot quantize non-finite value {x!r}")
    scaled = x * q.scale
    # round() is round-half-to-even on floats
    return saturate16(round(scaled))


def quantize_array(x: np.ndarray, q: QFormat) -> np.ndarray:
    """Vectorized :func:`quantize`; returns an int16 array."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot quantize non-finite values")
    scaled = np.rint(x * q.scale)  # np.rint rounds half to even
    return np.clip(scaled, I16_MIN, I16_MAX).astype(np.int16)


def _rshift_round_even(v: int, s: int) -> int:
    # v = (v >> s) * 2**s + (v & mask) with a non-negative remainder, so the
    # same tie-to-even test works for negative values.
    half = 1 << (s - 1)
    r = v & ((1 << s) - 1)
    q = v >> s
    if r > half or (r == half and (q & 1)):
        q += 1
    return q


def requantize(acc: int, in_frac: int, out_q: QFormat) -> int:
    """Renormalize a 32-bit accumulator to a 16-bit value in ``out_q``.

    Arithmetic shift by ``in_frac - out_q.frac_bits``; right shifts round
    to nearest even, left shifts are exact; the result saturates to 16 bits.
    """
    shift = in_frac - out_q.frac_bits
    if shift > 0:
        v = _rshift_round_even(acc, shift)
    elif shift < 0:
        v = acc << (-shift)
    else:
        v = acc
    return saturate16(v)


def relu16(x: int) -> int:
    """max(0, x) on a raw 16-bit value; format unchanged."""
    return x if x > 0 else 0


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


def stream_order_iter(t: FeatureMapTensor) -> Iterator[tuple[int, int, int, int]]:
    """Yield every pixel exactly once as (channel, x, y, raw) in stream order."""
    v = t.values
    for y in range(t.height):
        for x in range(t.width):
            for i in range(t.channels):
                yield (i, x, y, int(v[i, y, x]))


def _row_pixels(t: FeatureMapTensor, y: int) -> np.ndarray:
    # row y in stream order: columns outer, channels inner
    return np.ascontiguousarray(t.values[:, y, :].T).reshape(-1)


def _encode_row_fields(px: np.ndarray) -> np.ndarray:
    """Interleaved fields (uint16) for one image row."""
    n = len(px)
    mask = px != 0
    n_chunks = -(-n // codec.SEGMENT_BITS)
    idx = np.arange(n)
    chunk_id = idx // codec.SEGMENT_BITS
    bit = idx % codec.SEGMENT_BITS
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


def reference_encode(t: FeatureMapTensor) -> CompressedStream:
    """The row-by-row form of :func:`nhsim.codec.encode`."""
    fields = np.concatenate(
        [_encode_row_fields(_row_pixels(t, y)) for y in range(t.height)]
    )
    words, count = _pack_fields(fields)
    return CompressedStream(
        words, count, t.channels, t.height, t.width, t.qformat.frac_bits
    )


def reference_iter_rows(s: CompressedStream) -> Iterator[tuple[int, np.ndarray]]:
    """Decode bit by bit, yielding (y, row pixels in stream order).

    Raises :class:`StreamError` on a field count that does not fill the
    words, on truncation, on an SM bit past the end of a row, or on fields
    left over after the last row.
    """
    if s.field_count < 0 or s.word_count != -(-s.field_count // 2):
        raise StreamError(
            f"field count {s.field_count} does not fill {s.word_count} words", 0
        )
    c, h, w = s.channels, s.height, s.width
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
            group = min(codec.SEGMENT_BITS, row_px - filled)
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


def reference_decode(s: CompressedStream) -> np.ndarray:
    """(c, h, w) int16 values decoded through :func:`reference_iter_rows`."""
    values = np.zeros((s.channels, s.height, s.width), dtype=np.int16)
    for y, row in reference_iter_rows(s):
        values[:, y, :] = row.reshape(s.width, s.channels).T
    return values


def iter_nonzero(s: CompressedStream) -> Iterator[tuple[int, int, int, int]]:
    """Stream (channel, x, y, raw) for every non-zero pixel, in stream order."""
    c = s.channels
    for y, row in reference_iter_rows(s):
        for flat in np.flatnonzero(row):
            yield (int(flat) % c, int(flat) // c, y, int(row[flat]))


def row_field_offsets(s: CompressedStream) -> np.ndarray:
    """Field offset of each row's first SM segment (the decoder's row pointers)."""
    fields = s.fields()
    row_px = s.width * s.channels
    offsets = np.zeros(s.height, dtype=np.int64)
    pos = 0
    for y in range(s.height):
        offsets[y] = pos
        filled = 0
        while filled < row_px:
            if pos >= len(fields):
                raise StreamError("truncated stream while scanning rows", pos // 2)
            sm = int(fields[pos])
            pos += 1 + bin(sm).count("1")
            filled += min(codec.SEGMENT_BITS, row_px - filled)
    return offsets


def reference_synthetic_tensor(
    channels: int,
    height: int,
    width: int,
    target_sparsity: float,
    rng: np.random.Generator,
    qformat: QFormat = QFormat(8),
    burst_mean: Optional[float] = None,
) -> FeatureMapTensor:
    """The per-pixel form of :func:`nhsim.netmodel.synthetic_tensor`: one
    uniform a pixel, whose 53-bit integer gives the non-zero value."""
    n = channels * height * width
    if not 0.0 <= target_sparsity <= 1.0:
        raise ValidationError("sparsity must be in [0, 1]")
    # a Markov stand-in draws its initial state before its uniforms
    in_zero = burst_mean is not None and rng.random() < target_sparsity
    u = rng.random(n)
    if burst_mean is None:
        mask = u >= target_sparsity  # True = non-zero
    else:
        # two-state Markov chain over the flat stream: mean zero-run length
        # burst_mean, stationary zero probability target_sparsity
        p_exit_zero = min(1.0, 1.0 / burst_mean)
        s = target_sparsity
        if s * (1.0 + p_exit_zero) > 1.0:
            # above the ceiling 1 / (1 + p_exit_zero): enter zero after every
            # non-zero pixel, leave it less often
            p_enter_zero, p_exit_zero = 1.0, (1.0 - s) / s
        else:
            p_enter_zero = p_exit_zero * s / (1.0 - s)
        mask = np.empty(n, dtype=bool)
        for j in range(n):
            mask[j] = not in_zero
            if in_zero:
                in_zero = u[j] >= p_exit_zero
            else:
                in_zero = u[j] < p_enter_zero
    # random() is k / 2**53 for a 53-bit integer k: bits 0-11 of k are the
    # magnitude less one, bit 12 the sign
    high, low = np.divmod(np.ldexp(u, 53).astype(np.int64) % 8192, 4096)
    flat = np.where(mask, np.where(high == 1, -(low + 1), low + 1), 0).astype(np.int16)
    shaped = flat.reshape(height, width, channels).transpose(2, 0, 1)
    return FeatureMapTensor(np.ascontiguousarray(shaped), qformat)


def reference_compare_codecs_rows(
    sweep: list[float], precision: int, trials: int, seed: int
) -> list[dict]:
    """The rows of :func:`nhsim.cli.compare_codecs_cmd` from one
    :func:`reference_synthetic_tensor` a trial at burst mean 128, each sized
    on its own by ``encode``, ``rl_encode`` and ``cis_bits`` at its
    measured sparsity."""
    rng = np.random.default_rng(seed)
    rows = []
    for sp in sweep:
        tensors = [
            reference_synthetic_tensor(2, 24, 24, sp, rng, burst_mean=128.0)
            for _ in range(trials)
        ]
        raw = float(np.mean([t.pixel_count * precision for t in tensors]))
        sm = float(np.mean([codec.SEGMENT_BITS * codec.encode(t).field_count for t in tensors]))
        rl = float(np.mean([codec.rl_encode(t)[0] for t in tensors]))
        cis = float(np.mean(
            [codec.cis_bits(t.pixel_count, precision, sparsity(t)) for t in tensors]
        ))
        rows.append({
            "label": f"{sp:.4f}",
            "sparsity": float(np.mean([sparsity(t) for t in tensors])),
            "raw_bits": raw,
            "sm_bits": sm,
            "rl_bits": rl,
            "cis_bits": cis,
            "sm_ratio": sm / raw,
            "rl_ratio": rl / raw,
        })
    return rows


def reference_conv2d(t: FeatureMapTensor, kern: KernelSet, pad: int) -> np.ndarray:
    """Convolution accumulators in int64, one ``tensordot`` per tap, clamped
    once to the 32-bit range: :func:`nhsim.refmodel.conv2d` in exact integers."""
    c, h, w = t.values.shape
    k = kern.k
    out_h, out_w = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.int64)
    padded[:, pad : pad + h, pad : pad + w] = t.values
    w64 = kern.weights.astype(np.int64)
    acc = np.zeros((kern.n_out, out_h, out_w), dtype=np.int64)
    acc += kern.bias.astype(np.int64)[:, None, None]
    for dy in range(k):
        for dx in range(k):
            window = padded[:, dy : dy + out_h, dx : dx + out_w]
            acc += np.tensordot(w64[:, :, dy, dx], window, axes=([1], [0]))
    return np.clip(acc, I32_MIN, I32_MAX)


def naive_layer_forward(t: FeatureMapTensor, layer: LayerDescriptor, kern: KernelSet):
    """Quadruple-loop scalar reference for a full layer."""
    v = t.values.tolist()
    w = kern.weights.tolist()
    bias = kern.bias.tolist()
    k, pad = layer.k, layer.pad
    oh, ow = layer.conv_h, layer.conv_w
    out = [[[0] * ow for _ in range(oh)] for _ in range(layer.n_out)]
    for j in range(layer.n_out):
        for oy in range(oh):
            for ox in range(ow):
                acc = bias[j]
                for i in range(layer.n_in):
                    for dy in range(k):
                        for dx in range(k):
                            iy = oy + dy - pad
                            ix = ox + dx - pad
                            if 0 <= iy < layer.h and 0 <= ix < layer.w:
                                acc += w[j][i][dy][dx] * v[i][iy][ix]
                acc = saturate32(acc)
                r = requantize(acc, layer.acc_frac, layer.out_qformat)
                if layer.relu:
                    r = relu16(r)
                out[j][oy][ox] = r
    if layer.pool:
        h2, w2 = oh // 2, ow // 2
        pooled = [[[0] * w2 for _ in range(h2)] for _ in range(layer.n_out)]
        for j in range(layer.n_out):
            for py in range(h2):
                for px in range(w2):
                    pooled[j][py][px] = max(
                        out[j][2 * py][2 * px],
                        out[j][2 * py][2 * px + 1],
                        out[j][2 * py + 1][2 * px],
                        out[j][2 * py + 1][2 * px + 1],
                    )
        out = pooled
    return np.array(out, dtype=np.int16)


def weight_ops_for_pixel(
    x: int, y: int, k: int, out_w: int, out_h: int, double_row_top: int
) -> int:
    """Accumulator updates one pixel triggers in a MAC for one double row.

    Coordinates are in the zero-padded frame.  The count is (output rows of
    the pair the pixel feeds) x (output columns it feeds), at most 2*k_w;
    border pixels feed fewer columns, so useless taps are skipped.
    """
    col_lo = max(0, x - k + 1)
    col_hi = min(out_w - 1, x)
    cols = max(0, col_hi - col_lo + 1)
    rows = 0
    for r in (double_row_top, double_row_top + 1):
        if 0 <= r < out_h and r <= y <= r + k - 1:
            rows += 1
    return rows * cols


def decode_stripe(
    stream: CompressedStream, stripe_top: int, k_h: int, pad: int
) -> Iterator[list[tuple[int, int, int, int]]]:
    """Walk one vertical stripe of k_h+1 padded rows through the row FSMs.

    Yields one batch per simulated cycle; each batch holds the next
    non-zero pixel of every still-active row FSM as (channel, x, y, raw)
    in padded coordinates.  Padding rows carry no data and cost nothing.
    """
    h = stream.height
    rows_needed = [
        yp for yp in range(stripe_top, stripe_top + k_h + 1) if pad <= yp < pad + h
    ]
    wanted = {yp - pad: yp for yp in rows_needed}
    fsm_pixels: dict[int, list[tuple[int, int, int, int]]] = {yp: [] for yp in rows_needed}
    c = stream.channels
    for y, row in reference_iter_rows(stream):
        if y in wanted:
            yp = wanted[y]
            for flat in np.flatnonzero(row):
                fsm_pixels[yp].append(
                    (int(flat) % c, int(flat) // c + pad, yp, int(row[flat]))
                )
        if y > max(wanted, default=-1):
            break
    cursors = {yp: 0 for yp in rows_needed}
    while True:
        batch = []
        for yp in rows_needed:
            px = fsm_pixels[yp]
            i = cursors[yp]
            if i < len(px):
                batch.append(px[i])
                cursors[yp] = i + 1
        if not batch:
            return
        yield batch


def random_tensor(rng, channels, h, w, sparsity=0.5, frac=8, lo=-512, hi=512):
    vals = rng.integers(lo, hi + 1, size=(channels, h, w))
    mask = rng.random((channels, h, w)) >= sparsity
    return FeatureMapTensor((vals * mask).astype(np.int16), QFormat(frac))


def quantize_kernel_set(
    weights: np.ndarray, bias: np.ndarray, frac_w: int, frac_in: int
) -> KernelSet:
    """Quantize real-valued weights/biases; biases land in accumulator format."""
    qw = QFormat(frac_w)
    w = quantize_array(np.asarray(weights, dtype=np.float64), qw)
    acc_scale = 1 << (frac_w + frac_in)
    b = np.clip(
        np.rint(np.asarray(bias, dtype=np.float64) * acc_scale),
        -(1 << 31),
        (1 << 31) - 1,
    ).astype(np.int32)
    return KernelSet(w, b, qw)


def random_kernels(rng, n_out, n_in, k, frac=10, wmax=256, bmax=1 << 18):
    w = rng.integers(-wmax, wmax + 1, size=(n_out, n_in, k, k)).astype(np.int16)
    b = rng.integers(-bmax, bmax, size=n_out).astype(np.int32)
    return KernelSet(w, b, QFormat(frac))


@st.composite
def stats_cases(draw):
    """A random layer, a HardwareConfig with 64, 128 or 256 MACs, 64 B,
    1 KiB or 512 KiB of pixel memory and banks of 256, 1024 or 4096
    values, and a generator for the layer's masks."""
    k = draw(st.sampled_from([1, 3, 5, 7]))
    conv_h, conv_w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    pad = min(draw(st.integers(0, 3)), (conv_h + k - 2) // 2, (conv_w + k - 2) // 2)
    layer = LayerDescriptor(
        n_in=draw(st.integers(1, 64)), n_out=draw(st.integers(1, 300)),
        h=conv_h + k - 1 - 2 * pad, w=conv_w + k - 1 - 2 * pad, k=k, pad=pad,
        pool=draw(st.booleans()) and conv_h >= 2 and conv_w >= 2,
        encode=draw(st.booleans()),
    )
    hw = HardwareConfig(
        macs=draw(st.sampled_from([64, 128, 256])),
        pixel_mem_bytes=draw(st.sampled_from([64, 1024, 512 * 1024])),
        kernel_bank_values=draw(st.sampled_from([256, 1024, 4096])),
    )
    return layer, hw, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def reference_trace(stats: LayerStats, k: int) -> str:
    """One layer's trace with one line ``cycle phase px_in px_out`` per cycle.

    Per pass: kernel load, prefill, then overlap cycles that each move at
    most k+1 decoded pixels and ``OUTPUT_PIXELS_PER_CYCLE`` drained ones.
    """
    lines = []
    for p in stats.parts:
        overlap = max(p.cycles_compute, p.cycles_input_stream, p.cycles_output_drain)
        prefill = p.cycles_total - p.cycles_kernel_load - overlap
        lines += ["kernel_load 0 0"] * p.cycles_kernel_load + ["prefill 0 0"] * prefill
        in_left, out_left = p.pixels_decoded, p.pixels_drained
        for _ in range(overlap):
            pin = min(k + 1, in_left)
            pout = min(OUTPUT_PIXELS_PER_CYCLE, out_left)
            in_left -= pin
            out_left -= pout
            lines.append(f"overlap {pin} {pout}")
    return "".join(f"{cycle} {line}\n" for cycle, line in enumerate(lines))


def expand_trace(text: str) -> str:
    """Per-cycle lines ``cycle phase px_in px_out`` from a trace of runs
    ``first_cycle cycles phase px_in px_out``; ``#`` lines pass through."""
    out = []
    for line in text.splitlines(keepends=True):
        if line.startswith("#"):
            out.append(line)
            continue
        first, n, rest = line.split(" ", 2)
        out += [f"{c} {rest}" for c in range(int(first), int(first) + int(n))]
    return "".join(out)


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)
