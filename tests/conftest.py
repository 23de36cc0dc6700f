"""Shared oracles and case generators.

The naive layer oracle below is written as plain quadruple loops over
scalar fixed-point ops, on purpose: it shares no code path with either the
vectorized golden model or the pipeline simulator it cross-checks.  The
scalar stripe oracles (:func:`weight_ops_for_pixel`, :func:`decode_stripe`)
likewise walk single pixels, to cross-check the accelerator's separable
per-row and per-column performance model.
"""

from typing import Iterator

import numpy as np
import pytest

from nhsim import codec, fxp
from nhsim.codec import CompressedStream
from nhsim.fxp import QFormat
from nhsim.netmodel import FeatureMapTensor, KernelSet, LayerDescriptor


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
                acc = fxp.saturate32(acc)
                r = fxp.requantize(acc, layer.acc_frac, layer.out_qformat)
                if layer.relu:
                    r = fxp.relu16(r)
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
    for y, row in codec.iter_rows(stream):
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


def random_kernels(rng, n_out, n_in, k, frac=10, wmax=256, bmax=1 << 18):
    w = rng.integers(-wmax, wmax + 1, size=(n_out, n_in, k, k)).astype(np.int16)
    b = rng.integers(-bmax, bmax, size=n_out).astype(np.int32)
    return KernelSet(w, b, QFormat(frac))


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)
