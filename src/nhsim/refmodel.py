"""Dense golden model for one layer: convolution, bias, ReLU, 2x2 max pool.

This is the correctness oracle for the pipeline simulator.  It convolves
the whole map at once, one matrix product per kernel row: the k column
shifts of every input channel, stacked once into one matrix, read at that
row's offset, times that row's weights.  It has no stripes, clusters,
blocks or channel ranges, so it shares no evaluation order with the
pipeline.

The products accumulate in float64, starting from the int32 bias, which is
exact here: weights and activations are validated int16, so each product
has magnitude at most 2**30, and a layer sums at most ``MAX_CHANNELS *
MAX_KERNEL**2`` = 50,176 of them, so every partial sum is an integer below
2**46 + 2**31 < 2**53 whatever the summation order.  Each output pixel's
accumulator (bias plus every product) is then taken to int64 and clamped
once to the 32-bit range.  The readout requantizes that map in one int64
pass, then applies ReLU and the 2x2 max pool, the max of four strided
views, to the int16 result: it pools last.
"""

from __future__ import annotations

import numpy as np

from .fxp import I32_MAX, I32_MIN, QFormat, requantize_array
from .netmodel import FeatureMapTensor, KernelSet, LayerDescriptor, ValidationError, _check_limits


def conv2d(t: FeatureMapTensor, kern: KernelSet, pad: int = 0) -> np.ndarray:
    """Exact convolution accumulator map, int64 clamped to 32-bit range.

    Output shape (n_out, H+2*pad-k+1, W+2*pad-k+1); bias is included.
    """
    if kern.n_in != t.channels:
        raise ValidationError(
            f"kernel expects {kern.n_in} input channels, tensor has {t.channels}"
        )
    _check_limits("conv2d", ValidationError, pad=pad)
    k = kern.k
    c, h, w = t.values.shape
    out_h = h + 2 * pad - k + 1
    out_w = w + 2 * pad - k + 1
    if out_h < 1 or out_w < 1:
        raise ValidationError("kernel larger than padded input")
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    padded[:, pad : pad + h, pad : pad + w] = t.values
    # (k, n_out, k, n_in): kernel row dy's weights, columns ordered (dx, channel)
    wf = np.ascontiguousarray(kern.weights.transpose(2, 0, 3, 1), dtype=np.float64)
    wf = wf.reshape(k, kern.n_out, k * c)
    # the k column shifts of every channel over the whole padded height,
    # stacked (dx, channel): kernel row dy's matrix is the view of its
    # output rows dy .. dy + out_h - 1
    shifts = np.empty((k, c, h + 2 * pad, out_w), dtype=np.float64)
    for dx in range(k):
        shifts[dx] = padded[:, :, dx : dx + out_w]
    shifts = shifts.reshape(k * c, -1)
    acc_f = np.empty((kern.n_out, out_h * out_w), dtype=np.float64)
    acc_f[:] = kern.bias[:, None]
    for dy in range(k):
        acc_f += wf[dy] @ shifts[:, dy * out_w : (dy + out_h) * out_w]
    acc = acc_f.astype(np.int64).reshape(kern.n_out, out_h, out_w)
    return np.clip(acc, I32_MIN, I32_MAX, out=acc)


def apply_relu(acc_map: np.ndarray) -> np.ndarray:
    """max(0, x), any integer map."""
    return np.maximum(acc_map, 0)


def maxpool2x2(acc_map: np.ndarray) -> np.ndarray:
    """Non-overlapping 2x2 max, stride 2, as the max of four strided views;
    trailing odd row/column dropped."""
    _, h, w = acc_map.shape
    h2, w2 = h // 2, w // 2
    if h2 < 1 or w2 < 1:
        raise ValidationError("map too small for 2x2 pooling")
    top, bottom = acc_map[:, 0 : 2 * h2 : 2], acc_map[:, 1 : 2 * h2 : 2]
    out = np.maximum(top[:, :, 0 : 2 * w2 : 2], top[:, :, 1 : 2 * w2 : 2])
    np.maximum(out, bottom[:, :, 0 : 2 * w2 : 2], out=out)
    return np.maximum(out, bottom[:, :, 1 : 2 * w2 : 2], out=out)


def layer_forward(
    t: FeatureMapTensor, layer: LayerDescriptor, kern: KernelSet
) -> FeatureMapTensor:
    """Full layer: conv -> requantize -> optional ReLU -> optional pool."""
    if (t.channels, t.height, t.width) != (layer.n_in, layer.h, layer.w):
        raise ValidationError(
            f"input shape {(t.channels, t.height, t.width)} does not match "
            f"layer ({layer.n_in}, {layer.h}, {layer.w})"
        )
    if kern.n_out != layer.n_out or kern.k != layer.k:
        raise ValidationError("kernel set does not match layer descriptor")
    acc = conv2d(t, kern, layer.pad)
    out = requantize_array(acc, layer.acc_frac, layer.out_qformat)
    if layer.relu:
        out = apply_relu(out)
    if layer.pool:
        out = maxpool2x2(out)
    return FeatureMapTensor(out, layer.out_qformat)


def dense_forward(
    vec: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    acc_frac: int,
    out_frac: int,
    relu: bool = True,
) -> np.ndarray:
    """Fully-connected tail, exact dot products; no performance model.

    ``acc_frac`` is the accumulator's fractional length (input frac plus
    weight frac); ``bias`` must already be in that format.
    """
    vec = np.asarray(vec, dtype=np.int64).reshape(-1)
    w = np.asarray(weights, dtype=np.int64)
    if w.shape[1] != vec.size:
        raise ValidationError(
            f"weight matrix expects {w.shape[1]} inputs, vector has {vec.size}"
        )
    acc = w @ vec + np.asarray(bias, dtype=np.int64)
    acc = np.clip(acc, I32_MIN, I32_MAX)
    out = requantize_array(acc, acc_frac, QFormat(out_frac))
    if relu:
        out = np.maximum(out, 0)
    return out
