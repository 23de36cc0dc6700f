"""Tensor and network data model plus on-disk formats.

Feature maps are dense 3-D arrays of raw 16-bit values addressed as
``p(i, x, y)`` = channel ``i``, column ``x``, row ``y``; numpy storage is
``values[channel, row, column]``.  The canonical *stream order* walks rows
top to bottom, columns left to right within a row, and channels fastest:

    p(0,0,0), p(1,0,0), ..., p(N-1,0,0), p(0,1,0), ...

File formats (all little-endian):

``.nht`` tensor     magic ``NHT1``; u16 channels, u16 height, u16 width,
                    u8 frac_bits; then channels*H*W i16 values in canonical
                    stream order.
``.nhw`` weights    magic ``NHW1``; u16 n_out, u16 n_in, u16 k, u8 frac_bits;
                    i16 weights in [out][in][row][col] order; then n_out
                    i32 biases (already shifted to accumulator precision).
network config      JSON, schema::

                        {"layers": [{"n_in", "n_out", "k", "h", "w", "pad",
                                     "relu", "pool", "encode", "frac_in",
                                     "frac_w", "frac_out", "weights": path}],
                         "fc": [{"n_in", "n_out", "relu", "frac_in",
                                 "frac_w", "frac_out", "weights": path}]}

                    ``fc`` is optional; ``weights`` may be null for
                    descriptors used only with synthetic activations.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .fxp import MAX_FRAC, QFormat

MAX_CHANNELS = 1024
MAX_DIM = 512
MAX_KERNEL = 7
MAX_PAD = 3

# pixels per block of the synthetic stand-ins' mask and sign draws; must be even
_CHUNK = 65536
# non-zero stand-in values are uniform in +-[1, _VALUE_HIGH)
_VALUE_HIGH = 1 << 12


class ValidationError(ValueError):
    """A descriptor or tensor violates a structural limit."""


class FileFormatError(ValueError):
    """A binary or JSON input file does not parse as expected."""


def _cast_checked(a: np.ndarray, dtype, what: str) -> np.ndarray:
    """``a`` as ``dtype``; a NaN, a fraction or a value outside the range of
    ``dtype`` raises instead of being truncated or wrapped."""
    if a.dtype == dtype:
        return a
    if a.dtype.kind not in "biuf":
        raise ValidationError(f"{what} have dtype {a.dtype}, not integer or float")
    if a.dtype.kind == "f" and np.isnan(a).any():
        raise ValidationError(f"{what} contain NaN")
    info = np.iinfo(dtype)
    if a.size and not (info.min <= a.min() and a.max() <= info.max):
        raise ValidationError(
            f"{what} outside the {info.dtype} range [{info.min}, {info.max}]"
        )
    if a.dtype.kind == "f" and (a != np.trunc(a)).any():
        raise ValidationError(f"{what} hold non-integral values")
    return a.astype(dtype)


def _check_frac(where: str, **fracs: int) -> None:
    for key, frac in fracs.items():
        if not 0 <= frac <= MAX_FRAC:
            raise ValidationError(f"{where}: {key} {frac} outside [0, {MAX_FRAC}]")


def check_frac_bits(path: str, frac: int) -> int:
    """A file header's ``frac_bits``, which must be in [0, MAX_FRAC]."""
    if not 0 <= frac <= MAX_FRAC:
        raise FileFormatError(f"{path}: frac_bits {frac} outside [0, {MAX_FRAC}]")
    return frac


# ---------------------------------------------------------------------------
# tensors


def _check_shape(channels: int, height: int, width: int) -> None:
    if not 1 <= channels <= MAX_CHANNELS:
        raise ValidationError(f"channels {channels} outside [1, {MAX_CHANNELS}]")
    if not (1 <= height <= MAX_DIM and 1 <= width <= MAX_DIM):
        raise ValidationError(f"dims {height}x{width} outside [1, {MAX_DIM}]")


@dataclass
class FeatureMapTensor:
    values: np.ndarray  # int16, shape (channels, height, width)
    qformat: QFormat

    def __post_init__(self):
        v = self.values
        if v.ndim != 3:
            raise ValidationError(f"tensor must be 3-D, got shape {v.shape}")
        _check_shape(*v.shape)
        self.values = _cast_checked(v, np.int16, "tensor values")

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]

    @property
    def pixel_count(self) -> int:
        return self.values.size


def stream_order_values(t: FeatureMapTensor) -> np.ndarray:
    """Flat int16 view of the tensor in canonical stream order."""
    return np.ascontiguousarray(np.transpose(t.values, (1, 2, 0))).reshape(-1)


def sparsity(t: FeatureMapTensor) -> float:
    """Fraction of zero-valued pixels, in [0, 1]."""
    if t.pixel_count == 0:
        raise ValidationError("sparsity of empty tensor is undefined")
    return float(np.count_nonzero(t.values == 0)) / t.pixel_count


def _markov_rows(
    u: np.ndarray, target_sparsity: float, burst_mean: float, in_zero
) -> tuple[np.ndarray, np.ndarray]:
    """Zero states of two-state Markov chains, one over each row of ``u``.

    Mean zero-run length ``burst_mean``, stationary zero probability
    ``target_sparsity``.  Step j draws ``u[j]`` and moves from zero to
    ``u[j] >= p_exit_zero`` and from non-zero to ``u[j] < p_enter_zero``.
    Where both give the same state the step resets to it, where only the
    move from non-zero enters zero it toggles, and otherwise it holds; so
    each state is the last reset (or the row's incoming state ``in_zero``)
    XOR the parity of the toggles since then.  Returns the (rows, n + 1)
    states, the incoming one first, and which steps reset.
    """
    p_exit_zero = min(1.0, 1.0 / burst_mean)
    s = target_sparsity
    p_enter_zero = (
        1.0 if s >= 1.0 else min(1.0, p_exit_zero * s / max(1e-12, 1.0 - s))
    )
    rows, n = u.shape
    a = u >= p_exit_zero
    b = u < p_enter_zero
    reset = a == b
    # a uint8 count wraps at 256, which keeps its parity
    odd = (np.cumsum(b & ~a, axis=1, dtype=np.uint8) & 1).view(bool)
    # After a reset at step r the state is a[r], so after step t >= r it is
    # a[r] ^ odd[r] ^ odd[t] (odd: toggle parity through a step).  Column
    # r + 1 of zero first holds a ^ odd, read at the last reset; column 0
    # holds the incoming state, read while no reset has come yet.
    zero = np.empty((rows, n + 1), dtype=bool)
    zero[:, 0] = in_zero
    np.logical_xor(a, odd, out=zero[:, 1:])
    last = np.where(reset, np.arange(1, n + 1, dtype=np.int32), 0)
    np.maximum.accumulate(last, axis=1, out=last)
    zero[:, 1:] = odd ^ np.take_along_axis(zero, last, axis=1)
    return zero, reset


def _markov_nonzero(
    n: int, target_sparsity: float, burst_mean: float, rng: np.random.Generator
) -> np.ndarray:
    """Non-zero mask of a :func:`_markov_rows` chain over the flat stream.

    The n uniforms come first and the initial state after them, as in the
    per-pixel chain.  So each ``_CHUNK`` of uniforms is scanned as if it
    began in "non-zero", which leaves every state after its first reset
    right; once the initial state is drawn, a second pass walks the chunks
    and flips the states before that reset wherever a chunk in fact began
    in "zero".
    """
    nonzero = np.empty(n, dtype=bool)
    buf = np.empty(min(n, _CHUNK))
    # per chunk: start, states before its first reset, the state it hands on
    # if it began in "non-zero", and whether that depends on how it began
    chunks = []
    for i in range(0, n, _CHUNK):
        u = buf[: min(_CHUNK, n - i)]
        rng.random(out=u)
        (zero,), (reset,) = _markov_rows(u[None], target_sparsity, burst_mean, False)
        np.logical_not(zero[:-1], out=nonzero[i : i + len(u)])
        carried = not reset.any()
        prefix = len(u) if carried else int(np.argmax(reset)) + 1
        chunks.append((i, prefix, bool(zero[-1]), carried))
    in_zero = rng.random() < target_sparsity
    for i, prefix, out_zero, carried in chunks:
        if in_zero:
            np.logical_not(nonzero[i : i + prefix], out=nonzero[i : i + prefix])
        in_zero = out_zero ^ (in_zero and carried)
    return nonzero


def _nonzero_mask(
    channels: int,
    height: int,
    width: int,
    target_sparsity: float,
    rng: np.random.Generator,
    burst_mean: Optional[float],
) -> np.ndarray:
    """Flat stream-order non-zero mask of a stand-in, checked before it draws."""
    if not 0.0 <= target_sparsity <= 1.0:
        raise ValidationError("sparsity must be in [0, 1]")
    _check_shape(channels, height, width)
    n = channels * height * width
    if burst_mean is not None:
        return _markov_nonzero(n, target_sparsity, burst_mean, rng)
    # random() turns one 64-bit word into one double, in order, so filling
    # consecutive chunks takes exactly the words of random(n)
    nonzero = np.empty(n, dtype=bool)
    buf = np.empty(min(n, _CHUNK))
    for i in range(0, n, _CHUNK):
        u = buf[: min(_CHUNK, n - i)]
        rng.random(out=u)
        np.greater_equal(u, target_sparsity, out=nonzero[i : i + len(u)])
    return nonzero


def synthetic_tensor(
    channels: int,
    height: int,
    width: int,
    target_sparsity: float,
    rng: np.random.Generator,
    qformat: QFormat = QFormat(8),
    burst_mean: Optional[float] = None,
) -> FeatureMapTensor:
    """Random tensor with roughly ``target_sparsity`` zero pixels.

    With ``burst_mean`` set, zeros arrive in runs of that mean length along
    the stream order, mimicking the clustered inactivity of post-ReLU
    feature maps; otherwise zero positions are i.i.d. uniform.  A Markov
    stand-in's zero fraction cannot pass ``burst_mean / (burst_mean + 1)``:
    a higher target is clamped there (0.8 at ``burst_mean=4``, 0.992 at
    128).  Non-zero values are uniform in +-[1, 4095].  The values are generated in stream
    order, so ``values`` is a (channel, row, column) view of a stream-order
    buffer, not a C-contiguous array.

    The mask and the signs are drawn ``_CHUNK`` pixels at a time, so the
    call holds little beyond the two-byte result and a one-byte mask: 3.1
    bytes a pixel at the peak on a 64x224x224 map, with or without
    ``burst_mean``, where whole-tensor draws peaked at 9.0 and 47.  The
    chunks take the same words from ``rng`` as one whole draw each (see the
    comments below), so a seed gives the same tensor, and leaves ``rng`` in
    the same state, as drawing the uniforms, values and signs whole.
    """
    nonzero = _nonzero_mask(channels, height, width, target_sparsity, rng, burst_mean)
    n = len(nonzero)
    # Kept whole: this draw rejects 16 of every 65536 16-bit values, so the
    # words it takes depend on the data, and chunking it could stop a chunk
    # on half a 32-bit word and shift every later draw.
    flat = rng.integers(1, _VALUE_HIGH, size=n, dtype=np.int16)
    # Each sign is one 16-bit half of a 32-bit word and the draw over
    # [0, 2) never rejects.  A call keeps an unused high half only until it
    # returns, so an even-length chunk takes exactly len/2 whole words and
    # leaves nothing behind: chunks of the even _CHUNK, then any remainder,
    # take the ceil(n/2) words of one integers(0, 2, size=n) call.
    # Sign draw 0 negates: with m = -1, (v ^ m) - m == -v; with m = 0, v.
    for i in range(0, n, _CHUNK):
        part = flat[i : i + _CHUNK]
        m = rng.integers(0, 2, size=len(part), dtype=np.int16)
        m -= 1
        part ^= m
        part -= m
        part *= nonzero[i : i + len(part)]
    values = flat.reshape(height, width, channels).transpose(2, 0, 1)
    return FeatureMapTensor(values, qformat)


def synthetic_mask_groups(
    count: int, channels: int, height: int, width: int, target_sparsity: float,
    rng: np.random.Generator, burst_mean: Optional[float] = None,
) -> Iterator[np.ndarray]:
    """The non-zero masks of ``count`` successive :func:`synthetic_tensor`
    calls, in (k, channels, height, width) groups of as many trials as fit
    in ``_CHUNK`` pixels (at least one); ``rng`` ends where those calls
    leave it.  Each trial makes their generator calls in their order, and
    one :func:`_markov_rows` scan runs a group's chains, each row from its
    own initial state.
    """
    if not 0.0 <= target_sparsity <= 1.0:
        raise ValidationError("sparsity must be in [0, 1]")
    _check_shape(channels, height, width)
    n = channels * height * width
    group = max(1, _CHUNK // n)
    for start in range(0, count, group):
        k = min(group, count - start)
        u = np.empty((k, n))
        in_zero = np.zeros(k, dtype=bool)
        for t in range(k):
            rng.random(out=u[t])  # the words of the chunked draw
            if burst_mean is not None:
                in_zero[t] = rng.random() < target_sparsity
            rng.integers(1, _VALUE_HIGH, size=n, dtype=np.int16)  # the values
            rng.integers(0, 2, size=n, dtype=np.int16)  # and their signs
        if burst_mean is None:
            nonzero = u >= target_sparsity
        else:
            nonzero = ~_markov_rows(u, target_sparsity, burst_mean, in_zero)[0][:, :-1]
        yield nonzero.reshape(k, height, width, channels).transpose(0, 3, 1, 2)


class NonzeroMask(np.ndarray):
    """A (channels, height, width) bool array: which pixels are non-zero.

    ``values`` is the same array as a plain ndarray, so code that reads the
    non-zero pixels of a :class:`FeatureMapTensor` from its ``values`` reads
    a mask the same way.
    """

    @property
    def values(self) -> np.ndarray:
        return self.view(np.ndarray)


# next_uint32 of these bit generators splits a 64-bit raw output, low half
# first, and keeps the high half in state["has_uint32"] and ["uinteger"];
# advance(k) skips k raw outputs.  default_rng builds PCG64.
_ADVANCE = ("PCG64", "PCG64DXSM")


def _take_words(rng, kind: str, held: int, words: int, keep: bool) -> list:
    """Take ``words`` 32-bit words from ``rng`` as that many next_uint32
    calls would, leaving the same state, but at the raw rate when the bit
    generator ``kind`` is in ``_ADVANCE``; ``held`` is 1 when a half is kept
    at the start.  Returns the words read as uint16 halves, in pieces.

    A kept half goes first, then whole raw outputs (skipped with advance
    unless ``keep``), then a 2-3 word next_uint32 draw, which rewrites
    ``uinteger`` and keeps a half when the words after the first are odd.
    """
    bg = rng.bit_generator

    def uint32s(k: int) -> np.ndarray:
        return rng.integers(0, 1 << 32, size=k, dtype=np.uint32).view(np.uint16)

    rest = words - held
    if kind not in _ADVANCE or rest < 4:
        return [uint32s(words)]
    tail = 2 + rest % 2
    pieces = [uint32s(1)] if held else []  # the kept half is the first word
    if keep:
        pieces.append(bg.random_raw((rest - tail) // 2).view(np.uint16))
    else:
        bg.advance((rest - tail) // 2)
    pieces.append(uint32s(tail))
    return pieces


def synthetic_mask(
    channels: int,
    height: int,
    width: int,
    target_sparsity: float,
    rng: np.random.Generator,
    burst_mean: Optional[float] = None,
) -> NonzeroMask:
    """``synthetic_tensor(...).values != 0``, without drawing the values.

    For the same arguments and generator state this returns the non-zero
    pixels of the tensor :func:`synthetic_tensor` would draw and leaves
    ``rng`` in the same state, but it takes the words of the value and sign
    draws without forming them, in ``_CHUNK // 2``-word blocks.  Both draws
    read 32-bit words through the generator's ``next_uint32``, one 16-bit
    half per value, low half first, and neither keeps a half across calls;
    :func:`_take_words` reads the same words from the raw outputs of PCG64
    and PCG64DXSM and skips the sign words there with ``advance``; other bit
    generators draw them with ``integers``.
    """
    nonzero = _nonzero_mask(channels, height, width, target_sparsity, rng, burst_mean)
    n = len(nonzero)
    state = rng.bit_generator.state
    kind = state.get("bit_generator")
    held = int(state["has_uint32"]) if kind in _ADVANCE else 0
    # The values: numpy's Lemire draw over the span s = _VALUE_HIGH - 1
    # multiplies a half x by s and rejects it, drawing the next half, when
    # the low 16 bits of the product fall below 2**16 mod s (16 for 4095).
    # A block of at most ceil(need / 2) words holds at most need + 1
    # halves; when it holds need accepted ones, the last of them is in its
    # last word, so the loop ends on the word where the value draw ends.
    span = np.uint16(_VALUE_HIGH - 1)
    reject_below = (1 << 16) % (_VALUE_HIGH - 1)
    accepted = 0
    while accepted < n:
        words = min(-(-(n - accepted) // 2), _CHUNK // 2)
        accepted += 2 * words
        for halves in _take_words(rng, kind, held, words, keep=True):
            halves *= span  # wraps, leaving the low 16 bits of the product
            accepted -= int(np.count_nonzero(halves < reject_below))
        held ^= words & 1
    # the signs: ceil(len / 2) words per chunk, so ceil(n / 2) in all
    words = -(-n // 2)
    step = words if kind in _ADVANCE else _CHUNK // 2
    for i in range(0, words, step):
        block = min(step, words - i)
        _take_words(rng, kind, held, block, keep=False)
        held ^= block & 1
    return nonzero.reshape(height, width, channels).transpose(2, 0, 1).view(NonzeroMask)


# ---------------------------------------------------------------------------
# kernels


@dataclass
class KernelSet:
    weights: np.ndarray  # int16, shape (n_out, n_in, k, k)
    bias: np.ndarray  # int32, shape (n_out,), accumulator precision
    qformat: QFormat

    def __post_init__(self):
        w = self.weights
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ValidationError(f"weights must be (n_out, n_in, k, k), got {w.shape}")
        if not 1 <= w.shape[2] <= MAX_KERNEL:
            raise ValidationError(f"kernel size {w.shape[2]} outside [1, {MAX_KERNEL}]")
        if self.bias.shape != (w.shape[0],):
            raise ValidationError("bias length must equal n_out")
        self.weights = _cast_checked(w, np.int16, "weights")
        self.bias = _cast_checked(self.bias, np.int32, "bias")

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def k(self) -> int:
        return self.weights.shape[2]


# ---------------------------------------------------------------------------
# layer / network descriptors


@dataclass
class LayerDescriptor:
    n_in: int
    n_out: int
    h: int
    w: int
    k: int
    pad: int = 0
    relu: bool = True
    pool: bool = False
    encode: bool = True
    frac_in: int = 8
    frac_w: int = 8
    frac_out: int = 8
    weights_path: Optional[str] = None
    name: str = ""

    def __post_init__(self):
        if not 1 <= self.n_in <= MAX_CHANNELS:
            raise ValidationError(f"{self.name or 'layer'}: n_in {self.n_in} out of range")
        if not 1 <= self.n_out <= MAX_CHANNELS:
            raise ValidationError(f"{self.name or 'layer'}: n_out {self.n_out} out of range")
        if not (1 <= self.h <= MAX_DIM and 1 <= self.w <= MAX_DIM):
            raise ValidationError(f"{self.name or 'layer'}: dims {self.h}x{self.w} out of range")
        if not 1 <= self.k <= MAX_KERNEL:
            raise ValidationError(f"{self.name or 'layer'}: kernel {self.k} out of range")
        if not 0 <= self.pad <= MAX_PAD:
            raise ValidationError(f"{self.name or 'layer'}: pad {self.pad} out of range")
        if self.conv_h < 1 or self.conv_w < 1:
            raise ValidationError(f"{self.name or 'layer'}: empty convolution output")
        if self.pool and (self.conv_h < 2 or self.conv_w < 2):
            raise ValidationError(f"{self.name or 'layer'}: output too small to pool")
        _check_frac(
            self.name or "layer",
            frac_in=self.frac_in, frac_w=self.frac_w, frac_out=self.frac_out,
        )

    # spatial dims before pooling
    @property
    def conv_h(self) -> int:
        return self.h + 2 * self.pad - self.k + 1

    @property
    def conv_w(self) -> int:
        return self.w + 2 * self.pad - self.k + 1

    # final output dims (pooling halves with floor)
    @property
    def out_h(self) -> int:
        return self.conv_h // 2 if self.pool else self.conv_h

    @property
    def out_w(self) -> int:
        return self.conv_w // 2 if self.pool else self.conv_w

    @property
    def out_shape(self) -> tuple[int, int, int]:
        return (self.n_out, self.out_h, self.out_w)

    @property
    def dense_macs(self) -> int:
        """Multiply count of the dense workload (pre-pool conv outputs)."""
        return self.n_out * self.n_in * self.k * self.k * self.conv_h * self.conv_w

    @property
    def out_qformat(self) -> QFormat:
        return QFormat(self.frac_out)

    @property
    def acc_frac(self) -> int:
        return self.frac_in + self.frac_w


@dataclass
class DenseLayerDescriptor:
    n_in: int
    n_out: int
    relu: bool = True
    frac_in: int = 8
    frac_w: int = 8
    frac_out: int = 8
    weights_path: Optional[str] = None

    def __post_init__(self):
        _check_frac(
            "fc layer", frac_in=self.frac_in, frac_w=self.frac_w, frac_out=self.frac_out
        )


@dataclass
class NetworkDescriptor:
    layers: list[LayerDescriptor]
    fc: list[DenseLayerDescriptor] = field(default_factory=list)
    name: str = ""

    def __post_init__(self):
        if not self.layers:
            raise ValidationError("network has no layers")
        for i in range(len(self.layers) - 1):
            a, b = self.layers[i], self.layers[i + 1]
            if a.out_shape != (b.n_in, b.h, b.w):
                raise ValidationError(
                    f"layer {i} output {a.out_shape} does not match "
                    f"layer {i + 1} input ({b.n_in}, {b.h}, {b.w})"
                )
            if a.frac_out != b.frac_in:
                raise ValidationError(
                    f"layer {i} writes {a.frac_out} fractional bits, "
                    f"layer {i + 1} reads {b.frac_in}"
                )
        if self.fc and self.layers[-1].frac_out != self.fc[0].frac_in:
            raise ValidationError(
                f"layer {len(self.layers) - 1} writes {self.layers[-1].frac_out} "
                f"fractional bits, fc 0 reads {self.fc[0].frac_in}"
            )


_LAYER_KEYS = (
    "n_in", "n_out", "k", "h", "w", "pad",
    "relu", "pool", "encode", "frac_in", "frac_w", "frac_out",
)
_LAYER_FLAGS = ("relu", "pool", "encode")
# n_in and n_out are required; the others default as DenseLayerDescriptor does
_FC_KEYS = ("n_in", "n_out", "relu", "frac_in", "frac_w", "frac_out")


def _object_list(path: str, key: str, entries, what: str) -> list[dict]:
    """``entries`` (the value of ``key``) checked to be a list of objects."""
    if not isinstance(entries, list):
        raise FileFormatError(
            f"{path}: {key!r} must be a list of objects, got {type(entries).__name__}"
        )
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise FileFormatError(
                f"{path}: {what} {idx} must be an object, got {type(entry).__name__}"
            )
    return entries


def _int_field(path: str, where: str, entry: dict, key: str, default=None) -> int:
    value = entry.get(key, default)
    try:
        # int() would read true as 1 and "16" as 16
        if isinstance(value, (bool, str)) or (
            isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise FileFormatError(
            f"{path}: {where} field {key!r} is not an integer: {value!r}"
        ) from None


def _flag_field(path: str, where: str, entry: dict, key: str, default=None) -> bool:
    value = entry.get(key, default)
    if value not in (True, False):  # admits 0 and 1, not "false"
        raise FileFormatError(f"{path}: {where} field {key!r} is not a boolean: {value!r}")
    return bool(value)


def load_network(path: str) -> NetworkDescriptor:
    """Parse and fully validate a network config file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError, RecursionError) as e:
        # ValueError covers malformed JSON and text that is not UTF-8
        raise FileFormatError(f"cannot parse network config {path}: {e}") from e
    if not isinstance(doc, dict) or "layers" not in doc:
        raise FileFormatError(f"{path}: missing 'layers'")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(where, entry):
        p = entry.get("weights")
        if p is None:
            return None
        if not isinstance(p, str):
            raise FileFormatError(f"{path}: {where} field 'weights' is not a path: {p!r}")
        return p if os.path.isabs(p) else os.path.join(base, p)

    layers = []
    for idx, entry in enumerate(_object_list(path, "layers", doc["layers"], "layer")):
        missing = [kk for kk in _LAYER_KEYS if kk not in entry]
        if missing:
            raise FileFormatError(f"{path}: layer {idx} missing keys {missing}")
        where = f"layer {idx}"
        ints = {
            kk: _int_field(path, where, entry, kk)
            for kk in _LAYER_KEYS if kk not in _LAYER_FLAGS
        }
        flags = {kk: _flag_field(path, where, entry, kk) for kk in _LAYER_FLAGS}
        try:
            layers.append(
                LayerDescriptor(
                    **ints, **flags,
                    weights_path=resolve(where, entry), name=f"conv{idx + 1}",
                )
            )
        except ValidationError as e:
            raise ValidationError(f"{path}: layer {idx}: {e}") from e
    fc = []
    for idx, entry in enumerate(_object_list(path, "fc", doc.get("fc") or [], "fc")):
        missing = [kk for kk in ("n_in", "n_out") if kk not in entry]
        if missing:
            raise FileFormatError(f"{path}: fc {idx} missing keys {missing}")
        where = f"fc {idx}"
        given = {
            kk: (_flag_field if kk in _LAYER_FLAGS else _int_field)(path, where, entry, kk)
            for kk in _FC_KEYS if kk in entry
        }
        fc.append(DenseLayerDescriptor(**given, weights_path=resolve(where, entry)))
    return NetworkDescriptor(layers, fc, name=doc.get("name", ""))


def save_network(net: NetworkDescriptor, path: str) -> None:
    def entry(d, keys):
        return {kk: getattr(d, kk) for kk in keys} | {"weights": d.weights_path}

    doc = {
        "name": net.name,
        "layers": [entry(l, _LAYER_KEYS) for l in net.layers],
        "fc": [entry(d, _FC_KEYS) for d in net.fc],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)


# ---------------------------------------------------------------------------
# binary tensor / weight files

_TENSOR_MAGIC = b"NHT1"
_WEIGHT_MAGIC = b"NHW1"


def save_tensor(t: FeatureMapTensor, path: str) -> None:
    with open(path, "wb") as f:
        f.write(_TENSOR_MAGIC)
        f.write(struct.pack("<HHHB", t.channels, t.height, t.width, t.qformat.frac_bits))
        f.write(stream_order_values(t).astype("<i2").tobytes())


def load_tensor(path: str) -> FeatureMapTensor:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _TENSOR_MAGIC:
        raise FileFormatError(f"{path}: bad magic, not a tensor file")
    if len(blob) < 11:
        raise FileFormatError(f"{path}: truncated header")
    c, h, w, frac = struct.unpack("<HHHB", blob[4:11])
    expected = 11 + 2 * c * h * w
    if len(blob) != expected:
        raise FileFormatError(f"{path}: expected {expected} bytes, got {len(blob)}")
    flat = np.frombuffer(blob, dtype="<i2", offset=11).astype(np.int16)
    values = np.ascontiguousarray(flat.reshape(h, w, c).transpose(2, 0, 1))
    return FeatureMapTensor(values, QFormat(check_frac_bits(path, frac)))


def save_weights(k: KernelSet, path: str) -> None:
    with open(path, "wb") as f:
        f.write(_WEIGHT_MAGIC)
        f.write(struct.pack("<HHHB", k.n_out, k.n_in, k.k, k.qformat.frac_bits))
        f.write(np.ascontiguousarray(k.weights).astype("<i2").tobytes())
        f.write(k.bias.astype("<i4").tobytes())


def load_weights(path: str) -> KernelSet:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _WEIGHT_MAGIC:
        raise FileFormatError(f"{path}: bad magic, not a weight file")
    if len(blob) < 11:
        raise FileFormatError(f"{path}: truncated header")
    n_out, n_in, k, frac = struct.unpack("<HHHB", blob[4:11])
    n_w = n_out * n_in * k * k
    expected = 11 + 2 * n_w + 4 * n_out
    if len(blob) != expected:
        raise FileFormatError(f"{path}: expected {expected} bytes, got {len(blob)}")
    # astype copies, so the arrays are writable and do not share the blob
    w = np.frombuffer(blob, dtype="<i2", offset=11, count=n_w).astype(np.int16)
    b = np.frombuffer(blob, dtype="<i4", offset=11 + 2 * n_w).astype(np.int32)
    return KernelSet(w.reshape(n_out, n_in, k, k), b, QFormat(check_frac_bits(path, frac)))
