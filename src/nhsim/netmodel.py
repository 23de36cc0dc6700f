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
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .fxp import MAX_FRAC, QFormat

MAX_CHANNELS = 1024
MAX_DIM = 512
MAX_KERNEL = 7
MAX_PAD = 3

# the least and greatest value of each count nhsim accepts
_LIMITS = {
    **dict.fromkeys(("channels", "n_in", "n_out"), (1, MAX_CHANNELS)),
    **dict.fromkeys(("height", "width", "h", "w"), (1, MAX_DIM)),
    "k": (1, MAX_KERNEL),
    "pad": (0, MAX_PAD),
    **dict.fromkeys(("frac_bits", "frac_in", "frac_w", "frac_out"), (0, MAX_FRAC)),
}

# pixels per block of the synthetic stand-ins' uniform draws
_CHUNK = 65536
# non-zero stand-in values are uniform on +-[1, _VALUE_HIGH]
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


def _check_limits(where: str, error: Callable[[str], Exception], **counts: int) -> None:
    """Raise ``error`` for the first of ``counts`` outside its ``_LIMITS`` range."""
    for key, value in counts.items():
        lo, hi = _LIMITS[key]
        if not lo <= value <= hi:
            raise error(f"{where}: {key} {value} outside [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# tensors


@dataclass
class FeatureMapTensor:
    values: np.ndarray  # int16, shape (channels, height, width)
    qformat: QFormat

    def __post_init__(self):
        v = self.values
        if v.ndim != 3:
            raise ValidationError(f"tensor must be 3-D, got shape {v.shape}")
        c, h, w = v.shape
        _check_limits("tensor", ValidationError, channels=c, height=h, width=w)
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
) -> np.ndarray:
    """Zero states of two-state Markov chains, one over each row of ``u``.

    Mean zero-run length ``burst_mean``, stationary zero probability
    ``target_sparsity``.  Step j draws ``u[j]`` and moves from zero to
    ``u[j] >= p_exit_zero`` and from non-zero to ``u[j] < p_enter_zero``.
    Where both give the same state the step resets to it, where only the
    move from non-zero enters zero it toggles, and otherwise it holds; so
    each state is the last reset (or the row's incoming state ``in_zero``)
    XOR the parity of the toggles since then.  Returns the (rows, n + 1)
    states, the incoming one first and the outgoing one last.
    """
    p_exit_zero = min(1.0, 1.0 / burst_mean)
    s = target_sparsity
    p_enter_zero = p_exit_zero * s / max(1e-12, 1.0 - s)
    if p_enter_zero > 1.0:
        # past 1 / (1 + p_exit_zero) the chain enters zero after every
        # non-zero pixel and stays longer: non-zero runs of one, zero runs of
        # mean s / (1 - s), and all zeros at s = 1
        p_enter_zero, p_exit_zero = 1.0, (1.0 - s) / s
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
    return zero


def _values_of(u: np.ndarray, out: np.ndarray) -> None:
    """The stand-in value each uniform of ``u`` carries, into the int16 ``out``.

    Every numpy bit generator's ``random()`` returns ``k / 2**53`` for a
    53-bit integer ``k``, so ``u * 2**53`` is exact.  The value is
    ``1 + (k & 0xFFF)``, negated when bit 12 of ``k`` is set: uniform on
    +-[1, _VALUE_HIGH] and, for a non-zero pixel, all but independent of
    the ``u >= target_sparsity`` test that made it non-zero.
    """
    k = np.empty(len(u), dtype=np.int64)
    np.multiply(u, 2.0**53, out=k, casting="unsafe")
    np.bitwise_and(k, 2 * _VALUE_HIGH - 1, out=out, casting="unsafe")
    m = out >> 12  # bit 12: 1 negates
    out &= _VALUE_HIGH - 1
    out += 1
    # with m = -1, (v ^ m) - m == -v; with m = 0, v
    np.negative(m, out=m)
    out ^= m
    out -= m


def _stand_in_pixels(channels: int, height: int, width: int, target_sparsity: float) -> int:
    """The pixel count of a stand-in, whose shape and sparsity are checked
    before it draws."""
    if not 0.0 <= target_sparsity <= 1.0:
        raise ValidationError("sparsity must be in [0, 1]")
    _check_limits("stand-in", ValidationError, channels=channels, height=height, width=width)
    return channels * height * width


def _nonzero_stream(
    n: int,
    target_sparsity: float,
    rng: np.random.Generator,
    burst_mean: Optional[float],
    values: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Flat stream-order non-zero mask of an ``n``-pixel stand-in.

    Each pixel takes one uniform: i.i.d., it is non-zero when its uniform
    reaches ``target_sparsity``; with ``burst_mean``, the
    :func:`_markov_rows` chain steps on it.  A Markov stand-in draws its
    initial state first, and each chunk's chain starts from the state the
    chunk before it ended in.  ``values``, if given, receives the value
    every pixel's uniform carries (:func:`_values_of`), zero or not.
    """
    nonzero = np.empty(n, dtype=bool)
    buf = np.empty(min(n, _CHUNK))
    if burst_mean is not None:
        in_zero = rng.random() < target_sparsity
    for i in range(0, n, _CHUNK):
        # random() draws its doubles one after another on every bit
        # generator, so the chunks take exactly what random(n) takes
        u = buf[: min(_CHUNK, n - i)]
        rng.random(out=u)
        part = nonzero[i : i + len(u)]
        if values is not None:
            _values_of(u, values[i : i + len(u)])
        if burst_mean is None:
            np.greater_equal(u, target_sparsity, out=part)
            continue
        (zero,) = _markov_rows(u[None], target_sparsity, burst_mean, in_zero)
        np.logical_not(zero[:-1], out=part)
        in_zero = zero[-1]
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
    feature maps; otherwise zero positions are i.i.d. uniform.  Non-zero
    values are uniform on +-[1, 4096].  Each pixel costs one uniform
    (``rng.random``), which decides whether it is zero and, through its low
    13 bits, its value; a Markov stand-in draws its initial state before
    them.  The values are generated in stream order, so ``values`` is a
    (channel, row, column) view of a stream-order buffer, not a
    C-contiguous array.

    The uniforms are drawn and turned into values ``_CHUNK`` pixels at a
    time, so the call holds little beyond the two-byte result and a
    one-byte mask, with or without ``burst_mean``.  The chunks take what
    one ``rng.random(n)`` call takes (after a Markov initial state), so a
    seed gives the same tensor and ``rng`` ends where that call leaves it.
    """
    flat = np.empty(
        _stand_in_pixels(channels, height, width, target_sparsity), dtype=np.int16
    )
    flat *= _nonzero_stream(len(flat), target_sparsity, rng, burst_mean, values=flat)
    values = flat.reshape(height, width, channels).transpose(2, 0, 1)
    return FeatureMapTensor(values, qformat)


def synthetic_mask_groups(
    count: int, channels: int, height: int, width: int, target_sparsity: float,
    rng: np.random.Generator, burst_mean: float,
) -> Iterator[np.ndarray]:
    """The non-zero masks of ``count`` successive Markov
    :func:`synthetic_tensor` calls with ``burst_mean``, in (k, channels,
    height, width) groups of as many trials as fit in ``_CHUNK`` pixels (at
    least one); ``rng`` ends where those calls leave it.  A group is one
    ``rng.random`` call with a row per trial: its initial state in column
    0, which one :func:`_markov_rows` scan starts its chain from, then its
    uniforms.
    """
    n = _stand_in_pixels(channels, height, width, target_sparsity)
    group = max(1, _CHUNK // n)
    for start in range(0, count, group):
        k = min(group, count - start)
        u = rng.random((k, n + 1))
        in_zero = u[:, 0] < target_sparsity
        nonzero = ~_markov_rows(u[:, 1:], target_sparsity, burst_mean, in_zero)[:, :-1]
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


def synthetic_mask(
    channels: int,
    height: int,
    width: int,
    target_sparsity: float,
    rng: np.random.Generator,
) -> NonzeroMask:
    """``synthetic_tensor(...).values != 0``, without forming the values.

    For the same arguments and generator state this returns the non-zero
    pixels of the i.i.d. tensor :func:`synthetic_tensor` would draw and
    leaves ``rng`` in the same state: it draws the same uniforms,
    ``_CHUNK`` at a time, and keeps only their zero test.  Markov masks
    come from :func:`synthetic_mask_groups`.
    """
    n = _stand_in_pixels(channels, height, width, target_sparsity)
    nonzero = _nonzero_stream(n, target_sparsity, rng, None)
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
        if min(w.shape[:2]) < 1:
            raise ValidationError(f"weights need n_out and n_in of at least 1, got {w.shape}")
        _check_limits("weights", ValidationError, k=w.shape[2])
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
        _check_limits(
            self.name or "layer", ValidationError,
            **{kk: getattr(self, kk) for kk in _LAYER_INTS},
        )
        if self.conv_h < 1 or self.conv_w < 1:
            raise ValidationError(f"{self.name or 'layer'}: empty convolution output")
        if self.pool and (self.conv_h < 2 or self.conv_w < 2):
            raise ValidationError(f"{self.name or 'layer'}: output too small to pool")

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
        # fc sizes have no cap: VGG's first fc reads 25,088 values
        if self.n_in < 1 or self.n_out < 1:
            raise ValidationError(f"fc layer: sizes {self.n_in}->{self.n_out} must be at least 1")
        _check_limits(
            "fc layer", ValidationError,
            frac_in=self.frac_in, frac_w=self.frac_w, frac_out=self.frac_out,
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
        last, where = self.layers[-1], f"layer {len(self.layers) - 1}"
        if self.fc and last.frac_out != self.fc[0].frac_in:
            raise ValidationError(
                f"{where} writes {last.frac_out} fractional bits, fc 0 reads {self.fc[0].frac_in}"
            )
        size = math.prod(last.out_shape)
        for j, d in enumerate(self.fc):
            if d.n_in != size:
                raise ValidationError(f"{where} gives {size} values, fc {j} reads {d.n_in}")
            where, size = f"fc {j}", d.n_out


_LAYER_KEYS = (
    "n_in", "n_out", "k", "h", "w", "pad",
    "relu", "pool", "encode", "frac_in", "frac_w", "frac_out",
)
_LAYER_FLAGS = ("relu", "pool", "encode")
_LAYER_INTS = tuple(kk for kk in _LAYER_KEYS if kk not in _LAYER_FLAGS)
# n_in and n_out are required; the others default as DenseLayerDescriptor does
_FC_KEYS = ("n_in", "n_out", "relu", "frac_in", "frac_w", "frac_out")


def _int_field(path: str, where: str, entry: dict, key: str) -> int:
    value = entry[key]
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


def _flag_field(path: str, where: str, entry: dict, key: str) -> bool:
    value = entry[key]
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

    def read(entries, section: str, what: str, keys: tuple, required: tuple, build) -> list:
        """One section's entries as ``build(idx, **fields, weights_path=...)``; every
        entry is checked to be an object before any is read."""
        if not isinstance(entries, list):
            got = type(entries).__name__
            raise FileFormatError(f"{path}: {section!r} must be a list of objects, got {got}")
        for idx, entry in enumerate(entries):
            if not isinstance(entry, dict):
                got = type(entry).__name__
                raise FileFormatError(f"{path}: {what} {idx} must be an object, got {got}")
        out = []
        for idx, entry in enumerate(entries):
            where = f"{what} {idx}"
            missing = [kk for kk in required if kk not in entry]
            if missing:
                raise FileFormatError(f"{path}: {where} missing keys {missing}")
            fields = {
                kk: (_flag_field if kk in _LAYER_FLAGS else _int_field)(path, where, entry, kk)
                for kk in keys if kk in entry
            }
            p = entry.get("weights")
            if isinstance(p, str):
                p = os.path.join(base, p)  # an absolute path replaces base
            elif p is not None:
                raise FileFormatError(f"{path}: {where} field 'weights' is not a path: {p!r}")
            try:
                out.append(build(idx, **fields, weights_path=p))
            except ValidationError as e:
                raise ValidationError(f"{path}: {where}: {e}") from e
        return out

    layers = read(
        doc["layers"], "layers", "layer", _LAYER_KEYS, _LAYER_KEYS,
        lambda idx, **kw: LayerDescriptor(**kw, name=f"conv{idx + 1}"),
    )
    fc = read(
        doc.get("fc") or [], "fc", "fc", _FC_KEYS, ("n_in", "n_out"),
        lambda idx, **kw: DenseLayerDescriptor(**kw),
    )
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
# binary containers: .nht tensors and .nhw weights here, .nhc streams in codec


@dataclass(frozen=True)
class _Layout:
    """A container's magic, the struct format of the header after it
    (``frac_bits`` its fourth field) and the payload bytes a header promises."""

    magic: bytes
    header: str
    what: str
    payload_bytes: Callable[..., int]


def _write_file(layout: _Layout, path: str, header: tuple, *payload: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(layout.magic + struct.pack(layout.header, *header))
        for a in payload:
            f.write(np.ascontiguousarray(a))  # C order


def _read_file(layout: _Layout, path: str) -> tuple[tuple, memoryview]:
    """A file's header fields and payload bytes, checked in this order: the
    magic, a complete header, the exact size, then ``frac_bits``."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != layout.magic:
        raise FileFormatError(f"{path}: bad magic, not a {layout.what}")
    start = 4 + struct.calcsize(layout.header)
    if len(blob) < start:
        raise FileFormatError(f"{path}: truncated header")
    header = struct.unpack(layout.header, blob[4:start])
    expected = start + layout.payload_bytes(*header)
    if len(blob) != expected:
        raise FileFormatError(f"{path}: expected {expected} bytes, got {len(blob)}")
    _check_limits(path, FileFormatError, frac_bits=header[3])
    return header, memoryview(blob)[start:]


_TENSOR_FILE = _Layout(b"NHT1", "<HHHB", "tensor file", lambda c, h, w, frac: 2 * c * h * w)
_WEIGHT_FILE = _Layout(
    b"NHW1", "<HHHB", "weight file",
    lambda n_out, n_in, k, frac: 2 * n_out * n_in * k * k + 4 * n_out,
)


def save_tensor(t: FeatureMapTensor, path: str) -> None:
    header = (t.channels, t.height, t.width, t.qformat.frac_bits)
    _write_file(_TENSOR_FILE, path, header, stream_order_values(t).astype("<i2", copy=False))


def load_tensor(path: str) -> FeatureMapTensor:
    (c, h, w, frac), payload = _read_file(_TENSOR_FILE, path)
    values = np.frombuffer(payload, dtype="<i2").reshape(h, w, c).transpose(2, 0, 1)
    return FeatureMapTensor(values.astype(np.int16, order="C"), QFormat(frac))


def save_weights(k: KernelSet, path: str) -> None:
    header = (k.n_out, k.n_in, k.k, k.qformat.frac_bits)
    _write_file(_WEIGHT_FILE, path, header, k.weights.astype("<i2"), k.bias.astype("<i4"))


def load_weights(path: str) -> KernelSet:
    (n_out, n_in, k, frac), payload = _read_file(_WEIGHT_FILE, path)
    n_w = n_out * n_in * k * k
    # astype copies, so the arrays are writable and do not share the blob
    w = np.frombuffer(payload, dtype="<i2", count=n_w).astype(np.int16)
    b = np.frombuffer(payload, dtype="<i4", offset=2 * n_w).astype(np.int32)
    return KernelSet(w.reshape(n_out, n_in, k, k), b, QFormat(frac))
