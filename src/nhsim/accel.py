"""Zero-skipping accelerator pipeline: scheduling, simulation, accounting.

Functionally the simulator is bit-exact with :mod:`nhsim.refmodel`; its
timing is a transaction-level phase model, not an RTL-cycle reproduction.
The functional pipeline evaluates blocks of stripes with float64 matrix
products sized for BLAS, not by the MAC clusters, and reads out in float64
too: it pools the raw accumulators first, then adds the bias, clamps to 32
bits, requantizes and applies ReLU.  Both steps are exact, so the order of
the additions cannot show (see :func:`_forward_pipeline`).
Per pass over the input feature maps:

    cycles = kernel_load + prefill + max(compute, input_stream, output_drain)

* kernel_load streams two 16-bit kernel values per 32-bit bus word.
* prefill streams the input rows the first stripe needs; afterwards input
  loading overlaps with compute.
* compute charges each non-zero pixel the number of accumulator updates it
  triggers in its cluster (at most 2*k_w per stripe visit) and takes the
  maximum over clusters; a cluster with no input channels assigned stays
  idle, which is what starves small-kernel layers.  Decoding supplies at
  most k_h+1 pixels per cycle, which can bound compute for 1x1 kernels.
* output_drain follows the encoder (sparsity map plus first non-zero pixel
  in one cycle, then two pixels per cycle, 16 pixels per map segment) plus
  a log2(cluster)+1 partial-sum reduction per shifted-out column when
  clusters cooperate.

Work is split over passes when there are more output channels than MACs or
when one channel's kernels overflow a 4k-value memory bank; if compressed
input does not fit in pixel memory, multi-pass layers re-stream it.  That
reload is decided once, from the real stream size, and reported on
:class:`LayerStats`.

The pixel geometry is separable, so the model never lists pixels.  A
non-zero pixel at (y, x) triggers rows[y] * cols[x] accumulator updates
(output rows times output columns it feeds) and is read by visits[y]
stripes.  Per-channel update counts are therefore rows . (nz[c] @ cols) and
the decoder's total reads nnz_per_row . visits, both from a few whole-array
passes.  The output side needs only the non-zero count of every 16-pixel
encoder segment of each pass's channels, which gives both the drain cycles
and the output field count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import IO, Optional, Sequence, Union

import numpy as np

from . import codec
from .codec import CompressedStream, RawPixelStream
from .fxp import I16_MAX, I16_MIN, I32_MAX, I32_MIN
from .netmodel import (
    FeatureMapTensor,
    KernelSet,
    LayerDescriptor,
    ValidationError,
)


OUTPUT_PIXELS_PER_CYCLE = 2  # pixels out per cycle: one 32-bit word of two 16-bit pixels


@dataclass(frozen=True)
class HardwareConfig:
    """``macs`` sets passes, cluster sizes, utilization and peak;
    ``pixel_mem_bytes`` decides input reload; ``kernel_bank_values`` groups
    banks; ``clock_hz`` turns cycles into time."""

    macs: int = 128
    pixel_mem_bytes: int = 512 * 1024
    kernel_bank_values: int = 4096
    clock_hz: float = 500e6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{f.name} must be positive and finite, got {value}")

    @property
    def peak_gops(self) -> float:
        """Theoretical peak at 2 ops per MAC per cycle."""
        return 2.0 * self.macs * (self.clock_hz / 1e9)


# ---------------------------------------------------------------------------
# scheduling


@dataclass(frozen=True)
class PassPlan:
    chan_start: int
    chan_count: int
    cluster_size: int  # MACs cooperating per output channel (v)
    bank_group: int  # banks jointly holding one channel's kernels
    kernel_values: int  # values loaded for this pass


@dataclass(frozen=True)
class LayerSchedule:
    n_in: int
    n_out: int
    k: int
    passes: tuple[PassPlan, ...]
    values_per_bank: int

    @property
    def n_passes(self) -> int:
        return len(self.passes)


def plan_layer(layer: LayerDescriptor, hw: HardwareConfig) -> LayerSchedule:
    """Derive the pass/cluster/bank plan for a layer; deterministic.

    With fewer output channels than MACs, floor(M / channels) MACs
    cooperate on each channel.  With more channels than MACs the
    channels are spread evenly over ceil(n_out / M) passes.  When one
    channel's kernels exceed a bank, banks are grouped and the channels per
    pass shrink accordingly.
    """
    footprint = layer.n_in * layer.k * layer.k
    group = -(-footprint // hw.kernel_bank_values)
    max_chan = hw.macs // group
    if max_chan < 1:
        raise ValidationError(
            f"kernel footprint {footprint} values cannot be banked "
            f"({hw.macs} banks of {hw.kernel_bank_values})"
        )
    n_passes = -(-layer.n_out // max_chan)
    base, rem = divmod(layer.n_out, n_passes)
    passes = []
    start = 0
    for p in range(n_passes):
        count = base + (1 if p < rem else 0)
        v = max(group, hw.macs // count)
        passes.append(
            PassPlan(
                chan_start=start,
                chan_count=count,
                cluster_size=v,
                bank_group=group,
                kernel_values=count * footprint,
            )
        )
        start += count
    return LayerSchedule(
        n_in=layer.n_in,
        n_out=layer.n_out,
        k=layer.k,
        passes=tuple(passes),
        values_per_bank=-(-footprint // group),
    )


# ---------------------------------------------------------------------------
# statistics


@dataclass
class LayerStats:
    cycles_kernel_load: int = 0
    cycles_input_stream: int = 0
    cycles_compute: int = 0
    cycles_output_drain: int = 0
    cycles_total: int = 0
    mult_ops: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    bytes_kernels: int = 0
    passes: int = 0
    pixels_decoded: int = 0  # decoder reads
    pixels_drained: int = 0  # pixels out: the non-zero ones if encoded, all if raw
    macs: int = 128
    # multi-pass layer whose input stream overflows pixel memory, so every
    # pass streams it again
    input_reload: bool = False
    # what a total summed: the passes of a layer or the layers of a network
    parts: tuple[LayerStats, ...] = field(default=(), compare=False, repr=False)

    @property
    def utilization(self) -> float:
        if self.cycles_total == 0:
            return 0.0
        return self.mult_ops / (self.macs * self.cycles_total)

    @property
    def utilization_excl_load(self) -> float:
        cycles = self.cycles_total - self.cycles_kernel_load
        if cycles <= 0:
            return 0.0
        return self.mult_ops / (self.macs * cycles)

    @property
    def total_bytes(self) -> int:
        return self.bytes_in + self.bytes_out + self.bytes_kernels

    def as_dict(self) -> dict:
        return {
            "cycles_kernel_load": self.cycles_kernel_load,
            "cycles_input_stream": self.cycles_input_stream,
            "cycles_compute": self.cycles_compute,
            "cycles_output_drain": self.cycles_output_drain,
            "cycles_total": self.cycles_total,
            # one multiplication keeps one MAC busy for one cycle
            "mac_busy_cycles": self.mult_ops,
            "mult_ops": self.mult_ops,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "bytes_kernels": self.bytes_kernels,
            "passes": self.passes,
            "utilization": self.utilization,
            "utilization_excl_load": self.utilization_excl_load,
        }


DRAM_PJ_PER_BIT = 21.0


_SUMMED_FIELDS = (
    "cycles_kernel_load", "cycles_input_stream", "cycles_compute",
    "cycles_output_drain", "cycles_total", "mult_ops",
    "bytes_in", "bytes_out", "bytes_kernels", "passes",
    "pixels_decoded", "pixels_drained",
)


def total_stats(stats: Sequence[LayerStats]) -> LayerStats:
    """The field-wise sum of ``stats``, which must share one MAC count.

    ``input_reload`` is set when any record reloads its input, and
    ``parts`` holds ``stats``.  Layers sum their passes and networks their
    layers through this one function.
    """
    macs = {s.macs for s in stats}
    if len(macs) != 1:
        raise ValidationError(
            f"records to total must share one MAC count, got {sorted(macs)}"
        )
    return LayerStats(
        **{f: sum(getattr(s, f) for s in stats) for f in _SUMMED_FIELDS},
        macs=macs.pop(),
        input_reload=any(s.input_reload for s in stats),
        parts=tuple(stats),
    )


def estimate_dram_energy(stats: LayerStats) -> float:
    """DRAM access energy in joules for the traffic in ``stats``."""
    return stats.total_bytes * 8 * DRAM_PJ_PER_BIT * 1e-12


def _tap_counts(pos: np.ndarray, k: int, out_len: int) -> np.ndarray:
    """Output positions (of ``out_len``) that padded input positions feed."""
    n = np.minimum(pos, out_len - 1) - np.maximum(pos - k + 1, 0) + 1
    return np.maximum(n, 0)


def _row_col_geometry(layer: LayerDescriptor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per input row: output rows fed and stripes that read it; per column:
    output columns fed.

    A non-zero pixel at (y, x) triggers ``rows[y] * cols[x]`` accumulator
    updates over all its stripe visits and is read by ``visits[y]`` stripes.
    """
    k = layer.k
    yp = np.arange(layer.h, dtype=np.int64) + layer.pad
    xp = np.arange(layer.w, dtype=np.int64) + layer.pad
    n_stripes = -(-layer.conv_h // 2)
    t_lo = np.maximum((yp - k + 1) // 2, 0)
    t_hi = np.minimum(yp // 2, n_stripes - 1)
    visits = np.maximum(t_hi - t_lo + 1, 0)
    return _tap_counts(yp, k, layer.conv_h), _tap_counts(xp, k, layer.conv_w), visits


def _input_counts(
    nz: np.ndarray, rows: np.ndarray, cols: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulator updates per input channel and non-zero pixels per row of
    the (c, h, w) bool mask ``nz`` of the non-zero input pixels."""
    # (channel, row); a row of at most MAX_DIM = 512 pixels fits in int16,
    # and summing bools in int16 takes half the time of count_nonzero
    per_row = nz.sum(axis=2, dtype=np.int16).astype(np.int64)
    # a pixel feeds k output columns, fewer within k-1 columns of a border:
    # subtract that shortfall from k per non-zero pixel
    short = np.flatnonzero(cols < k)
    updates = k * per_row - nz[:, :, short].astype(np.int64) @ (k - cols[short])
    return updates @ rows, per_row.sum(axis=0)


def _layer_stats(
    in_mask: np.ndarray,
    out_mask: Optional[np.ndarray],
    layer: LayerDescriptor,
    schedule: LayerSchedule,
    hw: HardwareConfig,
) -> LayerStats:
    """One layer's record from the (c, h, w) bool masks of its non-zero
    input and output pixels; a raw layer drains every pixel, so it takes no
    output mask (None)."""
    k = layer.k
    n_stripes = -(-layer.conv_h // 2)
    rows, cols, visits = _row_col_geometry(layer)
    chan_updates, nnz_per_row = _input_counts(in_mask, rows, cols, k)
    wops_sum = int(chan_updates.sum())
    visits_sum = int(nnz_per_row @ visits)
    idp_bound = -(-visits_sum // (k + 1))

    # input stream size from the row-aligned encoding
    row_fields = codec.row_segments(layer.w, layer.n_in) + nnz_per_row
    stream_words = int(-(-row_fields.sum() // 2))
    prefill_rows = max(0, min(k - layer.pad + 1, layer.h))
    prefill_words = int(-(-row_fields[:prefill_rows].sum() // 2))

    reload = schedule.n_passes > 1 and stream_words * 4 > hw.pixel_mem_bytes
    out_pixels = layer.out_shape[1] * layer.out_shape[2]  # per output channel
    passes = []
    for p_idx, pas in enumerate(schedule.passes):
        c_p, v = pas.chan_count, pas.cluster_size
        # input channels are dealt round-robin to the v cooperating MACs
        loads = np.zeros(-(-layer.n_in // v) * v, dtype=np.int64)
        loads[: layer.n_in] = chan_updates
        compute = max(int(loads.reshape(-1, v).sum(axis=0).max()), idp_bound)

        # px_out: the pixels the drain moves, the non-zero ones if encoded
        if layer.encode:
            out_slice = out_mask[pas.chan_start : pas.chan_start + c_p]
            seg_nnz = np.bitwise_count(codec.sparsity_maps(out_slice))
            px_out = int(seg_nnz.sum(dtype=np.int64))
            # a segment's map and first non-zero pixel take one cycle
            drain = seg_nnz.size + int(
                (seg_nnz // OUTPUT_PIXELS_PER_CYCLE).sum(dtype=np.int64)
            )
            out_words = -(-(seg_nnz.size + px_out) // 2)
        else:
            px_out = c_p * out_pixels
            drain = -(-px_out // OUTPUT_PIXELS_PER_CYCLE)
            out_words = -(-px_out // 2)
        if v > 1:
            drain += (math.ceil(math.log2(v)) + 1) * n_stripes * layer.conv_w

        streamed = p_idx == 0 or reload
        stream_p = stream_words if streamed else 0
        prefill_p = prefill_words if streamed else 0
        load_p = -(-pas.kernel_values // 2)
        overlap = max(compute, stream_p, drain)

        passes.append(LayerStats(
            cycles_kernel_load=load_p,
            cycles_input_stream=stream_p,
            cycles_compute=compute,
            cycles_output_drain=drain,
            cycles_total=load_p + prefill_p + overlap,
            mult_ops=c_p * wops_sum,
            bytes_in=4 * stream_p,
            bytes_out=4 * out_words,
            bytes_kernels=2 * pas.kernel_values,
            passes=1,
            pixels_decoded=visits_sum,
            pixels_drained=px_out,
            macs=hw.macs,
            input_reload=reload,
        ))
    return total_stats(passes)


def write_trace(f: IO[str], stats: LayerStats, k: int) -> None:
    """Write one layer's debug trace from its record (``stats.parts`` are its
    passes) and kernel size ``k``: a line ``first_cycle cycles phase px_in
    px_out`` per run of identical cycles, counted from the layer's start.

    A pass is kernel_load, prefill, then overlap, where the decoder reads up
    to k_h+1 pixels a cycle and the drain moves up to ``OUTPUT_PIXELS_PER_CYCLE``:
    each count at its cap, then its remainder for one cycle, then none.  This
    reconstructs the phase model, not an RTL timing record.
    """
    cycle = 0
    for p in stats.parts:
        load = p.cycles_kernel_load
        overlap = max(p.cycles_compute, p.cycles_input_stream, p.cycles_output_drain)
        flows = ((p.pixels_decoded, k + 1), (p.pixels_drained, OUTPUT_PIXELS_PER_CYCLE))
        # a flow's rate changes where its full cycles end and after its remainder
        cuts = {0, overlap}
        for px, cap in flows:
            full, rem = divmod(px, cap)
            cuts.update((min(full, overlap), min(full + (rem > 0), overlap)))
        cuts = sorted(cuts)
        prefill = p.cycles_total - load - overlap
        runs = [(load, "kernel_load", 0, 0), (prefill, "prefill", 0, 0)]
        for a, b in zip(cuts, cuts[1:]):
            rates = (min(cap, max(px - cap * a, 0)) for px, cap in flows)
            runs.append((b - a, "overlap", *rates))
        for n, phase, pin, pout in runs:
            if n:
                f.write(f"{cycle} {n} {phase} {pin} {pout}\n")
                cycle += n


# ---------------------------------------------------------------------------
# functional pipeline


# A block spans the stripes whose accumulator (or tap matrix over all input
# channels, if larger) fits _BLOCK_BYTES, but at least _MIN_COLUMNS columns;
# its input-channel ranges' tap matrices fit too, but are at least _MIN_DEPTH deep.
_BLOCK_BYTES = 4 << 20
_MIN_COLUMNS = 1024
_MIN_DEPTH = 1024


def _forward_pipeline(
    in_values: np.ndarray, kern: KernelSet, layer: LayerDescriptor
) -> FeatureMapTensor:
    """Bit-exact blocked evaluation of one layer.

    Blocks of consecutive stripes (double output rows) start on even rows,
    so pooling pairs stay in one block.  Per block, each input-channel range
    copies its taps from the int16 padded input into one reused float64
    matrix; the first range's product with every output channel's weights
    fills the accumulator and later ranges add theirs.  The 32-bit clamp
    happens at readout.  The hardware splits the same sums differently,
    over cooperating clusters that each hold some input channels, but every
    partial sum is an integer that float64 holds exactly, so no order of
    the additions can show in the output.  Readout stays in float64 and
    pools before it requantizes, which gives the same int16 values as
    requantizing every pixel and pooling after.
    """
    k, pad = layer.k, layer.pad
    out_h, out_w = layer.conv_h, layer.conv_w
    n_in, n_out, kk = layer.n_in, layer.n_out, layer.k * layer.k
    stripe_bytes = max(n_in * kk, n_out) * 2 * out_w * 8
    block_rows = 2 * max(-(-_MIN_COLUMNS // (2 * out_w)), _BLOCK_BYTES // stripe_bytes)
    cols = min(block_rows, out_h) * out_w
    chans = min(n_in, max(-(-_MIN_DEPTH // kk), _BLOCK_BYTES // (kk * cols * 8)))
    padded = np.zeros((n_in, layer.h + 2 * pad, layer.w + 2 * pad), dtype=np.int16)
    padded[:, pad : pad + layer.h, pad : pad + layer.w] = in_values
    # float64 holds every partial sum exactly: weights and activations are
    # validated int16, so |products| <= 2**30, and a layer sums at most
    # MAX_CHANNELS * MAX_KERNEL**2 = 50,176 of them, so |acc| < 2**46 < 2**53.
    # A layer cut into ranges casts one range's weights at a time, which
    # keeps a deep layer's float64 weights out of its peak memory.
    weights = kern.weights.reshape(n_out, n_in * kk)
    if chans == n_in:
        weights = weights.astype(np.float64)
    # Readout in float64 is exact too.  Adding an int32 bias keeps the sum an
    # integer below 2**47; the clamp leaves it in the int32 range; scaling
    # by a power of two in [2**-30, 2**15] only moves the exponent; np.rint
    # rounds half to even, the rule of fxp.requantize_array; and the int16
    # clip (from 0 under ReLU) leaves an integer that casts exactly.
    # Each of these steps is monotone non-decreasing within a channel, so
    # the max over a 2x2 pooling window commutes with all of them: pooling
    # the raw accumulators first reads out a quarter of the pixels.
    bias = kern.bias.astype(np.float64)[:, None, None]
    scale = 2.0 ** (layer.frac_out - layer.acc_frac)
    floor = 0 if layer.relu else I16_MIN
    out = np.zeros(layer.out_shape, dtype=np.int16)
    tap_buf = np.empty(chans * kk * cols)
    acc_buf = np.empty(n_out * cols)
    for r0 in range(0, out_h, block_rows):
        nrows = min(block_rows, out_h - r0)
        acc = acc_buf[: n_out * nrows * out_w].reshape(n_out, nrows * out_w)
        for c0 in range(0, n_in, chans):
            c1 = min(c0 + chans, n_in)
            taps = tap_buf[: (c1 - c0) * kk * nrows * out_w].reshape(-1, nrows * out_w)
            windows = np.lib.stride_tricks.sliding_window_view(
                padded[c0:c1, r0 : r0 + nrows + k - 1], (nrows, out_w), axis=(1, 2)
            )  # (c1 - c0, k, k, nrows, out_w)
            np.copyto(taps.reshape(windows.shape), windows)
            w = weights[:, c0 * kk : c1 * kk].astype(np.float64, copy=False)
            if c0 == 0:
                np.matmul(w, taps, out=acc)
            else:
                acc += w @ taps
        acc = acc.reshape(n_out, nrows, out_w)
        if layer.pool:
            # floor pooling drops a trailing odd row and column
            h2, w2 = nrows // 2, out_w // 2
            acc = np.maximum(acc[:, 0 : 2 * h2 : 2], acc[:, 1 : 2 * h2 : 2])
            acc = np.maximum(acc[:, :, 0 : 2 * w2 : 2], acc[:, :, 1 : 2 * w2 : 2])
            rows = slice(r0 // 2, r0 // 2 + h2)
        else:
            rows = slice(r0, r0 + nrows)
        acc += bias
        np.clip(acc, I32_MIN, I32_MAX, out=acc)
        acc *= scale
        np.rint(acc, out=acc)
        np.clip(acc, floor, I16_MAX, out=acc)
        out[:, rows] = acc
    return FeatureMapTensor(out, layer.out_qformat)


# ---------------------------------------------------------------------------
# simulation entry points


@dataclass
class SimResult:
    tensor: FeatureMapTensor
    stats: LayerStats
    layer: LayerDescriptor

    @cached_property
    def stream(self) -> Union[CompressedStream, RawPixelStream]:
        """The layer's output as the accelerator writes it, encoded on first use."""
        if self.layer.encode:
            return codec.encode(self.tensor)
        return codec.encode_raw(self.tensor)


def _check_input(shape: tuple[int, ...], layer: LayerDescriptor) -> None:
    if shape != (layer.n_in, layer.h, layer.w):
        raise ValidationError(
            f"input {shape} does not match layer ({layer.n_in}, {layer.h}, {layer.w})"
        )


def _check_schedule(layer: LayerDescriptor, schedule: LayerSchedule) -> None:
    if (schedule.n_in, schedule.n_out, schedule.k) != (layer.n_in, layer.n_out, layer.k):
        raise ValidationError(
            f"schedule built for ({schedule.n_in}, {schedule.n_out}, k={schedule.k}) "
            f"does not match layer ({layer.n_in}, {layer.n_out}, k={layer.k})"
        )


def simulate_layer(
    in_tensor: FeatureMapTensor,
    kern: KernelSet,
    layer: LayerDescriptor,
    schedule: Optional[LayerSchedule] = None,
    hw: Optional[HardwareConfig] = None,
) -> SimResult:
    """Run one layer through the pipeline: bit-exact output plus stats."""
    hw = hw or HardwareConfig()
    _check_input(in_tensor.values.shape, layer)
    if kern.n_out != layer.n_out or kern.n_in != layer.n_in or kern.k != layer.k:
        raise ValidationError("kernel set does not match layer descriptor")
    if schedule is None:
        schedule = plan_layer(layer, hw)
    else:
        _check_schedule(layer, schedule)
    out_tensor = _forward_pipeline(in_tensor.values, kern, layer)
    # only the output's maps are packed, so only its mask is in stream order
    in_mask = in_tensor.values != 0
    out_mask = codec.nonzero_mask(out_tensor.values) if layer.encode else None
    stats = _layer_stats(in_mask, out_mask, layer, schedule, hw)
    return SimResult(tensor=out_tensor, stats=stats, layer=layer)


def _source_shape(x: Union[FeatureMapTensor, np.ndarray], what: str) -> tuple[int, ...]:
    """The shape of a tensor or of a bool mask; other arrays are refused."""
    if isinstance(x, FeatureMapTensor):
        return x.values.shape
    mask = np.asarray(x)
    if mask.dtype != bool:
        raise ValidationError(
            f"{what} must be a FeatureMapTensor or a bool mask, not {mask.dtype}"
        )
    return mask.shape


def simulate_layer_stats(
    in_tensor: Union[FeatureMapTensor, np.ndarray],
    out_tensor: Union[FeatureMapTensor, np.ndarray],
    layer: LayerDescriptor,
    schedule: Optional[LayerSchedule] = None,
    hw: Optional[HardwareConfig] = None,
) -> LayerStats:
    """Performance model only, with a caller-supplied output tensor.

    Used for what-if runs with synthetic activations, where kernel values
    are unavailable and the functional result is not of interest.  The
    model reads only which pixels are non-zero, so the input and the output
    may each be a tensor or a (channels, height, width) bool mask of its
    non-zero pixels, such as :func:`nhsim.netmodel.synthetic_mask` draws.
    """
    hw = hw or HardwareConfig()
    if schedule is None:
        schedule = plan_layer(layer, hw)
    else:
        _check_schedule(layer, schedule)
    _check_input(_source_shape(in_tensor, "input"), layer)
    out_shape = _source_shape(out_tensor, "stand-in output")
    if out_shape != layer.out_shape:
        raise ValidationError(
            f"stand-in output {out_shape} does not match "
            f"layer output {layer.out_shape}"
        )
    # a tensor's masks are made as in simulate_layer
    if isinstance(in_tensor, FeatureMapTensor):
        in_mask = in_tensor.values != 0
    else:
        in_mask = np.asarray(in_tensor)
    out_mask = None  # a raw layer drains every pixel
    if layer.encode:
        if isinstance(out_tensor, FeatureMapTensor):
            out_mask = codec.nonzero_mask(out_tensor.values)
        else:
            out_mask = np.asarray(out_tensor)
    return _layer_stats(in_mask, out_mask, layer, schedule, hw)
