"""Output checks made apart from the simulator.

Every function returns a list of error strings (empty when the output is
right).  None of them calls into the code under test to compute the value
it compares against: the integer convolution, the requantizer, the stream
size formula and the run-length count are written here from the format
and arithmetic rules in the nhsim README.
"""

from __future__ import annotations

import numpy as np

I16_MIN, I16_MAX = -(1 << 15), (1 << 15) - 1
I32_MIN, I32_MAX = -(1 << 31), (1 << 31) - 1
SEGMENT_PIXELS = 16
FIELD_BITS = 16
RL_PAIR_BITS = 5 + 16
RL_MAX_RUN = 31

# reference design points of the modelled accelerator
VGG19_GOPS_RANGE = (300.0, 550.0)
VGG16_DRAM_MB = 42.0
VGG16_DRAM_TOLERANCE = 0.25


# ---------------------------------------------------------------------------
# integer layer arithmetic


def requantize(acc: np.ndarray, shift: int) -> np.ndarray:
    """Round-to-nearest-even arithmetic shift, saturated to 16 bits."""
    acc = np.asarray(acc, dtype=np.int64)
    if shift > 0:
        step = np.int64(1) << shift
        q = np.floor_divide(acc, step)
        r = acc - q * step
        half = step // 2
        q = q + ((r > half) | ((r == half) & (q % 2 == 1)))
    else:
        q = acc * (np.int64(1) << -shift)
    return np.clip(q, I16_MIN, I16_MAX)


def sampled_layer_outputs(
    x: np.ndarray, weights: np.ndarray, bias: np.ndarray, layer, positions: np.ndarray
) -> np.ndarray:
    """Layer outputs at ``positions`` (rows of channel, y, x) from integer sums.

    Pooled layers evaluate the four pre-pool pixels of each pooled output.
    """
    k, pad = layer.k, layer.pad
    xp = np.zeros((x.shape[0], x.shape[1] + 2 * pad, x.shape[2] + 2 * pad), np.int64)
    xp[:, pad : pad + x.shape[1], pad : pad + x.shape[2]] = x
    w = weights.astype(np.int64)
    c, oy, ox = positions[:, 0], positions[:, 1], positions[:, 2]
    taps = [(0, 0)]
    if layer.pool:
        oy, ox = 2 * oy, 2 * ox
        taps = [(0, 0), (0, 1), (1, 0), (1, 1)]
    best = None
    for dy, dx in taps:
        y0, x0 = oy + dy, ox + dx
        rows = y0[:, None] + np.arange(k)[None, :]
        cols = x0[:, None] + np.arange(k)[None, :]
        patch = xp[:, rows[:, :, None], cols[:, None, :]]  # (n_in, S, k, k)
        acc = np.einsum("isab,siab->s", patch, w[c]) + bias.astype(np.int64)[c]
        acc = np.clip(acc, I32_MIN, I32_MAX)
        v = requantize(acc, layer.frac_in + layer.frac_w - layer.frac_out)
        if layer.relu:
            v = np.maximum(v, 0)
        best = v if best is None else np.maximum(best, v)
    return best


def check_sampled_layer(x, weights, bias, layer, got: np.ndarray, positions) -> list[str]:
    """Compare the simulator's layer output ``got`` at sampled positions."""
    if got.shape != (layer.n_out, layer.out_h, layer.out_w):
        return [f"{layer.name}: output shape {got.shape} is not {layer.out_shape}"]
    want = sampled_layer_outputs(x, weights, bias, layer, positions)
    have = got[positions[:, 0], positions[:, 1], positions[:, 2]].astype(np.int64)
    bad = np.flatnonzero(have != want)
    if len(bad):
        c, y, xx = positions[bad[0]]
        return [
            f"{layer.name}: {len(bad)}/{len(positions)} sampled pixels differ, "
            f"first at (c={c}, y={y}, x={xx}): {have[bad[0]]} != {want[bad[0]]}"
        ]
    return []


def sample_positions(rng: np.random.Generator, shape, count: int) -> np.ndarray:
    """``count`` random output positions plus the four corners of channel 0."""
    c, h, w = shape
    corners = np.array([[0, 0, 0], [0, 0, w - 1], [0, h - 1, 0], [0, h - 1, w - 1]])
    rand = np.stack(
        [rng.integers(0, c, count), rng.integers(0, h, count), rng.integers(0, w, count)],
        axis=1,
    )
    return np.concatenate([corners, rand]).astype(np.int64)


def stream_order(values: np.ndarray) -> np.ndarray:
    """Flatten (channel, row, column) values rows first, channels fastest."""
    return np.transpose(values, (1, 2, 0)).reshape(-1)


def check_equal(what: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    bad = int(np.count_nonzero(got != want))
    return [f"{what}: {bad} of {want.size} values differ"] if bad else []


# ---------------------------------------------------------------------------
# performance report properties


def check_layer_stats(where: str, entries: list[dict]) -> list[str]:
    """Utilization at most 1 and no more multiplications than the dense layer."""
    errors = []
    for e in entries:
        dense = e["n_out"] * e["n_in"] * e["k"] ** 2 * _conv(e, "h") * _conv(e, "w")
        if e["dense_macs"] != dense:
            errors.append(f"{where} {e['name']}: dense_macs {e['dense_macs']} != {dense}")
        if not 0.0 <= e["utilization"] <= 1.0:
            errors.append(f"{where} {e['name']}: utilization {e['utilization']} outside [0, 1]")
        if e["mult_ops"] > dense:
            errors.append(f"{where} {e['name']}: mult_ops {e['mult_ops']} > dense MACs {dense}")
    return errors


def _conv(e: dict, dim: str) -> int:
    return e[dim] + 2 * e["pad"] - e["k"] + 1


def check_report_totals(where: str, report: dict) -> list[str]:
    """Totals equal the sums of their layers; derived rates follow from them."""
    layers, t = report["layers"], report["totals"]
    errors = []
    sums = {
        key: sum(e[key] for e in layers)
        for key in ("cycles_total", "dense_macs", "bytes_in", "bytes_out", "bytes_kernels")
    }
    for key, want in sums.items():
        if t[key] != want:
            errors.append(f"{where}: totals.{key} {t[key]} != sum of layers {want}")
    traffic = sums["bytes_in"] + sums["bytes_out"] + sums["bytes_kernels"]
    if t["dram_bytes_per_frame"] != traffic:
        errors.append(f"{where}: dram_bytes_per_frame {t['dram_bytes_per_frame']} != {traffic}")
    cycles, mult = sums["cycles_total"], sum(e["mult_ops"] for e in layers)
    seconds = cycles / report["clock_hz"]
    derived = {
        "gop_per_frame": 2.0 * sums["dense_macs"] / 1e9,
        "ms_per_frame": 1e3 * seconds,
        "gop_per_s": 2.0 * sums["dense_macs"] / 1e9 / seconds,
        "utilization": mult / (report["macs"] * cycles),
    }
    for key, want in derived.items():
        if not np.isclose(t[key], want, rtol=1e-9, atol=0.0):
            errors.append(f"{where}: totals.{key} {t[key]} != {want} from its layers")
    return errors


def check_design_points(network: str, sparsity: float, totals: dict) -> list[str]:
    """VGG19 throughput and VGG16 traffic at 0.82 sparsity."""
    if sparsity != 0.82:
        return []
    if network == "vgg19":
        lo, hi = VGG19_GOPS_RANGE
        if not lo <= totals["gop_per_s"] <= hi:
            return [f"vgg19 at 0.82: {totals['gop_per_s']:.1f} GOp/s outside [{lo}, {hi}]"]
    if network == "vgg16":
        mb = totals["dram_bytes_per_frame"] / 2**20
        if abs(mb - VGG16_DRAM_MB) > VGG16_DRAM_TOLERANCE * VGG16_DRAM_MB:
            return [f"vgg16 at 0.82: {mb:.1f} MB/frame not within 25% of {VGG16_DRAM_MB}"]
    return []


def reload_fault_layers(entries: list[dict], pixel_mem_bytes: int) -> list[str]:
    """Multi-pass layers whose ``input_reload`` contradicts their ``bytes_in``.

    Input is re-streamed exactly when one stream overflows pixel memory, so
    a layer reports ``input_reload`` exactly when ``bytes_in`` exceeds it.
    """
    return [
        e["name"]
        for e in entries
        if e["passes"] > 1 and e["input_reload"] != (e["bytes_in"] > pixel_mem_bytes)
    ]


# ---------------------------------------------------------------------------
# compressed streams


def expected_field_count(values: np.ndarray) -> int:
    """Row-aligned fields: ceil(row_px / 16) segments per row plus non-zeros."""
    c, h, w = values.shape
    return h * -(-(w * c) // SEGMENT_PIXELS) + int(np.count_nonzero(values))


def check_stream_size(where: str, values: np.ndarray, field_count: int, word_count: int) -> list[str]:
    """Field and word counts follow the row-aligned formula; size in CIS envelope."""
    errors = []
    want = expected_field_count(values)
    if field_count != want:
        errors.append(f"{where}: {field_count} fields, formula gives {want}")
    if word_count != -(-field_count // 2):
        errors.append(f"{where}: {word_count} words for {field_count} fields")
    c, h, w = values.shape
    cis = values.size + FIELD_BITS * int(np.count_nonzero(values))
    bits = FIELD_BITS * field_count
    if not cis <= bits <= cis + FIELD_BITS * h + 32:
        errors.append(f"{where}: {bits} bits outside CIS envelope [{cis}, {cis + 16 * h + 32}]")
    return errors


def rl_bits(values: np.ndarray) -> int:
    """Run-length size from the zero-run lengths of the stream-order pixels.

    A zero run of length L costs floor(L / 32) (31, 0) pairs before the pair
    of the non-zero that ends it; a trailing run adds a flush pair when
    L mod 32 > 0.
    """
    flat = stream_order(values)
    nz = np.flatnonzero(flat)
    bounds = np.concatenate([[-1], nz, [flat.size]])
    runs = np.diff(bounds) - 1
    pairs = len(nz) + int((runs // (RL_MAX_RUN + 1)).sum())
    if runs[-1] % (RL_MAX_RUN + 1):
        pairs += 1
    return RL_PAIR_BITS * pairs
