"""Command-line surface: network runs, codec tools, self checks.

Subcommands::

    run            --net <file> --input <file> [--clock-mhz 500]
                   [--synthetic-sparsity [S]] [--report <file>] [--trace <file>]
    encode         --in <x.nht> --out <y.nhc>
    decode         --in <y.nhc> --out <x.nht>
    compare-codecs --sparsity-sweep a:b:step --precision N --trials N
                   [--corpus <dir>] [--seed N]
    selfcheck      --seed <n> --trials <n>

Reports are data (JSON / delimited text); plotting is left to external
tools.  The report document mirrors :class:`RunReport`: a ``layers`` list
(shape, passes and the cycle/byte counters of each layer) and a ``totals``
object (GOp/frame of the dense workload, ms/frame and frames/s at the
configured clock, GOp/s, efficiency against the 2-op-per-MAC peak, DRAM
traffic and energy at 21 pJ/bit).  ``--trace`` writes one line per run of
identical cycles of each layer (:func:`nhsim.accel.write_trace`).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import glob
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import IO, Optional

import numpy as np

from . import accel, codec, netmodel, refmodel
from .accel import HardwareConfig, LayerStats
from .fxp import QFormat
from .netmodel import FeatureMapTensor, NetworkDescriptor

DEFAULT_SYNTHETIC_SPARSITY = 0.82
# mean zero-run length of compare-codecs' synthetic stand-ins
SYNTHETIC_BURST_MEAN = 128.0


# ---------------------------------------------------------------------------
# network runs


@dataclass
class RunReport:
    network: str
    clock_hz: float
    macs: int
    synthetic_sparsity: Optional[float]
    layers: list[dict] = field(default_factory=list)
    totals: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _finish_report(
    report: RunReport, net: NetworkDescriptor, stats_list: list[LayerStats],
    hw: HardwareConfig,
) -> RunReport:
    total = accel.total_stats(stats_list)
    dense_macs = sum(l.dense_macs for l in net.layers)
    gop_frame = 2.0 * dense_macs / 1e9
    seconds = total.cycles_total / hw.clock_hz
    fps = 1.0 / seconds if seconds > 0 else 0.0
    gop_s = gop_frame * fps
    energy = accel.estimate_dram_energy(total)
    report.totals = {
        "cycles_total": total.cycles_total,
        "dense_macs": dense_macs,
        "gop_per_frame": gop_frame,
        "ms_per_frame": 1e3 * seconds,
        "frames_per_s": fps,
        "gop_per_s": gop_s,
        "efficiency": gop_s / hw.peak_gops if hw.peak_gops else 0.0,
        "utilization": total.utilization,
        "utilization_excl_load": total.utilization_excl_load,
        "bytes_in": total.bytes_in,
        "bytes_out": total.bytes_out,
        "bytes_kernels": total.bytes_kernels,
        "dram_bytes_per_frame": total.total_bytes,
        "dram_energy_j_per_frame": energy,
        "dram_power_w": energy * fps,
    }
    for key, value in report.totals.items():
        if not math.isfinite(value):
            raise netmodel.ValidationError(f"clock {hw.clock_hz} Hz gives a non-finite {key}")
    return report


# layer fields a report entry repeats, in report order
_ENTRY_KEYS = ("name", "n_in", "n_out", "k", "h", "w", "pad", "pool", "encode")


def _layer_entry(layer, schedule, stats: LayerStats) -> dict:
    return {kk: getattr(layer, kk) for kk in _ENTRY_KEYS} | {
        "cluster_size": schedule.passes[0].cluster_size,
        "input_reload": stats.input_reload,
        "dense_macs": layer.dense_macs,
    } | stats.as_dict()


def _load_kernels(path: Optional[str], frac_w: int, where: str) -> netmodel.KernelSet:
    """A weight file whose stored precision must be the layer's ``frac_w``."""
    if path is None:
        raise netmodel.ValidationError(
            f"{where} has no weights file; use synthetic mode for shape-only descriptors"
        )
    kern = netmodel.load_weights(path)
    if kern.qformat.frac_bits != frac_w:
        raise netmodel.ValidationError(
            f"{where}: {path} holds weights with {kern.qformat.frac_bits} "
            f"fractional bits, the layer declares frac_w={frac_w}"
        )
    return kern


def run_network(
    net: NetworkDescriptor,
    input_tensor: FeatureMapTensor,
    hw: Optional[HardwareConfig] = None,
    synthetic_sparsity: Optional[float] = None,
    seed: int = 0,
    trace: Optional[IO[str]] = None,
) -> tuple[RunReport, Optional[np.ndarray]]:
    """Run all layers sequentially, each output feeding the next.

    Real mode loads every layer's weights and produces the network output
    (the fully-connected tail runs functionally, with no cycle cost).
    With ``synthetic_sparsity`` set, hidden activations are generated at
    that sparsity instead, as non-zero masks (:func:`netmodel.synthetic_mask`),
    no weights are read, and only the performance report is produced.
    """
    hw = hw or HardwareConfig()
    # accel checks the input's shape, but not its fixed-point format
    first = net.layers[0]
    if input_tensor.qformat.frac_bits != first.frac_in:
        raise netmodel.ValidationError(
            f"input has {input_tensor.qformat.frac_bits} fractional bits, "
            f"layer 1 expects {first.frac_in}"
        )
    report = RunReport(
        network=net.name, clock_hz=hw.clock_hz, macs=hw.macs,
        synthetic_sparsity=synthetic_sparsity,
    )
    stats_list: list[LayerStats] = []
    rng = np.random.default_rng(seed)
    current = input_tensor
    final_vec: Optional[np.ndarray] = None
    for i, layer in enumerate(net.layers):
        schedule = accel.plan_layer(layer, hw)
        if synthetic_sparsity is None:
            kern = _load_kernels(layer.weights_path, layer.frac_w, f"layer {i}")
            sim = accel.simulate_layer(current, kern, layer, schedule, hw)
            out_t, stats = sim.tensor, sim.stats
        else:
            # the stats model reads only which pixels are non-zero
            out_t = netmodel.synthetic_mask(*layer.out_shape, synthetic_sparsity, rng)
            stats = accel.simulate_layer_stats(current, out_t, layer, schedule, hw)
        if trace is not None:
            trace.write(f"# layer {i} {layer.name}\n")
            accel.write_trace(trace, stats, layer.k)
        stats_list.append(stats)
        report.layers.append(_layer_entry(layer, schedule, stats))
        current = out_t
    if synthetic_sparsity is None:
        vec = netmodel.stream_order_values(current).astype(np.int64)
        for j, d in enumerate(net.fc):
            kern = _load_kernels(d.weights_path, d.frac_w, f"fc {j}")
            w = kern.weights.reshape(kern.n_out, -1)
            if w.shape[1] != vec.size:
                raise netmodel.ValidationError(
                    f"fc expects {w.shape[1]} inputs, got {vec.size}"
                )
            vec = refmodel.dense_forward(
                vec, w, kern.bias, d.frac_in + d.frac_w, d.frac_out, d.relu
            ).astype(np.int64)
        final_vec = vec
    return _finish_report(report, net, stats_list, hw), final_vec


def print_report(report: RunReport, file: Optional[IO[str]] = None) -> None:
    file = file or sys.stdout
    t = report.totals
    hdr = (
        f"{'layer':<10}{'shape':<22}{'passes':>6}{'cycles':>12}"
        f"{'util':>8}{'util-nl':>8}{'KB io':>10}"
    )
    print(hdr, file=file)
    for e in report.layers:
        shape = f"{e['n_in']}->{e['n_out']} k{e['k']} p{e['pad']}" + (
            " pool" if e["pool"] else ""
        )
        kb = (e["bytes_in"] + e["bytes_out"] + e["bytes_kernels"]) / 1024
        print(
            f"{e['name']:<10}{shape:<22}{e['passes']:>6}{e['cycles_total']:>12}"
            f"{e['utilization']:>8.2%}{e['utilization_excl_load']:>8.2%}{kb:>10.1f}",
            file=file,
        )
    print(
        f"totals: {t['gop_per_frame']:.3f} GOp/frame  {t['ms_per_frame']:.3f} ms/frame  "
        f"{t['frames_per_s']:.2f} frame/s",
        file=file,
    )
    print(
        f"        {t['gop_per_s']:.2f} GOp/s  efficiency {t['efficiency']:.2%}  "
        f"MAC utilization {t['utilization']:.2%} "
        f"({t['utilization_excl_load']:.2%} excl. kernel load)",
        file=file,
    )
    print(
        f"        DRAM {t['dram_bytes_per_frame'] / 2**20:.2f} MB/frame  "
        f"{t['dram_energy_j_per_frame'] * 1e3:.3f} mJ/frame  "
        f"{t['dram_power_w'] * 1e3:.1f} mW",
        file=file,
    )


# ---------------------------------------------------------------------------
# codec comparison


_MAX_SWEEP_POINTS = 1001  # sparsity points one sweep may ask for


def parse_sweep(spec: str) -> list[float]:
    """Sparsities ``lo, lo + step, ...`` up to ``hi``, from ``lo:hi:step``."""
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError:
        lo = hi = step = math.nan
    end = hi + 1e-9  # admits a hi that the summed steps overshoot
    # NaN fails every comparison
    if not (0.0 <= lo <= hi <= 1.0 and step > 0 and (end - lo) / step < _MAX_SWEEP_POINTS):
        raise netmodel.ValidationError(
            f"bad sweep {spec!r}, expected lo:hi:step with 0 <= lo <= hi <= 1 "
            f"and at most {_MAX_SWEEP_POINTS} points"
        )
    points = []
    x = lo
    while x <= end:
        points.append(round(x, 6))
        x += step
    return points


def compare_codecs_cmd(
    sweep: list[float],
    precision: int = 16,
    trials: int = 1000,
    seed: int = 0,
    corpus: Optional[list[FeatureMapTensor]] = None,
    file: Optional[IO[str]] = None,
) -> list[dict]:
    """Mean compressed sizes per sparsity point, SM format vs run-length.

    Synthetic corpora use clustered zero runs of mean length
    ``SYNTHETIC_BURST_MEAN``, matching the spatially correlated inactivity
    of real feature maps; each point's stand-ins are drawn and sized a
    group at a time.
    """
    file = file or sys.stdout
    rng = np.random.default_rng(seed)
    if corpus is not None:
        points = [("corpus", (t.values[None] for t in corpus))]
    else:  # each point's groups are drawn as it is sized, in sweep order
        groups = netmodel.synthetic_mask_groups
        points = [
            (f"{sp:.4f}", groups(trials, 2, 24, 24, sp, rng, SYNTHETIC_BURST_MEAN))
            for sp in sweep
        ]
    rows = []  # all sized before the header, so an empty corpus prints nothing
    for label, batches in points:
        parts = [codec.batch_sizes(b, precision) for b in batches]
        if not parts:  # no synthetic trials, or a corpus of no tensors
            raise netmodel.ValidationError(
                "corpus is empty" if corpus is not None
                else f"--trials must be at least 1 for compare-codecs, got {trials}"
            )
        mean = {k: float(np.mean(np.concatenate([p[k] for p in parts]))) for k in parts[0]}
        row = {"label": label, "sparsity": mean["sparsity"]}
        row |= {k: mean[k] for k in ("raw_bits", "sm_bits", "rl_bits", "cis_bits")}
        row["sm_ratio"] = row["sm_bits"] / row["raw_bits"]
        row["rl_ratio"] = row["rl_bits"] / row["raw_bits"]
        rows.append(row)
    print("sparsity\traw_bits\tsm_bits\trl_bits\tcis_bits\tsm_ratio\trl_ratio", file=file)
    for row in rows:
        print("{sparsity:.4f}\t{raw_bits:.0f}\t{sm_bits:.1f}\t{rl_bits:.1f}\t{cis_bits:.1f}"
              "\t{sm_ratio:.4f}\t{rl_ratio:.4f}".format(**row), file=file)
    return rows


# ---------------------------------------------------------------------------
# selfcheck


@dataclass
class SelfCheckResult:
    trials: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _random_layer(rng: np.random.Generator):
    k = int(rng.choice([1, 3, 5, 7]))
    h = int(rng.integers(max(4, k), 21))
    w = int(rng.integers(max(4, k), 21))
    pad = int(rng.integers(0, 4))
    n_in = int(rng.integers(1, 17))
    n_out = int(rng.integers(5, 41))
    pool = bool(rng.integers(0, 2))
    conv_h, conv_w = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    if conv_h < 1 or conv_w < 1 or (pool and (conv_h < 2 or conv_w < 2)):
        pad = min(3, max(0, (k - 1) // 2))
        pool = False
    return netmodel.LayerDescriptor(
        n_in=n_in, n_out=n_out, h=h, w=w, k=k, pad=pad,
        relu=bool(rng.integers(0, 2)), pool=pool,
        encode=bool(rng.integers(0, 2)),
        frac_in=8, frac_w=10, frac_out=8,
    )


def random_case(rng: np.random.Generator):
    """One random (layer, input, kernels) triple for equivalence checks."""
    layer = _random_layer(rng)
    sp = float(rng.uniform(0.0, 0.95))
    t = netmodel.synthetic_tensor(
        layer.n_in, layer.h, layer.w, sp, rng, QFormat(layer.frac_in)
    )
    w = rng.integers(-128, 129, size=(layer.n_out, layer.n_in, layer.k, layer.k))
    b = rng.integers(-(1 << 18), 1 << 18, size=layer.n_out)
    kern = netmodel.KernelSet(
        w.astype(np.int16), b.astype(np.int32), QFormat(layer.frac_w)
    )
    return layer, t, kern


def selfcheck(seed: int, trials: int, file: Optional[IO[str]] = None) -> SelfCheckResult:
    """Randomized pipeline-vs-oracle and codec roundtrip sweeps."""
    file = file or sys.stdout
    result = SelfCheckResult(trials=trials)
    if trials == 0:
        print("selfcheck: 0 trials requested, vacuous pass", file=file)
        return result
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        layer, t, kern = random_case(rng)
        params = (
            f"trial={trial} seed={seed} k={layer.k} n_in={layer.n_in} "
            f"n_out={layer.n_out} h={layer.h} w={layer.w} pad={layer.pad} "
            f"relu={layer.relu} pool={layer.pool} encode={layer.encode}"
        )
        back = codec.decode(codec.encode(t))
        if not np.array_equal(back.values, t.values):
            result.failures.append(f"codec roundtrip mismatch: {params}")
            continue
        sim = accel.simulate_layer(t, kern, layer)
        want = refmodel.layer_forward(t, layer, kern)
        if isinstance(sim.stream, codec.CompressedStream):
            got = codec.decode(sim.stream)
        else:
            got = codec.decode_raw(sim.stream)
        if got.values.shape != want.values.shape:
            result.failures.append(
                f"pipeline/oracle shape mismatch {got.values.shape} vs "
                f"{want.values.shape}: {params}"
            )
        elif not np.array_equal(got.values, want.values):
            bad = int(np.count_nonzero(got.values != want.values))
            result.failures.append(
                f"pipeline/oracle equivalence failure ({bad} pixels): {params}"
            )
    if result.passed:
        print(f"selfcheck: {trials} trials passed (seed {seed})", file=file)
    else:
        print(
            f"selfcheck: {len(result.failures)}/{trials} trials FAILED", file=file
        )
        print(f"first failure: {result.failures[0]}", file=file)
    return result


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nhsim",
        description="sparse CNN accelerator model: run networks, codec tools",
    )
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="simulate a network end to end")
    runp.add_argument("--net", required=True, help="network config (JSON)")
    runp.add_argument("--input", required=True, help="input tensor (.nht)")
    runp.add_argument("--clock-mhz", type=float, default=500.0)
    runp.add_argument(
        "--synthetic-sparsity", type=float, nargs="?",
        const=DEFAULT_SYNTHETIC_SPARSITY, default=None, metavar="S",
        help="generate hidden activations at sparsity S instead of computing "
        f"(default S when flag given: {DEFAULT_SYNTHETIC_SPARSITY})",
    )
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--report", help="write the JSON report here")
    runp.add_argument("--trace", help="write a debug trace here: one line per run of cycles")

    encp = sub.add_parser("encode", help="compress a tensor file")
    encp.add_argument("--in", dest="src", required=True)
    encp.add_argument("--out", dest="dst", required=True)

    decp = sub.add_parser("decode", help="decompress a stream file")
    decp.add_argument("--in", dest="src", required=True)
    decp.add_argument("--out", dest="dst", required=True)

    cmpp = sub.add_parser("compare-codecs", help="SM vs run-length sizes")
    cmpp.add_argument("--sparsity-sweep", default="0.1:0.9:0.1")
    cmpp.add_argument("--precision", type=int, default=16)
    cmpp.add_argument("--trials", type=int, default=1000)
    cmpp.add_argument("--seed", type=int, default=0)
    cmpp.add_argument("--corpus", help="directory of .nht files instead of synthetic")

    sc = sub.add_parser("selfcheck", help="randomized equivalence sweep")
    sc.add_argument("--seed", type=int, default=1)
    sc.add_argument("--trials", type=int, default=100)
    return p


def _check_flags(args: argparse.Namespace) -> None:
    """Bounds argparse's types leave out; HardwareConfig checks --clock-mhz."""
    for name, low in (("seed", 0), ("trials", 0), ("precision", 1)):
        if getattr(args, name, low) < low:
            raise netmodel.ValidationError(
                f"--{name} must be at least {low}, got {getattr(args, name)}"
            )


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand; an nhsim error, a flag out of range or a file
    that cannot be opened becomes one stderr line and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return _dispatch(args)
    except (
        netmodel.ValidationError, netmodel.FileFormatError, codec.StreamError, OSError,
    ) as e:
        print(f"nhsim: {e}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        net = netmodel.load_network(args.net)
        tensor = netmodel.load_tensor(args.input)
        hw = HardwareConfig(clock_hz=args.clock_mhz * 1e6)
        with (open(args.trace, "w", encoding="utf-8") if args.trace
              else contextlib.nullcontext()) as trace_f:
            report, _ = run_network(
                net, tensor, hw,
                synthetic_sparsity=args.synthetic_sparsity,
                seed=args.seed, trace=trace_f,
            )
        print_report(report)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as f:
                json.dump(report.as_dict(), f, indent=2, allow_nan=False)
        return 0
    if args.command == "encode":
        t = netmodel.load_tensor(args.src)
        codec.save_stream(codec.encode(t), args.dst)
        return 0
    if args.command == "decode":
        s = codec.load_stream(args.src)
        netmodel.save_tensor(codec.decode(s), args.dst)
        return 0
    if args.command == "compare-codecs":
        corpus = None
        if args.corpus:
            paths = sorted(glob.glob(os.path.join(args.corpus, "*.nht")))
            if not paths:
                raise netmodel.ValidationError(f"no .nht files were found in {args.corpus}")
            corpus = [netmodel.load_tensor(pth) for pth in paths]
        compare_codecs_cmd(
            parse_sweep(args.sparsity_sweep), args.precision, args.trials,
            args.seed, corpus,
        )
        return 0
    # argparse admits only the five subcommands: this one is selfcheck
    return 0 if selfcheck(args.seed, args.trials).passed else 1


if __name__ == "__main__":
    sys.exit(main())
