"""The four benchmark workloads.

A workload builds its inputs from the seed (:meth:`build`, timed as
set-up), lists a fixed mix of operations (:meth:`ops`, one round), and
checks every operation's output outside the timed region (:meth:`check`).
Operations call nhsim only through module attributes (``cli.run_network``
rather than a name imported from it), so a traced run sees every call.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import chain
import checks
import nhsim
from nhsim import accel, cli, codec, netmodel, presets, refmodel
from nhsim.fxp import QFormat
from nhsim.netmodel import FeatureMapTensor, KernelSet, LayerDescriptor, NetworkDescriptor

HW = accel.HardwareConfig()


@dataclass
class Op:
    name: str
    fn: Callable[[], object]
    count: int  # operations this call stands for in ``attempted``


@dataclass
class Checked:
    errors: list[str]
    # layers hit by the known input_reload fault; each is a failed operation
    faulted: list[str] = dataclasses.field(default_factory=list)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.notes: list[str] = []  # facts about the inputs, printed once

    def rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def build(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, out) -> Checked:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# whatif: synthetic-activation design-space runs


class WhatIf(Workload):
    """``cli.run_network`` in synthetic mode over every preset and sparsity."""

    name = "whatif"
    networks = ("vgg16", "vgg19", "giga1net", "roshambo", "face_detector")
    sparsities = (0.5, 0.82, 0.95)

    def build(self) -> None:
        rng = self.rng()
        self.runs = []
        for name in self.networks:
            net = presets.network(name)
            first = net.layers[0]
            x = FeatureMapTensor(
                rng.integers(1, 256, size=(first.n_in, first.h, first.w), dtype=np.int16),
                QFormat(first.frac_in),
            )
            for sp in self.sparsities:
                self.runs.append((name, sp, net, x, int(rng.integers(0, 2**31))))

    def ops(self) -> list[Op]:
        def run(net, x, sp, seed):
            return lambda: cli.run_network(net, x, HW, synthetic_sparsity=sp, seed=seed)[0]

        return [
            Op(f"{name}@{sp}", run(net, x, sp, seed), len(net.layers))
            for name, sp, net, x, seed in self.runs
        ]

    def check(self, op: Op, report) -> Checked:
        doc = report.as_dict()
        name, sp = doc["network"], doc["synthetic_sparsity"]
        errors = (
            checks.check_report_totals(op.name, doc)
            + checks.check_layer_stats(op.name, doc["layers"])
            + checks.check_design_points(name, sp, doc["totals"])
        )
        return Checked(errors, checks.reload_fault_layers(doc["layers"], HW.pixel_mem_bytes))


# ---------------------------------------------------------------------------
# real-weight networks, built and run layer by layer in a child process

CHAIN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "chain.py")


def run_chain(command: str, seed: int, out: str, *items: str) -> dict:
    """Run ``chain.py`` in a child on the nhsim imported here; its result."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nhsim.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, CHAIN, command, "--seed", str(seed), "--out", out, *items],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# frame: real-weight bit-exact frames from files


class Frame(Workload):
    """``cli.run_network`` in real-weight mode, reading .nht/.nhw files."""

    name = "frame"
    networks = ("vgg16", "giga1net")

    def build(self) -> None:
        self.nets = {}
        for name in self.networks:
            layers, kernels, x = chain.real_weight_network(self.seed, name)
            for layer, kern in zip(layers, kernels):
                netmodel.save_weights(kern, os.path.join(self.workdir, layer.weights_path))
            net_path = os.path.join(self.workdir, f"{name}.json")
            x_path = os.path.join(self.workdir, f"{name}.nht")
            netmodel.save_network(NetworkDescriptor(layers, name=name), net_path)
            netmodel.save_tensor(x, x_path)
            self.nets[name] = (net_path, x_path)
        self.expected: dict[str, np.ndarray] = {}

    def ops(self) -> list[Op]:
        def frame(net_path, x_path):
            return lambda: cli.run_network(
                netmodel.load_network(net_path), netmodel.load_tensor(x_path), HW
            )

        return [Op(name, frame(*paths), 1) for name, paths in self.nets.items()]

    def check(self, op: Op, out) -> Checked:
        report, vec = out
        doc = report.as_dict()
        errors = checks.check_report_totals(op.name, doc) + checks.check_layer_stats(
            op.name, doc["layers"]
        )
        if op.name not in self.expected:
            # the first frame of a network is checked against the chain
            # (chain.checked_chain), run in a child from the seed, not
            # from the files
            chained = run_chain("check", self.seed, self.workdir, op.name)
            errors += chained["errors"]
            self.notes.append(
                f"{op.name} output zero fraction per layer: "
                + " ".join(f"{s:.3f}" for s in chained["sparsity"])
            )
            path = os.path.join(self.workdir, f"{op.name}.expected.npy")
            self.expected[op.name] = np.load(path)
        errors += checks.check_equal(f"{op.name} network output", vec, self.expected[op.name])
        return Checked(errors)


# ---------------------------------------------------------------------------
# codec: compression round trips and the codec comparison sweep

# Each codec tensor is the input of one layer (``preset.layer``, 1-based) of
# the real-weight networks frame runs, for the same seed: the dense image,
# then measured layer outputs, pooled (denser) and not.
CODEC_TENSORS = (
    "vgg16.1",
    "giga1net.2",
    "vgg16.3",
    "giga1net.4",
    "vgg16.5",
    "roshambo.2",
    "giga1net.8",
    "vgg16.9",
    "vgg16.11",
    "vgg16.12",
)
SWEEP_POINTS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
SWEEP_TRIALS = 40


class Codec(Workload):
    """encode / save_stream / load_stream / decode per tensor, plus one sweep."""

    name = "codec"
    tensors = CODEC_TENSORS

    def build(self) -> None:
        made = run_chain("inputs", self.seed, self.workdir, *self.tensors)["tensors"]
        facts = {fact["tensor"]: fact for fact in made}
        self.inputs = []
        for item in self.tensors:
            preset, idx = item.rsplit(".", 1)
            label = f"{preset}.{presets.network(preset).layers[int(idx) - 1].name}"
            t = netmodel.load_tensor(os.path.join(self.workdir, f"{item}.nht"))
            self.inputs.append((label, t, os.path.join(self.workdir, f"{item}.nhc")))
        self.notes = [
            f"input of {label}: {'x'.join(map(str, t.values.shape))}  zero fraction "
            f"{facts[item]['zero_fraction']:.3f}  mean zero run {facts[item]['mean_zero_run']:.2f}"
            for item, (label, t, _) in zip(self.tensors, self.inputs)
        ]
        self.sweep_seed = int(self.rng().integers(0, 2**31))
        self.sweep_rows = None

    def ops(self) -> list[Op]:
        def roundtrip(t, path):
            def fn():
                s = codec.encode(t)
                codec.save_stream(s, path)
                loaded = codec.load_stream(path)
                return t, s, loaded, codec.decode(loaded)

            return fn

        def sweep():
            return cli.compare_codecs_cmd(
                list(SWEEP_POINTS), 16, SWEEP_TRIALS, self.sweep_seed, file=io.StringIO()
            )

        ops = [Op(label, roundtrip(t, path), 1) for label, t, path in self.inputs]
        ops.append(Op("compare_codecs", sweep, len(SWEEP_POINTS)))
        return ops

    def check(self, op: Op, out) -> Checked:
        if op.name == "compare_codecs":
            return Checked(self._check_sweep(out))
        t, s, loaded, back = out
        errors = checks.check_equal(f"{op.name} decode(encode(t))", back.values, t.values)
        errors += checks.check_equal(f"{op.name} .nhc words", loaded.words, s.words)
        if loaded.field_count != s.field_count:
            errors.append(f"{op.name}: .nhc field count {loaded.field_count} != {s.field_count}")
        errors += checks.check_stream_size(op.name, t.values, s.field_count, s.word_count)
        return Checked(errors)

    def _check_sweep(self, rows: list[dict]) -> list[str]:
        if self.sweep_rows is None:
            errors = self._verify_sweep(rows)
            if not errors:
                self.sweep_rows = rows
            return errors
        if rows != self.sweep_rows:
            return ["compare_codecs: rows differ from the verified first sweep"]
        return []

    def _verify_sweep(self, rows: list[dict]) -> list[str]:
        """Recount each point's sizes on the tensors the sweep generates.

        The sweep draws its tensors from one generator seeded with the sweep
        seed, point after point; drawing them again in that order gives the
        same tensors.
        """
        rng = np.random.default_rng(self.sweep_seed)
        errors = []
        if len(rows) != len(SWEEP_POINTS):
            return [f"compare_codecs: {len(rows)} rows for {len(SWEEP_POINTS)} points"]
        for sp, row in zip(SWEEP_POINTS, rows):
            tensors = [
                netmodel.synthetic_tensor(2, 24, 24, sp, rng, burst_mean=128.0).values
                for _ in range(SWEEP_TRIALS)
            ]
            want = {
                "raw_bits": float(np.mean([16 * v.size for v in tensors])),
                "sm_bits": float(np.mean([16 * checks.expected_field_count(v) for v in tensors])),
                "rl_bits": float(np.mean([checks.rl_bits(v) for v in tensors])),
            }
            for key, value in want.items():
                if not math.isclose(row[key], value, rel_tol=1e-12):
                    errors.append(f"compare_codecs at {sp}: {key} {row[key]} != {value}")
        return errors


# ---------------------------------------------------------------------------
# verify: pipeline against the dense oracle across the supported envelope

VERIFY_CASES = 48
# dense MAC count each case aims at, log-spaced
VERIFY_MACS = np.geomspace(1e5, 1e8, VERIFY_CASES)
# Layer shapes come from a generator with this fixed seed; the workload
# seed draws the data.  Seed-drawn shapes moved the round's host time by up
# to 2x from seed to seed (pipeline cost is not proportional to MACs), which
# would hide any change smaller than that.
VERIFY_SHAPE_SEED = 1706_01406
FLAG_SETTINGS = [
    (pad, relu, pool, encode)
    for pad in range(4)
    for relu in (False, True)
    for pool in (False, True)
    for encode in (False, True)
]


def verify_layer(rng: np.random.Generator, k: int, flags, target_macs: float) -> LayerDescriptor:
    """A layer in the envelope (n_in <= 128, n_out <= 256, h, w <= 32) near a MAC count."""
    pad, relu, pool, encode = flags
    best = None
    for _ in range(200):
        h = int(rng.integers(max(4, k), 33))
        w = int(rng.integers(max(4, k), 33))
        ch, cw = h + 2 * pad - k + 1, w + 2 * pad - k + 1
        if pool and (ch < 2 or cw < 2):
            continue
        n_in = int(np.exp(rng.uniform(0.0, math.log(128.0))))
        n_out = int(np.clip(round(target_macs / (n_in * k * k * ch * cw)), 5, 256))
        err = abs(math.log(n_out * n_in * k * k * ch * cw / target_macs))
        if best is None or err < best[0]:
            best = (err, h, w, n_in, n_out)
        if err < 0.1:
            break
    _, h, w, n_in, n_out = best
    return LayerDescriptor(
        n_in=n_in, n_out=n_out, h=h, w=w, k=k, pad=pad, relu=relu, pool=pool,
        encode=encode, frac_in=8, frac_w=10, frac_out=8,
    )


class Verify(Workload):
    """simulate_layer, the dense oracle and a decode of the output, per case."""

    name = "verify"

    def build(self) -> None:
        shapes = np.random.default_rng(VERIFY_SHAPE_SEED)
        flags = [FLAG_SETTINGS[i % len(FLAG_SETTINGS)] for i in shapes.permutation(VERIFY_CASES)]
        ks = [(1, 3, 5, 7)[i % 4] for i in shapes.permutation(VERIFY_CASES)]
        rng = self.rng()
        self.cases = []
        for i in range(VERIFY_CASES):
            layer = verify_layer(shapes, ks[i], flags[i], VERIFY_MACS[i])
            sp = float(shapes.uniform(0.0, 0.95))
            shape = (layer.n_in, layer.h, layer.w)
            vals = rng.integers(-2048, 2048, size=shape) * (rng.random(shape) >= sp)
            t = FeatureMapTensor(vals.astype(np.int16), QFormat(layer.frac_in))
            wts = rng.integers(-512, 513, size=(layer.n_out, layer.n_in, layer.k, layer.k))
            bias = rng.integers(-(1 << 20), 1 << 20, size=layer.n_out)
            kern = KernelSet(wts.astype(np.int16), bias.astype(np.int32), QFormat(layer.frac_w))
            self.cases.append((f"case{i}", layer, t, kern))

    def ops(self) -> list[Op]:
        def case(layer, t, kern):
            def fn():
                sim = accel.simulate_layer(t, kern, layer, hw=HW)
                want = refmodel.layer_forward(t, layer, kern)
                if isinstance(sim.stream, codec.CompressedStream):
                    got = codec.decode(sim.stream)
                else:
                    got = codec.decode_raw(sim.stream)
                return layer, sim, want, got

            return fn

        return [Op(name, case(layer, t, kern), 1) for name, layer, t, kern in self.cases]

    def check(self, op: Op, out) -> Checked:
        layer, sim, want, got = out
        errors = checks.check_equal(f"{op.name} pipeline vs oracle", got.values, want.values)
        entry = dataclasses.asdict(layer) | sim.stats.as_dict()
        entry |= {"name": op.name, "dense_macs": layer.dense_macs}
        errors += checks.check_layer_stats(op.name, [entry])
        return Checked(errors)


WORKLOADS = {w.name: w for w in (WhatIf, Frame, Codec, Verify)}
