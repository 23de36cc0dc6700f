"""Spans around the public functions of nhsim, kept in memory.

:class:`Tracer` replaces module attributes (``accel.simulate_layer`` and so
on) with wrappers that record one span per call: name, start, end, parent
and a few counts.  nhsim's modules call each other through these
attributes, so nested calls (``cli.run_network`` -> ``accel.simulate_layer``
-> ``codec.encode``) nest as spans.  Recording is switched on only for the
timed rounds of a traced run; :meth:`Tracer.restore` puts the original
functions back.

The stats model inside ``simulate_layer`` is not a public call.  The tracer
therefore keeps each simulated layer's input and output and, after the
round, times ``simulate_layer_stats`` on them as an ``accel.stats_probe``
span outside the round.  Pipeline time is what remains of
``simulate_layer`` after that stats time and its ``codec.encode`` child.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from nhsim import accel, cli, codec, netmodel, refmodel

HW_MACS = accel.HardwareConfig().macs
CLOCK_HZ = int(accel.HardwareConfig().clock_hz)

# (module, attribute, span name) of every wrapped public function
TRACED = (
    (cli, "run_network", "cli.run_network"),
    (cli, "compare_codecs_cmd", "cli.compare_codecs_cmd"),
    (accel, "simulate_layer", "accel.simulate_layer"),
    (accel, "simulate_layer_stats", "accel.simulate_layer_stats"),
    (codec, "encode", "codec.encode"),
    (codec, "decode", "codec.decode"),
    (codec, "rl_encode", "codec.rl_encode"),
    (codec, "save_stream", "codec.save_stream"),
    (codec, "load_stream", "codec.load_stream"),
    (netmodel, "synthetic_tensor", "netmodel.synthetic_tensor"),
    (netmodel, "load_weights", "netmodel.load_weights"),
    (refmodel, "layer_forward", "refmodel.layer_forward"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self._stack: list[Span] = []
        self._pending_stats: list[tuple] = []
        self._originals: dict[str, object] = {}
        for module, attr, name in TRACED:
            fn = getattr(module, attr)
            self._originals[name] = fn
            setattr(module, attr, self._wrap(name, fn))

    def restore(self) -> None:
        for module, attr, name in TRACED:
            setattr(module, attr, self._originals[name])

    # -- span bookkeeping ---------------------------------------------------

    def _begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            self._count(span, args, kwargs, result)
            return result

        return traced

    def _count(self, span: Span, args, kwargs, result) -> None:
        """Work counts of one call, taken after its span has closed."""
        c = span.counts
        if span.name == "accel.simulate_layer":
            in_t, kern, layer = args[:3]
            c.update(_layer_counts(in_t, layer))
            c.update(_model_counts(result.stats, layer))
            schedule = args[3] if len(args) > 3 else kwargs.get("schedule")
            hw = args[4] if len(args) > 4 else kwargs.get("hw")
            self._pending_stats.append((in_t, result.tensor, layer, schedule, hw))
        elif span.name == "accel.simulate_layer_stats":
            in_t, _, layer = args[:3]
            c.update(_layer_counts(in_t, layer))
        elif span.name == "codec.encode":
            c["fields"] = result.field_count
        elif span.name == "codec.decode":
            c["fields"] = args[0].field_count
        elif span.name == "refmodel.layer_forward":
            c["dense_macs"] = args[1].dense_macs
        elif span.name == "cli.run_network":
            report, _ = result
            c.update(_report_counts(report.as_dict()))

    def probe_stats(self) -> None:
        """Time the stats model on the layers ``simulate_layer`` ran."""
        stats_fn = self._originals["accel.simulate_layer_stats"]
        for in_t, out_t, layer, schedule, hw in self._pending_stats:
            span = self._begin("accel.stats_probe")
            try:
                stats_fn(in_t, out_t, layer, schedule, hw)
            finally:
                self._end(span)
        self._pending_stats.clear()

    # -- derived figures ----------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total time minus the time of its child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.seconds - child[s.id]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "counts": s.counts,
                }) + "\n")

    def per_layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round layer metrics as {name: (value, unit)}."""
        seconds: dict[str, float] = {}
        counts: dict[tuple[str, str], float] = {}  # (span name, count) -> sum
        model: dict[str, float] = {}
        names = {s.id: s.name for s in self.spans}
        encode_in_sim = 0.0
        for s in self.spans:
            seconds[s.name] = seconds.get(s.name, 0.0) + s.seconds
            for key, value in s.counts.items():
                counts[s.name, key] = counts.get((s.name, key), 0) + value
            parent = names.get(s.parent)
            if s.name == "codec.encode" and parent == "accel.simulate_layer":
                encode_in_sim += s.seconds
            # modelled figures: per frame from run_network's report, per
            # layer from simulate_layer calls made outside run_network
            if s.name == "cli.run_network" or (
                s.name == "accel.simulate_layer" and parent != "cli.run_network"
            ):
                for key, value in s.counts.items():
                    if key.startswith("model_"):
                        model[key] = model.get(key, 0) + value

        def t(name: str) -> float:
            return seconds.get(name, 0.0)

        def n(name: str, key: str) -> float:
            return counts.get((name, key), 0)

        def ns_per(secs: float, ops: float) -> float:
            return 1e9 * secs / ops if ops else 0.0

        stats_s = t("accel.simulate_layer_stats") + t("accel.stats_probe")
        pipeline_s = t("accel.simulate_layer") - t("accel.stats_probe") - encode_in_sim
        nz = n("accel.simulate_layer", "nz_pixels") + n("accel.simulate_layer_stats", "nz_pixels")
        macs = n("accel.simulate_layer", "dense_macs") + n("accel.simulate_layer_stats", "dense_macs")
        # modelled ratios from integer sums, so they repeat exactly whatever
        # the number of rounds
        cycles = model.get("model_cycles", 0)
        r = float(rounds)
        return {
            "cli.run_network_s": (t("cli.run_network") / r, "s"),
            "accel.simulate_layer_s": (t("accel.simulate_layer") / r, "s"),
            "accel.pipeline_s": (pipeline_s / r, "s"),
            "accel.stats_s": (stats_s / r, "s"),
            "accel.pipeline_ns_per_mac": (
                ns_per(pipeline_s, n("accel.simulate_layer", "dense_macs")), "ns"),
            "accel.stats_ns_per_nz": (ns_per(stats_s, nz), "ns"),
            "accel.nz_pixels": (nz / r, "count"),
            "accel.dense_macs": (macs / r, "count"),
            "accel.model_cycles": (cycles / r, "cycles"),
            "accel.model_dram_mb": (model.get("model_dram_bytes", 0) / 2**20 / r, "MB"),
            "accel.model_utilization": (
                model.get("model_mult_ops", 0) / (HW_MACS * cycles) if cycles else 0.0, "ratio"),
            "accel.model_gop_per_s": (
                2 * model.get("model_dense_macs", 0) * CLOCK_HZ / (10**9 * cycles)
                if cycles else 0.0,
                "GOp/s"),
            "codec.encode_s": (t("codec.encode") / r, "s"),
            "codec.decode_s": (t("codec.decode") / r, "s"),
            "codec.decode_ns_per_field": (
                ns_per(t("codec.decode"), n("codec.decode", "fields")), "ns"),
            "codec.rl_encode_s": (t("codec.rl_encode") / r, "s"),
            "codec.io_s": ((t("codec.save_stream") + t("codec.load_stream")) / r, "s"),
            "codec.fields": (n("codec.encode", "fields") / r, "count"),
            "netmodel.synthetic_tensor_s": (t("netmodel.synthetic_tensor") / r, "s"),
            "netmodel.load_weights_s": (t("netmodel.load_weights") / r, "s"),
            "refmodel.layer_forward_s": (t("refmodel.layer_forward") / r, "s"),
            "refmodel.ns_per_mac": (
                ns_per(t("refmodel.layer_forward"), n("refmodel.layer_forward", "dense_macs")),
                "ns"),
        }


def _layer_counts(in_t, layer) -> dict:
    return {"nz_pixels": int(np.count_nonzero(in_t.values)), "dense_macs": layer.dense_macs}


def _model_counts(stats, layer) -> dict:
    return {
        "model_cycles": stats.cycles_total,
        "model_mult_ops": stats.mult_ops,
        "model_dram_bytes": stats.total_bytes,
        "model_dense_macs": layer.dense_macs,
    }


def _report_counts(report: dict) -> dict:
    t = report["totals"]
    return {
        "model_cycles": t["cycles_total"],
        "model_mult_ops": sum(e["mult_ops"] for e in report["layers"]),
        "model_dram_bytes": t["dram_bytes_per_frame"],
        "model_dense_macs": t["dense_macs"],
    }
