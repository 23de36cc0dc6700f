import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expand_trace, random_kernels, random_tensor
from nhsim import codec, netmodel, presets, refmodel
from nhsim.accel import HardwareConfig
from nhsim.cli import (
    compare_codecs_cmd,
    main,
    parse_sweep,
    print_report,
    run_network,
    selfcheck,
)
from nhsim.fxp import QFormat
from nhsim.netmodel import (
    DenseLayerDescriptor,
    FeatureMapTensor,
    KernelSet,
    LayerDescriptor,
    NetworkDescriptor,
    ValidationError,
)


def build_tiny_net(tmp_path, rng, with_fc=True):
    l1 = LayerDescriptor(
        n_in=1, n_out=4, h=8, w=8, k=3, pad=0, pool=True,
        weights_path=str(tmp_path / "w1.nhw"), name="conv1",
    )
    l2 = LayerDescriptor(
        n_in=4, n_out=6, h=3, w=3, k=1, pad=0, pool=False,
        weights_path=str(tmp_path / "w2.nhw"), name="conv2",
    )
    netmodel.save_weights(random_kernels(rng, 4, 1, 3, frac=8, wmax=64), str(tmp_path / "w1.nhw"))
    netmodel.save_weights(random_kernels(rng, 6, 4, 1, frac=8, wmax=64), str(tmp_path / "w2.nhw"))
    fc = []
    if with_fc:
        flat = 6 * 3 * 3
        kern = KernelSet(
            rng.integers(-30, 31, size=(4, flat, 1, 1)).astype(np.int16),
            rng.integers(-1000, 1000, size=4).astype(np.int32),
            QFormat(8),
        )
        netmodel.save_weights(kern, str(tmp_path / "fc.nhw"))
        fc = [DenseLayerDescriptor(n_in=flat, n_out=4, weights_path=str(tmp_path / "fc.nhw"))]
    return NetworkDescriptor([l1, l2], fc, name="tiny")


class TestRunNetwork:
    def test_real_run_chains_layers_and_fc(self, tmp_path, rng):
        net = build_tiny_net(tmp_path, rng)
        t = random_tensor(rng, 1, 8, 8, sparsity=0.3)
        report, final = run_network(net, t)
        assert len(report.layers) == 2
        assert final is not None and final.shape == (4,)
        # chained simulation must equal the golden model run end to end
        cur = t
        for layer in net.layers:
            kern = netmodel.load_weights(layer.weights_path)
            cur = refmodel.layer_forward(cur, layer, kern)
        vec = netmodel.stream_order_values(cur).astype(np.int64)
        fck = netmodel.load_weights(net.fc[0].weights_path)
        want = refmodel.dense_forward(
            vec, fck.weights.reshape(4, -1), fck.bias, 16, 8, True
        )
        assert np.array_equal(final, want)

    def test_totals_are_sums_of_layers(self, tmp_path, rng):
        net = build_tiny_net(tmp_path, rng, with_fc=False)
        t = random_tensor(rng, 1, 8, 8)
        report, _ = run_network(net, t)
        for key in ("cycles_total", "bytes_in", "bytes_out", "bytes_kernels"):
            assert report.totals[key] == sum(e[key] for e in report.layers)
        hw = HardwareConfig()
        assert report.totals["ms_per_frame"] == pytest.approx(
            1e3 * report.totals["cycles_total"] / hw.clock_hz
        )

    def test_gop_counts_dense_workload_regardless_of_sparsity(self, rng):
        net = presets.network("roshambo")
        t = random_tensor(rng, 1, 64, 64)
        r1, _ = run_network(net, t, synthetic_sparsity=0.5)
        r2, _ = run_network(net, t, synthetic_sparsity=0.9)
        assert r1.totals["gop_per_frame"] == r2.totals["gop_per_frame"]
        dense = sum(l.dense_macs for l in net.layers)
        assert r1.totals["gop_per_frame"] == pytest.approx(2 * dense / 1e9)
        # roshambo's dense conv workload is ~0.018 GOp/frame
        assert r1.totals["gop_per_frame"] == pytest.approx(0.018, rel=0.01)

    def test_efficiency_can_exceed_one_with_sparsity(self, rng):
        net = presets.network("roshambo")
        t = random_tensor(rng, 1, 64, 64)
        r, _ = run_network(net, t, synthetic_sparsity=0.9)
        assert r.totals["efficiency"] > 0.0
        assert r.totals["gop_per_s"] == pytest.approx(
            r.totals["gop_per_frame"] * r.totals["frames_per_s"]
        )

    def test_identity_single_layer(self, tmp_path, rng):
        w1 = str(tmp_path / "id.nhw")
        kern = KernelSet(
            np.array([[[[1 << 8]]]], dtype=np.int16),
            np.zeros(1, dtype=np.int32),
            QFormat(8),
        )
        netmodel.save_weights(kern, w1)
        layer = LayerDescriptor(n_in=1, n_out=1, h=6, w=6, k=1, weights_path=w1)
        net = NetworkDescriptor([layer], name="id")
        t = random_tensor(rng, 1, 6, 6, sparsity=0.0, lo=1, hi=50)
        report, _ = run_network(net, t)
        assert report.totals["efficiency"] <= 1.0

    def test_conv_weight_precision_mismatch_rejected(self, tmp_path):
        # raw 1024 is 1.0 at 10 fractional bits; read at frac_w=8 it is 4.0
        path = str(tmp_path / "w.nhw")
        kern = KernelSet(
            np.full((1, 1, 1, 1), 1024, dtype=np.int16), np.zeros(1, dtype=np.int32),
            QFormat(10),
        )
        netmodel.save_weights(kern, path)
        layer = LayerDescriptor(n_in=1, n_out=1, h=2, w=2, k=1, frac_w=8, weights_path=path)
        t = FeatureMapTensor(np.full((1, 2, 2), 256, dtype=np.int16), QFormat(8))
        with pytest.raises(ValidationError, match="layer 0: .* 10 fractional bits.*frac_w=8"):
            run_network(NetworkDescriptor([layer]), t)

    def test_fc_weight_precision_mismatch_rejected(self, tmp_path, rng):
        net = build_tiny_net(tmp_path, rng)
        path = net.fc[0].weights_path
        kern = netmodel.load_weights(path)
        netmodel.save_weights(KernelSet(kern.weights, kern.bias, QFormat(10)), path)
        with pytest.raises(ValidationError, match="fc 0: .* 10 fractional bits.*frac_w=8"):
            run_network(net, random_tensor(rng, 1, 8, 8))

    def test_input_mismatch_rejected(self, tmp_path, rng):
        # the first layer's own check, in both modes
        net = presets.network("roshambo")
        with pytest.raises(ValidationError, match=r"input \(1, 32, 32\) does not match layer \(1, 64, 64\)"):
            run_network(net, random_tensor(rng, 1, 32, 32), synthetic_sparsity=0.8)
        net = build_tiny_net(tmp_path, rng)
        with pytest.raises(ValidationError, match=r"input \(1, 9, 8\) does not match layer \(1, 8, 8\)"):
            run_network(net, random_tensor(rng, 1, 9, 8))

    def test_input_format_mismatch_rejected(self, rng):
        net = presets.network("roshambo")
        with pytest.raises(ValidationError, match="fractional bits"):
            run_network(net, random_tensor(rng, 1, 64, 64, frac=10), synthetic_sparsity=0.8)

    @pytest.mark.parametrize("name, digest", [
        ("roshambo", "83bf0e9568032315c14cdd842ec34c8f3a6ea33ab224edf9746f6f7a2bc49d9c"),
        ("vgg16", "2958a2f92a62d2db2a3f145447a3052415183b2679aad04f8d87d71bbb73dab8"),
    ])
    def test_synthetic_report_matches_recorded_output(self, name, digest):
        # Recorded with conftest.reference_synthetic_tensor drawing every
        # stand-in as a tensor; the chunked masks must draw the same
        # stand-ins, so every number stays put.
        net = presets.network(name)
        first = net.layers[0]
        x = random_tensor(np.random.default_rng(0), first.n_in, first.h, first.w)
        report, _ = run_network(net, x, synthetic_sparsity=0.82, seed=0)
        blob = json.dumps(report.as_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_synthetic_mode_draws_no_tensors(self, monkeypatch):
        # stand-ins are masks; the report is the one recorded from tensors
        def no_tensors(*args, **kwargs):
            raise AssertionError("synthetic_tensor called in synthetic mode")

        monkeypatch.setattr(netmodel, "synthetic_tensor", no_tensors)
        self.test_synthetic_report_matches_recorded_output(
            "roshambo", "83bf0e9568032315c14cdd842ec34c8f3a6ea33ab224edf9746f6f7a2bc49d9c"
        )

    def test_synthetic_trace_covers_every_cycle(self, tmp_path, rng):
        net = build_tiny_net(tmp_path, rng)
        t = random_tensor(rng, 1, 8, 8, sparsity=0.3)
        buf = io.StringIO()
        report, _ = run_network(net, t, synthetic_sparsity=0.5, trace=buf)
        lines = buf.getvalue().splitlines()
        assert [l for l in lines if l.startswith("#")] == ["# layer 0 conv1", "# layer 1 conv2"]
        runs = [l.split() for l in lines if not l.startswith("#")]
        assert sum(int(r[1]) for r in runs) == report.totals["cycles_total"]

    def test_real_mode_requires_weights(self, rng):
        net = presets.network("roshambo")
        with pytest.raises(ValidationError, match="layer 0 has no weights file; use synthetic"):
            run_network(net, random_tensor(rng, 1, 64, 64))

    def test_real_mode_requires_fc_weights(self, tmp_path, rng, capsys):
        # a network file whose fc entry reads "weights": null
        netpath, inpath = tmp_path / "net.json", str(tmp_path / "in.nht")
        netmodel.save_network(build_tiny_net(tmp_path, rng), str(netpath))
        doc = json.loads(netpath.read_text())
        doc["fc"][0]["weights"] = None
        netpath.write_text(json.dumps(doc))
        netmodel.save_tensor(random_tensor(rng, 1, 8, 8), inpath)
        assert main(["run", "--net", str(netpath), "--input", inpath]) == 2
        assert capsys.readouterr().err == (
            "nhsim: fc 0 has no weights file; use synthetic mode for shape-only descriptors\n"
        )

    def test_report_json_serializable(self, rng):
        net = presets.network("face_detector")
        t = random_tensor(rng, 1, 36, 36)
        report, _ = run_network(net, t, synthetic_sparsity=0.8)
        doc = json.loads(json.dumps(report.as_dict()))
        assert doc["totals"]["cycles_total"] == report.totals["cycles_total"]

    def test_giga1net_mixed_shapes_run(self, rng):
        # exercises 1x1/7x7/5x5/3x3 kernels, padding and pooling mixes
        net = presets.network("giga1net")
        t = random_tensor(rng, 3, 224, 224, sparsity=0.0, lo=0, hi=255)
        report, _ = run_network(net, t, synthetic_sparsity=0.82)
        assert len(report.layers) == 11
        assert report.totals["gop_per_frame"] == pytest.approx(1.04, abs=0.01)
        assert report.layers[0]["cluster_size"] == 8

    def test_print_report_shows_same_numbers(self, rng, capsys):
        net = presets.network("face_detector")
        t = random_tensor(rng, 1, 36, 36)
        report, _ = run_network(net, t, synthetic_sparsity=0.8)
        print_report(report)
        out = capsys.readouterr().out
        assert str(report.layers[0]["cycles_total"]) in out
        assert f"{report.totals['gop_per_frame']:.3f}" in out


class TestCliCommands:
    def test_encode_decode_roundtrip(self, tmp_path, rng):
        t = random_tensor(rng, 3, 9, 9, sparsity=0.6)
        src = str(tmp_path / "t.nht")
        enc = str(tmp_path / "t.nhc")
        dst = str(tmp_path / "back.nht")
        netmodel.save_tensor(t, src)
        assert main(["encode", "--in", src, "--out", enc]) == 0
        assert main(["decode", "--in", enc, "--out", dst]) == 0
        back = netmodel.load_tensor(dst)
        assert np.array_equal(back.values, t.values)
        assert back.qformat == t.qformat

    @pytest.mark.parametrize("cut", ["file", "stream"])
    def test_truncated_stream_fails_in_one_line(self, tmp_path, rng, capsys, cut):
        enc = tmp_path / "t.nhc"
        codec.save_stream(codec.encode(random_tensor(rng, 3, 9, 9, sparsity=0.6)), str(enc))
        blob = bytearray(enc.read_bytes())
        if cut == "file":  # fewer words than the header declares
            blob = blob[:-8]
            want = "expected"
        else:  # a consistent header over a stream that ends inside a row
            n_words = int.from_bytes(blob[11:15], "little") // 2
            blob[11:15] = n_words.to_bytes(4, "little")
            blob[15] = 0
            blob = blob[: 16 + 4 * n_words]
            want = "truncated stream"
        enc.write_bytes(bytes(blob))
        rc = main(["decode", "--in", str(enc), "--out", str(tmp_path / "back.nht")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("nhsim: ") and want in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_corrupt_frac_bits_fails_in_one_line(self, tmp_path, rng, capsys):
        src = tmp_path / "bad.nht"
        netmodel.save_tensor(random_tensor(rng, 2, 4, 4), str(src))
        blob = bytearray(src.read_bytes())
        blob[10] = 200  # frac_bits, outside [0, 15]
        src.write_bytes(bytes(blob))
        rc = main(["encode", "--in", str(src), "--out", str(tmp_path / "t.nhc")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"nhsim: {src}: frac_bits 200 outside [0, 15]\n"

    def test_bad_network_json_fails_in_one_line(self, tmp_path, rng, capsys):
        netpath = tmp_path / "net.json"
        netpath.write_text('{"layers": 5}')
        inpath = str(tmp_path / "in.nht")
        netmodel.save_tensor(random_tensor(rng, 1, 8, 8), inpath)
        rc = main(["run", "--net", str(netpath), "--input", inpath])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"nhsim: {netpath}: 'layers' must be a list of objects, got int\n"

    def test_numeric_string_in_network_json_fails_in_one_line(self, tmp_path, rng, capsys):
        netpath = tmp_path / "net.json"
        netmodel.save_network(presets.network("roshambo"), str(netpath))
        doc = json.loads(netpath.read_text())
        doc["layers"][0]["n_out"] = "16"
        netpath.write_text(json.dumps(doc))
        inpath = str(tmp_path / "in.nht")
        netmodel.save_tensor(random_tensor(rng, 1, 64, 64), inpath)
        rc = main(["run", "--net", str(netpath), "--input", inpath])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"nhsim: {netpath}: layer 0 field 'n_out' is not an integer: '16'\n"

    @pytest.mark.parametrize("missing", ["stream", "network", "input"])
    def test_missing_file_fails_in_one_line(self, tmp_path, rng, capsys, missing):
        absent = str(tmp_path / "absent")
        if missing == "stream":
            argv = ["decode", "--in", absent, "--out", str(tmp_path / "back.nht")]
        else:
            netpath = str(tmp_path / "net.json")
            netmodel.save_network(build_tiny_net(tmp_path, rng, with_fc=False), netpath)
            inpath = str(tmp_path / "in.nht")
            netmodel.save_tensor(random_tensor(rng, 1, 8, 8), inpath)
            argv = ["run", "--net", netpath, "--input", inpath]
            argv[2 if missing == "network" else 4] = absent
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("nhsim: ") and absent in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_run_command_with_report_and_trace(self, tmp_path, rng, capsys):
        net = build_tiny_net(tmp_path, rng, with_fc=False)
        netpath = str(tmp_path / "net.json")
        netmodel.save_network(net, netpath)
        t = random_tensor(rng, 1, 8, 8)
        inpath = str(tmp_path / "in.nht")
        netmodel.save_tensor(t, inpath)
        report_path = str(tmp_path / "report.json")
        trace_path = str(tmp_path / "trace.txt")
        rc = main([
            "run", "--net", netpath, "--input", inpath,
            "--report", report_path, "--trace", trace_path,
        ])
        assert rc == 0
        doc = json.load(open(report_path))
        assert doc["totals"]["cycles_total"] == sum(
            e["cycles_total"] for e in doc["layers"]
        )
        runs = [l.split() for l in open(trace_path) if not l.startswith("#")]
        assert sum(int(r[1]) for r in runs) == doc["totals"]["cycles_total"]

    def test_trace_matches_recorded_output(self, tmp_path):
        # A fixed two-layer run (the second layer takes two passes).  The
        # size and digest of the per-cycle expansion were recorded from the
        # per-pixel stats model that the separable one replaced, and the
        # trace then had one line per cycle, so any drift in modelled timing
        # shows: 1497 lines of kernel load, prefill and overlap cycles with
        # pixels in and out, written as 18 lines of runs.
        def pattern(shape, mul, mod, off, zero_every):
            i = np.arange(int(np.prod(shape)))
            v = (i * mul) % mod - off
            v[i % zero_every == 0] = 0
            return v.reshape(shape)

        layers = [
            LayerDescriptor(n_in=2, n_out=8, h=8, w=8, k=3, pad=1, pool=True,
                            weights_path=str(tmp_path / "w1.nhw"), name="conv1"),
            LayerDescriptor(n_in=8, n_out=130, h=4, w=4, k=1, pad=0, pool=False,
                            weights_path=str(tmp_path / "w2.nhw"), name="conv2"),
        ]
        for l in layers:
            w = pattern((l.n_out, l.n_in, l.k, l.k), 37, 129, 64, 5).astype(np.int16)
            b = (pattern((l.n_out,), 101, 2001, 1000, 7) * 64).astype(np.int32)
            netmodel.save_weights(KernelSet(w, b, QFormat(l.frac_w)), l.weights_path)
        netpath = str(tmp_path / "net.json")
        netmodel.save_network(NetworkDescriptor(layers, [], name="fixed"), netpath)
        x = FeatureMapTensor(pattern((2, 8, 8), 31, 97, 40, 3).astype(np.int16), QFormat(8))
        inpath = str(tmp_path / "in.nht")
        netmodel.save_tensor(x, inpath)
        trace_path = tmp_path / "trace.txt"
        assert main(["run", "--net", netpath, "--input", inpath,
                     "--trace", str(trace_path)]) == 0
        text = trace_path.read_text()
        assert text.count("\n") == 18
        data = expand_trace(text).encode()
        assert (len(data), data.count(b"\n")) == (26186, 1497)
        assert hashlib.sha256(data).hexdigest() == (
            "0a85be62530c1e6111bb20c4a1f9f3a4c1303eae1372f030f85c9cc8efa1e477"
        )

    def test_run_command_synthetic(self, tmp_path, rng, capsys):
        net = presets.network("face_detector")
        netpath = str(tmp_path / "net.json")
        netmodel.save_network(net, netpath)
        t = random_tensor(rng, 1, 36, 36, sparsity=0.0)
        inpath = str(tmp_path / "in.nht")
        netmodel.save_tensor(t, inpath)
        rc = main([
            "run", "--net", netpath, "--input", inpath, "--synthetic-sparsity",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GOp/frame" in out

    def test_compare_codecs_command(self, capsys):
        rc = main([
            "compare-codecs", "--sparsity-sweep", "0.2:0.6:0.2",
            "--precision", "16", "--trials", "40", "--seed", "3",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("sparsity")
        assert len(lines) == 4

    def test_compare_codecs_names_a_corpus_without_tensors(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        (tmp_path / "empty" / "notes.txt").write_text("no tensors here")
        for corpus in (tmp_path / "missing", tmp_path / "empty"):
            assert main(["compare-codecs", "--corpus", str(corpus)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"nhsim: no .nht files were found in {corpus}\n"
            assert captured.out == ""

    def test_selfcheck_command_passes(self, capsys):
        assert main(["selfcheck", "--seed", "1", "--trials", "25"]) == 0
        assert "25 trials passed" in capsys.readouterr().out

    def test_clock_flag_scales_time_not_cycles(self, tmp_path, rng):
        net = presets.network("face_detector")
        netpath = str(tmp_path / "net.json")
        netmodel.save_network(net, netpath)
        t = random_tensor(rng, 1, 36, 36)
        fast, _ = run_network(net, t, HardwareConfig(clock_hz=500e6),
                              synthetic_sparsity=0.8, seed=1)
        slow, _ = run_network(net, t, HardwareConfig(clock_hz=250e6),
                              synthetic_sparsity=0.8, seed=1)
        assert slow.totals["cycles_total"] == fast.totals["cycles_total"]
        assert slow.totals["ms_per_frame"] == pytest.approx(
            2 * fast.totals["ms_per_frame"]
        )
        assert slow.totals["gop_per_s"] == pytest.approx(
            fast.totals["gop_per_s"] / 2
        )

    @pytest.mark.parametrize("clock_hz", [1e-314, 1e-301])
    def test_clock_too_slow_for_a_finite_frame_time(self, rng, clock_hz):
        # roshambo takes 113,547 cycles: at 1e-314 Hz the frame time in
        # seconds overflows, at 1e-301 Hz only the one in milliseconds does
        net = presets.network("roshambo")
        first = net.layers[0]
        t = random_tensor(rng, first.n_in, first.h, first.w, frac=first.frac_in)
        with pytest.raises(ValidationError, match="non-finite ms_per_frame"):
            run_network(net, t, HardwareConfig(clock_hz=clock_hz), synthetic_sparsity=0.82)

    def test_huge_clock_keeps_efficiency(self, rng):
        # 128 MACs * 1e308 Hz overflowed peak_gops to inf, and efficiency read 0.0
        net = presets.network("roshambo")
        first = net.layers[0]
        t = random_tensor(rng, first.n_in, first.h, first.w, frac=first.frac_in)
        eff = [
            run_network(net, t, HardwareConfig(clock_hz=hz), synthetic_sparsity=0.82)[0]
            .totals["efficiency"]
            for hz in (500e6, 1e308)
        ]
        assert eff[0] > 0
        assert eff[1] == pytest.approx(eff[0], rel=1e-9)


class TestCompareCodecs:
    def test_parse_sweep(self):
        assert parse_sweep("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
        with pytest.raises(ValueError):
            parse_sweep("nope")
        with pytest.raises(ValueError):
            parse_sweep("0.5:0.1:0.1")

    def test_dense_corpus_expands_under_both_codecs(self, rng):
        corpus = [netmodel.synthetic_tensor(2, 8, 16, 0.0, rng) for _ in range(5)]
        rows = compare_codecs_cmd([], corpus=corpus, file=io.StringIO())
        assert rows[0]["sm_ratio"] > 1.0
        assert rows[0]["rl_ratio"] > 1.0

    def test_high_sparsity_ratio_follows_size_model(self, rng):
        rows = compare_codecs_cmd([0.9], trials=150, seed=9, file=io.StringIO())
        # size model at 0.9: (1 + 16*0.1)/16
        assert rows[0]["sm_ratio"] == pytest.approx(0.1625, abs=0.02)

    def test_half_sparsity_ratio_follows_size_model(self):
        rows = compare_codecs_cmd([0.5], trials=400, seed=4, file=io.StringIO())
        # size model at 0.5: (1 + 8)/16 plus alignment overhead
        assert rows[0]["sm_ratio"] == pytest.approx(9 / 16, abs=0.02)

    def test_sm_below_rl_at_moderate_sparsity(self):
        rows = compare_codecs_cmd(
            [0.3, 0.5, 0.7], trials=150, seed=5, file=io.StringIO()
        )
        for row in rows:
            assert row["sm_bits"] <= row["rl_bits"]


class TestSelfCheck:
    def test_zero_trials_vacuous_pass(self, capsys):
        result = selfcheck(seed=1, trials=0)
        assert result.passed
        assert "vacuous" in capsys.readouterr().out
        # the CLI's flag checks let zero trials through
        assert main(["selfcheck", "--trials=0"]) == 0
        assert "vacuous" in capsys.readouterr().out

    def test_passes_on_correct_build(self, capsys):
        result = selfcheck(seed=1, trials=40)
        assert result.passed
        assert result.trials == 40

    def test_injected_padding_fault_is_detected(self, monkeypatch, capsys):
        import dataclasses

        real = refmodel.layer_forward

        def off_by_one_padding(t, layer, kern):
            try:
                delta = 1 if layer.pad < 3 else -1
                wrong = dataclasses.replace(layer, pad=layer.pad + delta)
            except ValidationError:
                wrong = dataclasses.replace(layer, relu=not layer.relu)
            return real(t, wrong, kern)

        monkeypatch.setattr(refmodel, "layer_forward", off_by_one_padding)
        result = selfcheck(seed=7, trials=10)
        assert not result.passed
        # the failure report carries full reproduction parameters
        assert "k=" in result.failures[0]
        assert "pad=" in result.failures[0]
        assert "seed=7" in result.failures[0]


@pytest.fixture(scope="module")
def tiny_run_files(tmp_path_factory):
    """A saved two-layer network with weights and an input for it."""
    d = tmp_path_factory.mktemp("tiny")
    rng = np.random.default_rng(5)
    netpath, inpath = str(d / "net.json"), str(d / "in.nht")
    netmodel.save_network(build_tiny_net(d, rng, with_fc=False), netpath)
    netmodel.save_tensor(random_tensor(rng, 1, 8, 8), inpath)
    return netpath, inpath


class TestNumericFlags:
    """Numeric flags out of range end in one stderr line and exit 2."""

    @pytest.mark.parametrize("case", [
        (["run", "--clock-mhz=0"], "clock_hz must be positive and finite"),
        (["run", "--clock-mhz=-5"], "clock_hz must be positive and finite"),
        (["run", "--clock-mhz=nan"], "clock_hz must be positive and finite"),
        (["run", "--clock-mhz=inf"], "clock_hz must be positive and finite"),
        (["run", "--clock-mhz=1e-320"], "non-finite ms_per_frame"),
        (["run", "--clock-mhz=1e-310"], "non-finite ms_per_frame"),
        (["run", "--synthetic-sparsity", "--seed=-1"], "--seed must be at least 0"),
        (["compare-codecs", "--sparsity-sweep=0:0.2:0"], "bad sweep '0:0.2:0'"),
        (["compare-codecs", "--sparsity-sweep=0:2:0.5"], "bad sweep '0:2:0.5'"),
        (["compare-codecs", "--sparsity-sweep=0:1:1e-300"], "at most 1001 points"),
        (["compare-codecs", "--sparsity-sweep=0:0:5e-324"], "at most 1001 points"),
        (["compare-codecs", "--precision=0"], "--precision must be at least 1"),
        (["compare-codecs", "--trials=-1"], "--trials must be at least 0"),
        (["compare-codecs", "--trials=0"],
         "--trials must be at least 1 for compare-codecs, got 0"),
        (["compare-codecs", "--precision=4611686018427387904", "--trials=1"],
         "overflows 64-bit sizes"),
        (["selfcheck", "--trials=-3"], "--trials must be at least 0"),
        (["selfcheck", "--seed=-1"], "--seed must be at least 0"),
    ], ids=lambda case: " ".join(case[0]))
    def test_bad_flag_fails_in_one_line(self, tiny_run_files, capsys, case):
        flags, want = case
        netpath, inpath = tiny_run_files
        argv = flags + (["--net", netpath, "--input", inpath] if flags[0] == "run" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("nhsim: ") and want in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_numeric_flags_exit_0_or_2(self, tiny_run_files, data):
        number = st.integers(-3, 3) | st.floats(allow_nan=True, allow_infinity=True)
        command = data.draw(st.sampled_from(["run", "compare-codecs", "selfcheck"]))
        seed = data.draw(st.integers(-2, 2**40))
        if command == "run":
            netpath, inpath = tiny_run_files
            argv = ["run", "--net", netpath, "--input", inpath, f"--seed={seed}",
                    f"--clock-mhz={data.draw(number)!r}"]
            if data.draw(st.booleans()):
                argv.append(f"--synthetic-sparsity={data.draw(number)!r}")
        elif command == "compare-codecs":
            bound = st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 2.0]) | number
            sweep = ":".join(repr(data.draw(bound)) for _ in range(3))
            argv = ["compare-codecs", f"--sparsity-sweep={sweep}", f"--seed={seed}",
                    f"--precision={data.draw(st.integers(-2, 17))}",
                    f"--trials={data.draw(st.integers(-2, 2))}"]
        else:
            argv = ["selfcheck", f"--seed={seed}", f"--trials={data.draw(st.integers(-3, 2))}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2)
        assert (err.getvalue().count("\n"), rc) in ((0, 0), (1, 2))
