"""Mutation checks: each seeded fault must fail the test named for it.

Run from the root of the repository::

    python tests/mutants.py

Every entry of ``MUTANTS`` is (file, old text, new text, test id).  The
script first runs all the named tests on an unchanged copy of ``src/`` and
``tests/``, where they must pass.  Then, per entry, it makes a fresh copy,
replaces the old text (which must occur exactly once) with the new one and
runs the named test there.  The mutant is killed when that test fails.  It
prints one line per mutant and the kill count, and exits 1 if any mutant
survives or any entry cannot be applied.  The file has no ``test_`` prefix,
so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MUTANTS = [
    (
        "src/nhsim/accel.py",
        "np.rint(acc, out=acc)",
        "np.floor(acc, out=acc)",
        "tests/test_accel.py::TestFunctionalEquivalence::test_random_sweep_matches_oracle",
    ),
    (
        "src/nhsim/accel.py",
        "        np.clip(acc, I32_MIN, I32_MAX, out=acc)\n",
        "",
        "tests/test_accel.py::TestPipelineProperties::"
        "test_int32_clamp_decides_a_wide_right_shift",
    ),
    (
        "src/nhsim/codec.py",
        "    if end > n_fields:\n",
        "    if False:\n",
        "tests/test_codec.py::TestDecode::test_truncated_stream_promising_pixels",
    ),
    (
        # a later input-channel range overwrites the accumulator instead of
        # adding to it
        "src/nhsim/accel.py",
        "                acc += w @ taps\n",
        "                acc[...] = w @ taps\n",
        "tests/test_accel.py::TestPipelineProperties::test_blocks_match_oracle",
    ),
    (
        # blocks of an odd number of rows, so a block can start on an odd
        # row and split a pooling pair
        "src/nhsim/accel.py",
        "    block_rows = 2 * max(",
        "    block_rows = -1 + 2 * max(",
        "tests/test_accel.py::TestPipelineProperties::"
        "test_one_stripe_and_one_channel_per_product",
    ),
    (
        # four pixels a cycle out of a raw layer, while its trace moves two
        "src/nhsim/accel.py",
        "drain = -(-px_out // OUTPUT_PIXELS_PER_CYCLE)",
        "drain = -(-px_out // 4)",
        "tests/test_accel.py::TestTrace::test_raw_trace_moves_every_pixel",
    ),
    (
        # a flow's remainder cycle in the trace moves a full cap of pixels
        "src/nhsim/accel.py",
        "rates = (min(cap, max(px - cap * a, 0)) for px, cap in flows)",
        "rates = (cap if px > cap * a else 0 for px, cap in flows)",
        "tests/test_accel.py::TestTrace::test_runs_expand_to_per_cycle_reference",
    ),
    (
        # a stand-in value takes its sign from bit 11 of its uniform's 53-bit
        # integer, which also sets its magnitude, instead of from bit 12
        "src/nhsim/netmodel.py",
        "    m = out >> 12",
        "    m = (out >> 11) & 1",
        "tests/test_netmodel.py::TestStandInDraw::test_values_cover_the_range_uniformly",
    ),
    (
        # a group of Markov stand-ins reads each row's initial state from
        # its last uniform instead of column 0
        "src/nhsim/netmodel.py",
        "in_zero = u[:, 0] < target_sparsity",
        "in_zero = u[:, n] < target_sparsity",
        "tests/test_netmodel.py::TestSyntheticMaskGroups::test_every_bit_generator",
    ),
    (
        # a Markov target past 1 / (1 + p_exit_zero) clamped there again
        "src/nhsim/netmodel.py",
        "p_enter_zero, p_exit_zero = 1.0, (1.0 - s) / s",
        "p_enter_zero = 1.0",
        "tests/test_netmodel.py::TestStandInDraw::test_markov_reaches_targets_past_the_ceiling",
    ),
    (
        # the oracle's one-pass rounding without the quotient's odd bit: ties
        # round down instead of to even
        "src/nhsim/fxp.py",
        "        v = acc >> shift\n        v &= 1\n        v += acc\n",
        "        v = acc.copy()\n",
        "tests/test_fxp.py::TestRequantize::test_array_matches_scalar_grid",
    ),
    (
        # the oracle's 2x2 pool without its bottom-left quadrant
        "src/nhsim/refmodel.py",
        "    np.maximum(out, bottom[:, :, 0 : 2 * w2 : 2], out=out)\n",
        "",
        "tests/test_refmodel.py::TestPoolRelu::test_equals_per_window_loop",
    ),
    (
        # a batch of stand-ins draws each row's initial state but starts
        # every row in "non-zero"
        "src/nhsim/netmodel.py",
        "in_zero = u[:, 0] < target_sparsity",
        "in_zero = np.zeros(k, dtype=bool)",
        "tests/test_netmodel.py::TestSyntheticMaskGroups::test_every_bit_generator",
    ),
    (
        # each chunk of a Markov stand-in restarts its chain from the
        # initial state instead of the state the chunk before ended in
        "src/nhsim/netmodel.py",
        "        in_zero = zero[-1]\n",
        "",
        "tests/test_netmodel.py::TestSyntheticMatchesReference::test_draws_span_several_chunks",
    ),
    (
        # the batched run-length sizes count one escape pair per 31 zeros of
        # a run instead of per 32
        "src/nhsim/codec.py",
        "runs // per_pair",
        "runs // (per_pair - 1)",
        "tests/test_codec.py::TestBatchSizes::test_matches_per_tensor_codecs",
    ),
    (
        # the stats model reads a tensor's values instead of its non-zero
        # mask: each pixel counts its value where it should count one
        "src/nhsim/accel.py",
        "in_mask = in_source.values != 0 if",
        "in_mask = in_source.values if",
        "tests/test_accel.py::TestStatsInputs::test_mask_gives_same_stats_as_tensor",
    ),
    (
        # the oracle's per-row weight matrix ordered (channel, dx) while its
        # stacked column shifts are ordered (dx, channel)
        "src/nhsim/refmodel.py",
        "kern.weights.transpose(2, 0, 3, 1)",
        "kern.weights.transpose(2, 0, 1, 3)",
        "tests/test_refmodel.py::TestConv2d::test_equals_int64_reference",
    ),
    (
        # simulate_layer reaches the stats model through the public
        # simulate_layer_stats, which perfbench's tracer wraps and counts
        "src/nhsim/accel.py",
        "    stats = _layer_stats(in_tensor, out_tensor, layer, schedule, hw)\n",
        "    stats = simulate_layer_stats(in_tensor, out_tensor, layer, schedule, hw)\n",
        "tests/test_accel.py::TestStatsInputs::test_simulate_layer_does_not_call_public_stats",
    ),
    (
        # a fractional MAC count, bank size or pixel memory passes the
        # hardware check and fails later inside the planner
        "src/nhsim/accel.py",
        "            if f.type == \"int\" and not isinstance(value, numbers.Integral):\n"
        "                raise ValidationError(f\"{f.name} must be an integer, got {value}\")\n",
        "",
        "tests/test_schedule.py::test_hardware_counts_must_be_integers",
    ),
    (
        # the shared file reader accepts bytes past the size its header gives
        "src/nhsim/netmodel.py",
        "    if len(blob) != expected:",
        "    if len(blob) < expected:",
        "tests/test_netmodel.py::TestFileFraming::test_single_fault_message",
    ),
]


def _copy(dst: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dst, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dst)


def _pytest(where: str, test_ids: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(where, "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *test_ids]
    return subprocess.run(
        cmd, cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        _copy(tmp)
        if _pytest(tmp, sorted({m[3] for m in MUTANTS})) != 0:
            print("mutants: the named tests fail on the unchanged code")
            return 1
    killed = 0
    for path, old, new, test_id in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            _copy(tmp)
            target = os.path.join(tmp, path)
            with open(target, encoding="utf-8") as f:
                text = f.read()
            if text.count(old) != 1:
                print(f"NOT APPLIED  {path}: {old.strip()!r} occurs {text.count(old)} times")
                continue
            with open(target, "w", encoding="utf-8") as f:
                f.write(text.replace(old, new))
            # pytest exits 1 when a test fails; other codes are errors
            dead = _pytest(tmp, [test_id]) == 1
        killed += dead
        print(f"{'killed  ' if dead else 'SURVIVED'}  {path}: {old.strip()!r} -> "
              f"{new.strip()!r}  [{test_id}]")
    print(f"mutants: {killed}/{len(MUTANTS)} killed in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
