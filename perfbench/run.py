"""nhsim host-time benchmark.

    python3 perfbench/run.py --workload {whatif,frame,codec,verify,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Runs one workload in this process: set-up, one untimed warm-up round, then
whole rounds of the workload's fixed mix of operations until ``--seconds``
have passed.  Every operation's output is checked outside the timed region.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-module metrics of a traced run with ``--trace 1``.
``--workload all`` runs the four workloads one after another, each in its
own process, and prints their metrics together.

Run from the root of an nhsim source tree; the package is imported from
its ``src`` directory.  Scratch files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
NAMES = ("whatif", "frame", "codec", "verify")
IMPORT_REPEATS = 5
BUILD_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="nhsim host-time benchmark")
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports nhsim and exits."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nhsim"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far; child processes excluded."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    import nhsim

    if os.path.dirname(os.path.abspath(nhsim.__file__)) != os.path.join(SRC, "nhsim"):
        raise SystemExit(f"nhsim imported from {nhsim.__file__}, not from {SRC}")
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_import = import_seconds()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        builds = []
        for _ in range(BUILD_REPEATS):
            t0 = time.perf_counter()
            wl.build()
            builds.append(time.perf_counter() - t0)
        setup_s = setup_import + statistics.median(builds)
        setup_rss_mb = peak_rss_mb()
        ops = wl.ops()
        tracer = tracing.Tracer() if args.trace else None
        result = measure(wl, ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds, times = result["rounds"], result["times"]
    round_s = sum(statistics.median(times[op.name]) for op in ops)
    peak_mb = peak_rss_mb()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  rounds {rounds}  cold first round {result['cold_s']:.4f} s")
    print(f"  set-up: import {setup_import:.4f} s + build median "
          f"{statistics.median(builds):.4f} s of {', '.join(f'{b:.4f}' for b in builds)}")
    for op in ops:
        ts = times[op.name]
        print(f"  {op.name:<26} median {statistics.median(ts):.5f} s  "
              f"min {min(ts):.5f}  max {max(ts):.5f}")
    for note in wl.notes:
        print(f"  {note}")
    for name, layers in result["faults"].items():
        print(f"  input_reload fault: {name}: {' '.join(layers)}")
    for err in result["errors"][:20]:
        print(f"  CHECK FAILED: {err}")
    print(f"  round_s {round_s:.5f} s  setup_s {setup_s:.4f} s  peak_rss_mb {peak_mb:.1f} MB"
          f" (peak after set-up {setup_rss_mb:.1f} MB)")

    if tracer is None:
        metrics = {
            "round_s": (round_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    else:
        tracer.restore()
        tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))
        metrics = tracer.per_layer_metrics(rounds)
        print("  self time per round by span:")
        for name, secs in sorted(tracer.self_seconds().items()):
            print(f"    {name:<30} {secs / rounds:.5f} s")
    doc = {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as f:
        extra = {
            "rounds": rounds, "round_s": round_s, "cold_round_s": result["cold_s"],
            "op_median_s": {op.name: statistics.median(times[op.name]) for op in ops},
        }
        json.dump(doc | extra, f, indent=1)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


def measure(wl, ops, seconds: float, tracer) -> dict:
    """Warm-up round, then timed rounds until ``seconds`` have passed.

    An operation fails when it raises or its output fails a check; it then
    counts ``op.count`` failed operations.  Otherwise each layer the check
    finds hit by the known input_reload fault counts as one.
    """
    errors: list[str] = []
    faults: dict[str, list[str]] = {}

    def attempt(op, record: bool) -> tuple[float, int]:
        """Run and check ``op``; its wall time and failed operations."""
        if record:
            tracer.recording = True
        t = time.perf_counter()
        try:
            out = op.fn()
        except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
            errors.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            out = None
        secs = time.perf_counter() - t
        if record:
            tracer.recording = False
        if out is None:
            return secs, op.count
        try:
            checked = wl.check(op, out)
        except Exception as exc:  # noqa: BLE001 - a check that cannot run rejects
            errors.append(f"{op.name}: check raised {type(exc).__name__}: {exc}")
            return secs, op.count
        if checked.errors:
            errors.extend(checked.errors)
            return secs, op.count
        if checked.faulted:
            faults.setdefault(op.name, checked.faulted)
        return secs, len(checked.faulted)

    cold_s = 0.0
    for op in ops:
        cold_s += attempt(op, record=False)[0]

    times = {op.name: [] for op in ops}
    attempted = failed = rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        gc.collect()
        for op in ops:
            secs, op_failed = attempt(op, record=tracer is not None)
            times[op.name].append(secs)
            attempted += op.count
            failed += op_failed
        if tracer:
            tracer.probe_stats()
        rounds += 1
    return {
        "rounds": rounds, "times": times, "cold_s": cold_s, "attempted": attempted,
        "failed": failed, "errors": errors, "faults": faults,
    }


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        doc = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0,
                                                   "failed": 0, "metrics": {}}
        combined["correct"] &= doc["correct"] and proc.returncode == 0
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for metric, value in doc["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        print(f"  {name}: attempted {doc['attempted']}  failed {doc['failed']}  "
              + "  ".join(f"{m} {v['value']:.5g} {v['unit']}" for m, v in doc["metrics"].items()))
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nhsim", "__init__.py")):
        print(f"perfbench: no nhsim sources under {SRC}; run from an nhsim checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
