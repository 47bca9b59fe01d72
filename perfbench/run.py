#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig6_paper --seed 1 --seconds 30

It builds the libraries, the npd_serve daemon and the benchmark driver
from source (into $CARGO_TARGET_DIR, default .bench_build), runs the
workload in fresh processes, checks the outputs, prints every metric
with its unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 (the default) reports the end-to-end metrics, --trace 1 the
per-layer ones (README.md lists them all).  Any failed output check
prints "correct": false and exits 1.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fig6_paper", "atlas_sparse", "serve_mixed")
# Fresh driver processes timed for setup_s before and again after the
# batches (so their median spans the run), after one untimed start that
# warms the page cache.
SETUP_STARTS = 20
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then (re)build the targets the benchmark runs."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {BENCH_DIR.name}/; "
             "run from the root of a full checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4", "--target",
                  "perfbench_driver", "npd_serve_bin"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850, check=False)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir


def driver(build_dir, *args):
    """Run the driver to completion and return its JSON document.

    The driver runs in its own process group, with the daemon it spawns
    for serve_mixed, so a timeout stops both."""
    cmd = [str(build_dir / "perfbench_driver"), *map(str, args)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"driver timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"driver exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(stdout.strip().splitlines()[-1])


def time_setup(build_dir, workload, seed):
    """Seconds from spawning a driver until its plan_batch has returned."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [str(build_dir / "perfbench_driver"), "plan", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or not line.startswith("planned"):
        fail("setup probe failed")
    return elapsed


class Checks:
    """Output checks; any failure makes the run incorrect."""

    def __init__(self):
        self.failed = []

    def expect(self, ok, what):
        if not ok:
            self.failed.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)


def run_batch(build_dir, args, checks):
    if args.trace:
        out = driver(build_dir, "trace", "--workload", args.workload,
                     "--seed", args.seed)
        checks.expect(out["replay_mismatches"] == 0,
                      "traced replay reproduces every engine job's outcome")
        metrics = stats.layer_metrics(out)
        metrics.update({name: (0.0, unit)
                        for name, unit in stats.SERVE_ONLY.items()})
        layers = {k: v for k, v in metrics.items()
                  if k.endswith("_ms") and k.split(".")[0] in
                  ("pooling", "noise", "solve")}
        print(f"info: largest layer {max(layers, key=lambda k: layers[k][0])}; "
              f"composition checked on {out['composition_checked']} "
              "(n, m, design) cells")
        return metrics, out["layers"]["jobs"], out["replay_mismatches"]

    time_setup(build_dir, args.workload, args.seed)
    setup = [time_setup(build_dir, args.workload, args.seed)
             for _ in range(SETUP_STARTS)]
    report = build_dir / "run" / f"{args.workload}.report.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    if report.exists():
        report.unlink()
    out = driver(build_dir, "batch", "--workload", args.workload,
                 "--seed", args.seed, "--seconds", args.seconds,
                 "--report", os.path.relpath(report, ROOT))
    setup += [time_setup(build_dir, args.workload, args.seed)
              for _ in range(SETUP_STARTS)]
    plan_jobs = {b["plan_jobs"] for b in out["batches"]}
    checks.expect(len(plan_jobs) == 1, "every batch plans the same job count")
    for b in out["batches"]:
        checks.expect(b["results"] == b["plan_jobs"],
                      f"batch seed {b['seed']}: job count equals the plan's")
        checks.expect(b["failed"] == 0, f"batch seed {b['seed']}: no job threw")
    floor = out["floor_sum"] / max(out["floor_jobs"], 1)
    checks.expect(out["floor_jobs"] > 0 and floor >= out["floor_min"],
                  f"success {floor:.3f} on solvable cells "
                  f">= {out['floor_min']}")
    checks.expect(report.is_file(), "first batch wrote its report")
    if report.is_file():
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        print(f"info: report_sha256 {digest} (npd_run --no-perf bytes, "
              f"seed {args.seed})")
    small, large = stats.batch_latencies(out)
    print(f"info: {len(out['batches'])} batches of {plan_jobs.pop()} jobs; "
          f"success on solvable cells {floor:.3f}; small tail "
          f"{stats.tail_note(small, 99)}, large tail "
          f"{stats.tail_note(large, 99)}")
    return stats.batch_metrics(out, setup), out["attempted"], out["failed"]


def run_serve(build_dir, args, checks):
    rundir = build_dir / "run"
    rundir.mkdir(parents=True, exist_ok=True)
    serve_bin = build_dir / "npd" / "tools" / "npd_serve"
    out = driver(build_dir, "serve", "--seed", args.seed,
                 "--seconds", args.seconds, "--trace", int(args.trace),
                 "--serve-bin", serve_bin,
                 "--socket", os.path.relpath(rundir / "serve.sock", ROOT),
                 "--log", os.path.relpath(rundir / "serve.log", ROOT))
    records = out["open"] + out["closed"]
    failed = stats.failures(records)
    checks.expect(failed == 0,
                  f"{failed} requests refused, errored or unanswered "
                  "(every response must be status ok and echo its id)")
    checks.expect(out["clean_exit"], "daemon drained and exited 0")
    if args.trace:
        checks.expect(out["served_mismatches"] == 0,
                      "served answers equal the engine's offline answers")
        metrics = stats.layer_metrics(out["study"])
        metrics.update(stats.serve_layer_metrics(out))
        return metrics, len(records), failed
    small = [r for r in out["open"] if r[stats.OK] and not r[stats.LARGE]]
    large = [r for r in out["open"] if r[stats.OK] and r[stats.LARGE]]
    print(f"info: open loop {len(out['open'])} requests at {out['rate']} req/s "
          f"({len(small)} small, {len(large)} large), closed loop "
          f"{len(out['closed'])} requests on 2 connections")
    return stats.serve_metrics(out), len(records), failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_dir = build()
    checks = Checks()
    runner = run_serve if args.workload == "serve_mixed" else run_batch
    metrics, attempted, failed = runner(build_dir, args, checks)
    checks.expect(stats.is_finite(metrics), "every metric is finite")

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{'error_rate':28s} {failed / max(attempted, 1):14.6g} fraction")
    correct = not checks.failed
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
