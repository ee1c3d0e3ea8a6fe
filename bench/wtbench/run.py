#!/usr/bin/env python3
"""Build and run wtbench for one workload, and print its metrics.

    python3 bench/wtbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1> [--rate <ops/s>] [--out <dir>]
    python3 bench/wtbench/run.py --selftest

Builds bench/wtbench (a CMake project over the repository's own library)
into .bench_build/wtbench, runs one workload, and prints the binary's
`name value unit` lines followed by one JSON line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end set (--trace 0) or its
per_layer set (--trace 1). A traced run also writes the bench's span file
(which wtbench writes only when every span is closed and every parent
present) and the daemon's kTrace snapshot under .bench_build/wtbench/traces/,
and checks the snapshot with `wt_trace --validate`. Every run writes a
results file for compare.py into --out (default .bench_build/wtbench/results/).

The open-loop rate comes from calibration.json unless --rate is given.
Exit status: 0 when every answer checked out, 1 when not, 2 when the
benchmark could not be built or run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "wtbench"
RUN_TIMEOUT_S = 170


def fail(msg: str) -> None:
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build() -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no library sources (CMakeLists.txt, src/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "wtbench",
                  "wt_trace", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if rc != 0:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({log})")


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rate", type=float, help="open-loop ops/s override")
    p.add_argument("--out", type=Path, default=BUILD / "results")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    build()
    binary = BUILD / "wtbench"
    if args.selftest:
        return subprocess.run([str(binary), "--selftest"],
                              timeout=RUN_TIMEOUT_S).returncode

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    calib = json.loads((HERE / "calibration.json").read_text())
    workloads = calib["workloads"]
    if args.workload not in workloads:
        fail(f"--workload must be one of {', '.join(workloads)}")
    seed = calib["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    rate = args.rate or workloads[args.workload]["rate_ops_s"]

    work = BUILD / f"work-{os.getpid()}"
    trace_dir = BUILD / "traces" / f"{args.workload}-seed{seed}"
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--rate={rate}", f"--trace={args.trace}",
           f"--work-dir={work}", f"--trace-dir={trace_dir}"]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"wtbench did not finish within {RUN_TIMEOUT_S}s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"wtbench exited with {proc.returncode}")
    result = json.loads(lines[-1])

    correct = bool(result["correct"])
    if args.trace:
        v = subprocess.run([str(BUILD / "wt" / "wt_trace"), "--validate",
                            str(trace_dir / "ktrace.bin")],
                           stdout=sys.stderr, timeout=60)
        if v.returncode != 0:
            correct = False

    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[kind]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        print(f"run.py: metrics missing: {', '.join(missing)}",
              file=sys.stderr)
        correct = False

    args.out.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "seconds": seconds, "rate_ops_s": rate, "git_rev": git_rev(),
        "hardware_threads": result["hardware_threads"],
        "started_unix": started, "correct": correct,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": result["metrics"],
    }
    name = (f"{args.workload}-seed{seed}-trace{args.trace}-"
            f"{time.time_ns()}.json")
    (args.out / name).write_text(json.dumps(record, indent=1) + "\n")

    for line in lines[:-1]:
        print(line)
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names
                    if n in result["metrics"]},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
