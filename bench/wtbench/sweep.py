#!/usr/bin/env python3
"""Run wtbench over seeds and workloads, interleaving checkouts for A/B.

    # seed spread of one checkout (what calibration.json records):
    python3 bench/wtbench/sweep.py --seeds 1-10 --out sweeps/cal .
    python3 bench/wtbench/compare.py --spread sweeps/cal

    # A/B: parent and change, alternating which side runs first per seed:
    python3 bench/wtbench/sweep.py --seeds 1-10 --out sweeps/ab parent change
    python3 bench/wtbench/compare.py sweeps/ab/A sweeps/ab/B

Each run is `python3 <checkout>/bench/wtbench/run.py ...` and writes its
results file into <out>/<label>, the labels being A, B, ... in argument
order (<out> itself when there is one checkout). Exit status 1 when any
run failed or answered wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("checkouts", nargs="+", type=Path)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", help="comma-separated; default: all")
    p.add_argument("--rate", action="append", default=[],
                   metavar="WORKLOAD=OPS", help="open-loop rate override")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()

    checkouts = [c.resolve() for c in args.checkouts]
    bench = json.loads((checkouts[0] / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    rates = dict(r.split("=") for r in args.rate)
    labels = ["ABCDEFGH"[i] for i in range(len(checkouts))]
    seeds = parse_seeds(args.seeds)
    total = len(seeds) * len(workloads) * len(checkouts)
    done, bad = 0, 0
    for si, seed in enumerate(seeds):
        for w in workloads:
            order = list(zip(labels, checkouts))
            if si % 2 == 1:
                order.reverse()  # ABAB... becomes BA on odd seeds
            for label, checkout in order:
                out = args.out / label if len(checkouts) > 1 else args.out
                cmd = [sys.executable, str(checkout / "bench/wtbench/run.py"),
                       "--workload", w, "--seed", str(seed),
                       "--out", str(out)]
                if w in rates:
                    cmd += ["--rate", rates[w]]
                t0 = time.time()
                r = subprocess.run(cmd, cwd=checkout, capture_output=True,
                                   text=True)
                done += 1
                summary = f"exit {r.returncode}"
                if r.stdout.strip():
                    try:
                        last = json.loads(r.stdout.strip().splitlines()[-1])
                        m = last["metrics"]
                        shown = ", ".join(
                            f"{k}={v['value']:.4g}" for k, v in
                            list(m.items())[:4])
                        summary += f", failed {last['failed']}, {shown}"
                    except (ValueError, KeyError):
                        pass
                if r.returncode != 0:
                    bad += 1
                    sys.stderr.write(r.stderr[-2000:])
                print(f"[{done}/{total}] {label} {w} seed {seed}: {summary} "
                      f"({time.time() - t0:.1f}s)", file=sys.stderr,
                      flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
