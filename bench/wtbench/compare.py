#!/usr/bin/env python3
"""Compare wtbench results: the A/B rule, or one side's seed spread.

    python3 bench/wtbench/compare.py A_DIR B_DIR
    python3 bench/wtbench/compare.py --spread DIR [--json]

Inputs are run.py results files (untraced runs only). BENCHMARK.json gives
every metric's direction ("better") and, for the end-to-end metrics, the
bound. The watched metrics (capacity_ops_s, p50_us, p90_us) are
per-layer metrics whose seed spread is too wide for a fixed bound; they
get the paired verdict only.

A/B rule, A being the parent and B the change. Runs pair up by
(workload, seed), in run order when a seed repeats. Per workload first:
  * error_ratio, failed ops / attempted ops over the paired runs (shed,
    expired, transport errors and wrong answers), and the number of runs
    that did not check out: any increase from A to B is a regression,
    and no metric of that workload gets a gain verdict.
Then per (workload, metric):
  * each side reports its median and quartiles (statistics.quantiles, n=4);
  * gain: B beats A in at least 9 of every 10 pairs (ties count for
    neither) and the medians differ, in B's favour, by more than A's
    interquartile range;
  * end-to-end metrics only:
      - unresolved: either side's IQR exceeds bound x its median, unless
        every B run beats every A run;
      - regressed: B's median is worse than A's by more than bound x A's;
      - otherwise: within bound;
  * watched metrics: "worse" is the gain rule with the sides swapped;
    otherwise "no clear change".
One row per workload, then the detail. Exit status 1 when error_ratio or
an end-to-end metric regressed, 2 when none regressed but one is
unresolved, else 0.

--spread reports each (workload, metric)'s median, quartiles and IQR as a
share of the median against the bound: "steady" below a third of the
bound, "within" below the bound, "noisy" above. Runs that failed ops or
answered wrong are counted. --json prints medians and quartiles as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
WATCHED = ("capacity_ops_s", "p50_us", "p90_us")


def metric_specs() -> list[dict]:
    """End-to-end metrics (with bounds), then watched ones (bound None)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    return bench["end_to_end"] + [dict(per_layer[n], bound=None)
                                  for n in WATCHED]


def load_runs(d: Path) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for p in sorted(d.glob("*.json")):
        r = json.loads(p.read_text())
        if r.get("trace", 0) == 0:
            runs[(r["workload"], r["seed"])].append(r)
    for v in runs.values():
        v.sort(key=lambda r: r["started_unix"])
    return runs


def quartiles(v: list[float]) -> tuple[float, float, float]:
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, med, q3


def rel(x: float, base: float) -> float:
    return x / base if base else 0.0


def workload_order(keys) -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    present = {w for w, _ in keys}
    return [w for w in known if w in present] + sorted(present - set(known))


def errors(runs: list[dict]) -> tuple[float, int]:
    """error_ratio over the runs, and how many runs did not check out."""
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    return rel(failed, attempted), sum(1 for r in runs if not r["correct"])


def verdict(m: dict, a: list[float], b: list[float],
            may_gain: bool) -> tuple[str, dict]:
    """The A/B rule for one (workload, metric) over paired values."""
    bound = m["bound"]
    sign = 1 if m["better"] == "higher" else -1
    qa, qb = quartiles(a), quartiles(b)
    iqr_a = qa[2] - qa[0]
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    gain = (may_gain and wins >= 0.9 * len(a)
            and sign * (qb[1] - qa[1]) > iqr_a)
    stats = {"qa": qa, "qb": qb, "wins": wins,
             "change": sign * rel(qb[1] - qa[1], qa[1]),  # > 0: B better
             "spread": max(rel(iqr_a, qa[1]), rel(qb[2] - qb[0], qb[1]))}
    if bound is None:
        worse = losses >= 0.9 * len(a) and sign * (qa[1] - qb[1]) > iqr_a
        return ("gain" if gain else "worse" if worse else
                "no clear change"), stats
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if gain and (stats["spread"] <= bound or all_better):
        return "gain", stats
    if stats["spread"] > bound and not all_better:
        return "unresolved", stats
    if -stats["change"] > bound:
        return "REGRESSED", stats
    return "within bound", stats


def compare(a_dir: Path, b_dir: Path, metrics: list[dict]) -> int:
    a_runs, b_runs = load_runs(a_dir), load_runs(b_dir)
    status = 0
    detail = []
    for w in workload_order(set(a_runs) | set(b_runs)):
        pairs = []
        for key in sorted(k for k in a_runs if k[0] == w):
            pairs += list(zip(a_runs[key], b_runs.get(key, [])))
        if not pairs:
            print(f"{w}: no paired runs")
            continue
        (ratio_a, wrong_a), (ratio_b, wrong_b) = (
            errors([p[0] for p in pairs]), errors([p[1] for p in pairs]))
        failing = ratio_b > ratio_a or wrong_b > wrong_a
        if failing:
            status = 1
        cells = [f"error_ratio {'REGRESSED' if failing else 'no increase'}"]
        detail.append(
            f"  {w:15s} {'error_ratio':22s} A {ratio_a:.6g} ({wrong_a} runs "
            f"wrong)  B {ratio_b:.6g} ({wrong_b} runs wrong)  bound any "
            f"increase  {'REGRESSED' if failing else 'no increase'}")
        for m in metrics:
            name = m["name"]
            v, s = verdict(m, [p[0]["metrics"][name]["value"] for p in pairs],
                           [p[1]["metrics"][name]["value"] for p in pairs],
                           may_gain=not failing)
            if v == "REGRESSED":
                status = 1
            elif v == "unresolved":
                status = status or 2
            cells.append(f"{name} {v} ({s['change']:+.1%})")
            bound = ("ungated" if m["bound"] is None
                     else f"bound {m['bound']:.0%}")
            qa, qb = s["qa"], s["qb"]
            detail.append(
                f"  {w:15s} {name:22s} "
                f"A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                f"  B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  wins "
                f"{s['wins']}/{len(pairs)}  spread {s['spread']:.1%}  {bound}"
                f"  {v}")
        print(f"{w} ({len(pairs)} pairs): " + "; ".join(cells))
    print("\ndetail (median [q1, q3]):")
    print("\n".join(detail))
    return status


def spread(d: Path, metrics: list[dict], as_json: bool) -> int:
    runs = load_runs(d)
    out: dict[str, dict] = {}
    status = 0
    for w in workload_order(runs):
        rs = [r for (wl, _), v in runs.items() if wl == w for r in v]
        bad = sum(1 for r in rs if not r["correct"] or r["failed"] > 0)
        out[w] = {"runs": len(rs), "runs_with_failures": bad}
        if not as_json:
            print(f"{w}: {len(rs)} runs, {bad} with failed ops or wrong "
                  f"answers")
        for m in metrics:
            v = [r["metrics"][m["name"]]["value"] for r in rs]
            q1, med, q3 = quartiles(v)
            share = rel(q3 - q1, med)
            bound = m["bound"]
            if bound is None:
                label = "ungated"
            else:
                label = ("steady" if share < bound / 3 else
                         "within" if share <= bound else "noisy")
                if label == "noisy":
                    status = 2
            out[w][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                 "iqr_over_median": round(share, 4)}
            if not as_json:
                shown = "-" if bound is None else f"{bound:.0%}"
                print(f"  {m['name']:22s} median {med:<12.6g} "
                      f"[{q1:.6g}, {q3:.6g}]  iqr/median {share:6.2%}  "
                      f"bound {shown:>4s}  {label}")
    if as_json:
        print(json.dumps(out, indent=1))
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("dirs", nargs="+", type=Path)
    p.add_argument("--spread", action="store_true")
    p.add_argument("--json", action="store_true")
    args = p.parse_args()
    metrics = metric_specs()
    if args.spread:
        if len(args.dirs) != 1:
            p.error("--spread takes one directory")
        return spread(args.dirs[0], metrics, args.json)
    if len(args.dirs) != 2:
        p.error("give two directories: A (parent) and B (change)")
    return compare(args.dirs[0], args.dirs[1], metrics)


if __name__ == "__main__":
    sys.exit(main())
