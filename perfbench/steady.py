"""Steadiness and comparison tool for the benchmark.

Run every named workload once per seed and summarise each metric:

    python3 perfbench/steady.py run mc_threshold cli_small --seeds 10 --out base.json

prints, per workload and metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  Compare two such files:

    python3 perfbench/steady.py compare base.json change.json

A metric is ``regressed`` when the second median is worse than the first by
more than its bound, ``unresolved`` when either side's spread exceeds the bound
(unless every run of the second set beats every run of the first), and
``within bound`` otherwise.  Run from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, load_spec


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run of ``seconds`` seconds; its JSON summary."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def print_runs(runs: dict, metrics: dict) -> None:
    for workload, results in runs.items():
        bad = [r["seed"] for r in results if not r["correct"]]
        print(f"== {workload}: {len(results)} runs"
              + (f", INCORRECT on seeds {bad}" if bad else ", all correct"))
        for name, spec in metrics.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, spread = summary(values)
            bound = spec["bound"]
            flag = f"bound {bound:g}" + ("" if spread <= bound / 3 else
                                         " SPREAD > bound/3" if spread <= bound else
                                         " SPREAD > bound")
            print(f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.4f}  {flag}")


def compare(base: dict, change: dict, metrics: dict) -> int:
    regressions = 0
    for workload in base:
        if workload not in change:
            print(f"{workload}: missing from the second set")
            regressions += 1
            continue
        for name, spec in metrics.items():
            a = [r["metrics"][name]["value"] for r in base[workload]]
            b = [r["metrics"][name]["value"] for r in change[workload]]
            (ma, _, _, sa), (mb, _, _, sb) = summary(a), summary(b)
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (mb - ma) / ma
            every_better = all(sign * (y - x) < 0 for x in a for y in b)
            if worse > spec["bound"]:
                status = "regressed"
                regressions += 1
            elif max(sa, sb) > spec["bound"] and not every_better:
                status = "unresolved"
            else:
                status = "within bound"
            print(f"{workload:16s} {name:14s} {ma:12.6g} -> {mb:12.6g}  worse by {worse:+.4f}"
                  f"  (bound {spec['bound']:g}, spreads {sa:.4f}/{sb:.4f})  {status}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run workloads once per seed and summarise")
    p.add_argument("workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=None, help="write the raw results here as JSON")
    p = sub.add_parser("compare", help="compare two result files against the bounds")
    p.add_argument("base")
    p.add_argument("change")
    args = parser.parse_args(argv)

    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.command == "compare":
        with open(args.base) as fa, open(args.change) as fb:
            return compare(json.load(fa), json.load(fb), metrics)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs[workload].append(run_once(workload, seed, spec["run_seconds"]))
            if args.out:  # keep what finished if a later run is interrupted
                with open(args.out, "w") as fh:
                    json.dump(runs, fh)
    print_runs(runs, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
