#!/usr/bin/env python3
"""Run the benchmark over several seeds, measure its spread, and compare a
fresh run with the committed baseline.

Run from the repository root:

  python3 perfbench/bench.py spread  --workload paper_sim --runs 10
  python3 perfbench/bench.py spread  --runs 10 --save  # also rewrites perfbench/baseline.json
  python3 perfbench/bench.py compare --runs 5          # fresh runs vs baseline.json

`spread` prints, per end-to-end metric, the median of the runs and the
distance between the first and third quartile as a share of the median
(Python's statistics.quantiles(values, n=4)), next to the metric's bound
in BENCHMARK.json.  `compare` reports each metric's change in units of
the committed spread (quartile distance); it reports only and always
exits 0 when the runs themselves succeed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BASELINE = os.path.join(ROOT, "perfbench", "baseline.json")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace=0):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "n": len(values)}


def collect(spec, workload, runs, seed0, seconds):
    per_metric = {}
    for i in range(runs):
        vals = run_once(spec, workload, seed0 + i, seconds)
        for k, v in vals.items():
            per_metric.setdefault(k, []).append(v)
        print(f"  {workload} seed {seed0 + i}: " +
              " ".join(f"{k}={v:.6g}" for k, v in vals.items()), flush=True)
    return {k: summarize(v) | {"values": v} for k, v in per_metric.items()}


def cmd_spread(spec, args):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    seconds = args.seconds or spec["run_seconds"]
    worst = 0.0
    saved = {"runs": args.runs, "seed0": args.seed0, "seconds": seconds, "workloads": {}}
    for w in names:
        stats = collect(spec, w, args.runs, args.seed0, seconds)
        saved["workloads"][w] = stats
        print(f"# {w}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}")
        for k, s in stats.items():
            b = bounds[k]
            flag = "" if s["spread"] <= b / 3 else ("  > bound/3" if s["spread"] <= b else "  > BOUND")
            if k != "setup_s":
                worst = max(worst, s["spread"] / b)
            print(f"  {k:<20} median {s['median']:<14.6g} spread {s['spread']:.4f}  bound {b}{flag}")
    print(f"# worst spread/bound (setup_s excluded): {worst:.3f}")
    if args.save:
        with open(BASELINE, "w") as f:
            json.dump(saved, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {BASELINE}")


def cmd_compare(spec, args):
    with open(BASELINE) as f:
        base = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    seconds = args.seconds or spec["run_seconds"]
    for w in names:
        fresh = collect(spec, w, args.runs, args.seed0, seconds)
        print(f"# {w}: fresh median vs committed median, in units of the committed quartile distance")
        for k, s in fresh.items():
            b = base["workloads"][w][k]
            iqr = b["q3"] - b["q1"]
            delta = s["median"] - b["median"]
            units = delta / iqr if iqr else float("inf") if delta else 0.0
            sign = 1 if better[k] == "higher" else -1
            verdict = "better" if sign * delta > 0 else "worse" if delta else "same"
            print(f"  {k:<20} {b['median']:<14.6g} -> {s['median']:<14.6g} "
                  f"{100 * delta / b['median'] if b['median'] else 0:+7.2f}%  {units:+7.2f} spreads ({verdict})")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=["spread", "compare"])
    p.add_argument("--workload", default="all")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=int, default=0, help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--save", action="store_true", help="spread: write the runs to perfbench/baseline.json")
    args = p.parse_args()
    spec = load_spec()
    {"spread": cmd_spread, "compare": cmd_compare}[args.mode](spec, args)


if __name__ == "__main__":
    main()
