#!/usr/bin/env python3
"""Steadiness report for the layer benchmark.

Runs a workload once per seed through perfbench/run.py and reports, for each
metric, the median, the quartiles and the spread (Q3 - Q1) / median, the way
statistics.quantiles(values, n=4) gives them. A metric is flagged when its
spread exceeds its bound in BENCHMARK.json (setup_s is exempt: its bound
governs only the median) and marked "steady" when the spread is below a
third of the bound. The "suggested" column sets a bound from the data:
three times the observed spread, at least 0.02, at most 0.25.

    python3 perfbench/steadiness.py run --workload dse-budget-cora \\
        --seeds 1-10 --out .bench_build/steady-a.json
    python3 perfbench/steadiness.py report .bench_build/steady-a.json
    python3 perfbench/steadiness.py report A.json B.json

With two files, `report` also checks that the second set's median of every
metric is not worse than the first's by more than the metric's bound —
the evidence that two sets of runs of the same code agree.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def load_config():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for key in ("end_to_end", "per_layer"):
        for m in config[key]:
            metrics[m["name"]] = m
    return config, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(args):
    config, _ = load_config()
    seconds = args.seconds or config["run_seconds"]
    out = {"seconds": seconds, "trace": args.trace, "runs": {}}
    for workload in args.workload:
        runs = out["runs"].setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(RUN), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
            result = json.loads(lines[-1])
            runs[str(seed)] = result
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}",
                  flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    report_sets([out])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def worse_by(first, second, spec):
    """Relative change of `second` against `first`, positive = worse."""
    if not first:
        return 0.0
    change = (second - first) / first
    return -change if spec.get("better") == "higher" else change


def report_sets(sets):
    _, specs = load_config()
    ok = True
    workloads = sorted(set().union(*(s["runs"].keys() for s in sets)))
    for workload in workloads:
        per_set = []
        for s in sets:
            runs = s["runs"].get(workload, {})
            failures = sum(r["failed"] for r in runs.values())
            attempted = sum(r["attempted"] for r in runs.values())
            incorrect = sum(not r["correct"] for r in runs.values())
            print(f"\n== {workload}: {len(runs)} runs, {failures} failed of "
                  f"{attempted} attempted, {incorrect} runs incorrect")
            ok &= failures == 0 and incorrect == 0
            values = {}
            for r in runs.values():
                for name, m in r["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            per_set.append(values)
            print(f"  {'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>8} {'bound':>6} {'suggest':>7}  status")
            for name, vals in values.items():
                if len(vals) < 2:
                    continue
                median, q1, q3, spread = summarize(vals)
                bound = specs.get(name, {}).get("bound")
                suggest = min(0.25, max(0.02, 3 * spread))
                if bound is None:
                    status = "per-layer"
                elif spread <= bound / 3:
                    status = "steady"
                elif spread <= bound or name == "setup_s":
                    status = "within bound"
                else:
                    status = "OUT OF BOUND"
                    ok = False
                print(f"  {name:40} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{spread:8.4f} {bound if bound is not None else '-':>6} "
                      f"{suggest:7.3f}  {status}")
        if len(per_set) == 2:
            print(f"  -- second set against the first ({workload})")
            for name, vals in per_set[1].items():
                spec = specs.get(name, {})
                if "bound" not in spec or name not in per_set[0]:
                    continue
                m1 = statistics.median(per_set[0][name])
                m2 = statistics.median(vals)
                change = worse_by(m1, m2, spec)
                agree = change <= spec["bound"]
                ok &= agree
                print(f"  {name:40} {m1:12.5g} -> {m2:12.5g} "
                      f"worse by {100 * change:+7.2f}% (bound "
                      f"{100 * spec['bound']:.0f}%)  "
                      f"{'agree' if agree else 'DISAGREE'}")
    print("\nsteadiness:", "PASS" if ok else "FAIL")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run seeds and report")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=float)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    p = sub.add_parser("report", help="report one set, or compare two")
    p.add_argument("files", nargs="+")
    args = parser.parse_args()
    if args.cmd == "run":
        run(args)
    else:
        if len(args.files) > 2:
            parser.error("report takes one or two files")
        sets = [json.loads(Path(f).read_text()) for f in args.files]
        sys.exit(0 if report_sets(sets) else 1)


if __name__ == "__main__":
    main()
