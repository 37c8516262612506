#!/usr/bin/env python3
"""Paired A/B of the committed benchmark: this checkout against a base ref.

    python3 tools/bench_ab.py --base origin/main --pairs 10 --seconds 20

Checks --base out into a temporary git worktree, then runs each tree's own
benchmark command (BENCHMARK.json "command", --seed 1 --trace 0) on every
BENCHMARK.json workload in --pairs parent/change pairs, alternating which
side runs first. The change side is this checkout's working tree.

Every run must exit 0 with a parsable last stdout line that reads
"correct": true and "failed": 0 and carries every end-to-end metric; the
first run that does not stops the A/B with exit 1. Then, for each
(workload, metric), the table gives the parent and change medians, the
median of the per-pair change/parent ratios and the parent's own spread
(interquartile range over median). A row FAILs when the median ratio is
worse than the metric's BENCHMARK.json bound while the parent's spread is
inside the bound. A parent spread wider than the bound cannot resolve the
bound: the row reads UNRESOLVED and does not fail.

Exit status: 0 when no run and no row fails, 1 otherwise.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


class RunFailed(Exception):
    """A benchmark run that cannot be compared."""


def read_run(returncode, stdout, names):
    """The end-to-end metrics {name: value} of one run, from its exit code
    and stdout; raises RunFailed saying why the run does not count."""
    lines = stdout.strip().splitlines()
    # The benchmark prints each failed check as a "# FAILED: ..." line.
    why = "".join(f"\n  {l}" for l in lines if l.startswith("# FAILED"))
    if returncode != 0:
        raise RunFailed(f"exited {returncode}{why}")
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunFailed("last stdout line is not JSON") from None
    if not isinstance(last, dict):
        raise RunFailed("last stdout line is not a JSON object")
    if last.get("correct") is not True:
        raise RunFailed(f'"correct" is {json.dumps(last.get("correct"))}'
                        f"{why}")
    if last.get("failed") != 0:
        raise RunFailed(f'"failed" is {json.dumps(last.get("failed"))}{why}')
    values = {}
    for name in names:
        try:
            value = last["metrics"][name]["value"]
        except (KeyError, TypeError):
            raise RunFailed(f"metric {name} is missing") from None
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise RunFailed(f"metric {name} is not a finite number: {value}")
        values[name] = float(value)
    return values


def collect(workloads, names, pairs, run):
    """{workload: [(parent metrics, change metrics)] * pairs}. `run(side,
    workload)` returns (returncode, stdout) for side "parent" or "change";
    even pairs run the parent first, odd pairs the change."""
    samples = {}
    for workload in workloads:
        samples[workload] = []
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                try:
                    got[side] = read_run(*run(side, workload), names)
                except RunFailed as e:
                    raise RunFailed(f"{workload}, pair {i + 1}, {side}: {e}")
            samples[workload].append((got["parent"], got["change"]))
    return samples


def quartile_spread(values):
    """(Q3 - Q1) / median of `values`."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def ratio(change, parent):
    if change == parent:
        return 1.0
    return change / parent if parent != 0 else math.inf


def verdict(pairs, better, bound):
    """(median paired ratio, parent spread, "ok" | "FAIL" | "UNRESOLVED")
    for one metric over [(parent value, change value)]."""
    med = statistics.median(ratio(c, p) for p, c in pairs)
    spread = quartile_spread([p for p, _ in pairs])
    worse = med - 1.0 if better == "lower" else 1.0 - med
    # The tolerance keeps a ratio exactly at the bound from failing on
    # floating-point rounding.
    if spread > bound + 1e-9:
        return med, spread, "UNRESOLVED"
    return med, spread, "FAIL" if worse > bound + 1e-9 else "ok"


def judge(metrics, samples, out=sys.stdout):
    """Prints the A/B table; returns the exit status (1 if a row FAILs)."""
    header = ("workload", "metric", "better", "bound", "parent", "change",
              "ratio", "spread", "verdict")
    rows = []
    for workload, pairs in samples.items():
        for m in metrics:
            name = m["name"]
            values = [(p[name], c[name]) for p, c in pairs]
            med, spread, status = verdict(values, m["better"], m["bound"])
            rows.append((workload, name, m["better"], f'{m["bound"]:g}',
                         f"{statistics.median(p for p, _ in values):.6g}",
                         f"{statistics.median(c for _, c in values):.6g}",
                         f"{med:.3f}", f"{spread:.3f}", status))
    widths = [max(len(r[i]) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip(),
              file=out)
    failed = sum(r[-1] == "FAIL" for r in rows)
    unresolved = sum(r[-1] == "UNRESOLVED" for r in rows)
    pairs = len(next(iter(samples.values()), []))
    print(f"bench_ab: {'FAIL' if failed else 'PASS'} ({len(rows)} rows, "
          f"{failed} failed, {unresolved} unresolved; {pairs} pairs)",
          file=out)
    return 1 if failed else 0


def bench_ab(config, pairs, run, out=sys.stdout):
    """The whole A/B over BENCHMARK.json's workloads and end-to-end metrics
    with `run` as in collect(); returns the exit status."""
    workloads = [w["name"] for w in config["workloads"]]
    metrics = config["end_to_end"]
    try:
        samples = collect(workloads, [m["name"] for m in metrics], pairs, run)
    except RunFailed as e:
        print(f"bench_ab: FAIL: {e}", file=out)
        return 1
    return judge(metrics, samples, out)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD^",
                        help="git ref of the parent side (default HEAD^)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="parent/change pairs per workload (default 10)")
    parser.add_argument("--seconds", type=float,
                        default=float(config["run_seconds"]),
                        help="run length of every run (default "
                             "BENCHMARK.json run_seconds)")
    args = parser.parse_args()
    if args.pairs < 1 or not 0 < args.seconds < math.inf:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    try:
        base = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError as e:
        parser.error(f"--base {args.base}: {e.stderr.strip()}")

    tmp = Path(tempfile.mkdtemp(prefix="bench_ab-"))
    trees = {"parent": tmp / "parent", "change": ROOT}
    git("worktree", "add", "--detach", str(trees["parent"]), base)
    print(f"bench_ab: parent {base[:12]} ({args.base}) vs change {ROOT}; "
          f"{args.pairs} pairs of {args.seconds:g} s runs per workload",
          flush=True)

    def run(side, workload):
        cmd = [*config["command"], "--workload", workload, "--seed",
               str(SEED), "--seconds", f"{args.seconds:g}", "--trace", "0"]
        done = subprocess.run(cmd, cwd=trees[side], capture_output=True,
                              text=True)
        print(f"  {workload} {side}: exit {done.returncode}", file=sys.stderr,
              flush=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-4000:])
        return done.returncode, done.stdout

    try:
        return bench_ab(config, args.pairs, run)
    finally:
        git("worktree", "remove", "--force", str(trees["parent"]))
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
