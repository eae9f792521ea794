#!/usr/bin/env python3
"""A/B the repository benchmark between two git revisions.

Usage, from anywhere inside the repository:

    python3 tools/perf_ab.py --base HEAD~1 --head HEAD \\
        --workload paper-grid --pairs 10 --seconds 4

Each revision is checked out with `git worktree` into a temporary
directory and built into its own CARGO_TARGET_DIR by
`perfbench/run.py`, which this script only calls (`--trace 0`). The
runs alternate base/head, swapping the order every pair so that slow
drift of the host hits both sides alike; the first run of each side
(which also builds it) is discarded. Per end-to-end metric the script
prints the median of the per-pair head/base ratios, the base's
quartiles, how many pairs head won, and the two-sided sign-test
p-value of that count. Passing the same revision twice is an A-vs-A
run: it shows the spread a real change has to beat.

Standard library only. The worktrees are removed on exit.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(root, *args):
    return subprocess.run(["git", "-C", root, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree, target, args):
    """One perfbench run of the checkout at `tree`: {metric: value}."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    out = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, env=env, check=True, capture_output=True,
        text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result.get("correct") or result.get("failed"):
        sys.exit(f"perf_ab: {tree}: run failed: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def sign_test(wins, losses):
    """Two-sided exact binomial p-value of wins vs losses at p = 1/2."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def report(metrics, base_runs, head_runs):
    print(f"{'metric':<20}{'ratio':>8}{'base q1':>12}{'base med':>12}"
          f"{'base q3':>12}{'head med':>12}{'wins':>7}{'p':>8}")
    for name, lower_is_better in metrics:
        base = [r[name] for r in base_runs]
        head = [r[name] for r in head_runs]
        ratios = [h / b for b, h in zip(base, head) if b]
        wins = sum((h < b) if lower_is_better else (h > b)
                   for b, h in zip(base, head))
        losses = sum((h > b) if lower_is_better else (h < b)
                     for b, h in zip(base, head))
        q1, med, q3 = statistics.quantiles(base, n=4) \
            if len(base) > 1 else (base[0],) * 3
        print(f"{name:<20}{statistics.median(ratios):>8.3f}{q1:>12.4g}"
              f"{med:>12.4g}{q3:>12.4g}{statistics.median(head):>12.4g}"
              f"{wins:>4}/{len(base):<2}{sign_test(wins, losses):>8.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="parent revision")
    ap.add_argument("--head", required=True, help="changed revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=4)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be >= 1")

    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        metrics = [(m["name"], m["better"] == "lower")
                   for m in json.load(f)["end_to_end"]]
    work = tempfile.mkdtemp(prefix="perf_ab.")
    sides = {}
    try:
        for side in ("base", "head"):
            rev = git(root, "rev-parse", getattr(args, side))
            tree = os.path.join(work, side)
            git(root, "worktree", "add", "--detach", tree, rev)
            sides[side] = (tree, os.path.join(work, "target-" + side))
            print(f"{side}: {rev[:12]}", file=sys.stderr)
        for side in ("base", "head"):  # build and warm up; discarded
            run_once(*sides[side], args)
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(*sides[side], args))
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{s} {runs[s][-1][metrics[0][0]]:.4g}" for s in order),
                file=sys.stderr)
        print(f"{args.workload}: {args.pairs} pairs of {args.seconds} s, "
              f"ratio = head/base per pair")
        report(metrics, runs["base"], runs["head"])
    finally:
        for tree, _ in sides.values():
            subprocess.run(["git", "-C", root, "worktree", "remove",
                            "--force", tree], capture_output=True)
        subprocess.run(["git", "-C", root, "worktree", "prune"],
                       capture_output=True)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
