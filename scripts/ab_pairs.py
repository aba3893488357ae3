#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark: a parent commit against the working tree.

    python3 scripts/ab_pairs.py --parent <ref> --workload <name> --seed <n> \\
        [--pairs 10] [--trace 0|1] [--work .ab_pairs]

Run from inside the repository; it works offline. The parent's files are
exported with `git archive` into <work>/parent (so the repository's own
worktree list is never touched and an interrupted run leaves nothing to
prune), and perfbench is built for the parent and for the working tree into
separate target directories, <work>/target-parent and <work>/target-change.
Each pair then runs both builds once, each in its own source tree, with the
order alternating from pair to pair (parent first in even pairs) so a drift
in host speed does not favour one side. Every run lasts the benchmark's own
run length, `run_seconds` in BENCHMARK.json, on both sides.

Prints every run with perfbench's `host speed:` line (the probes' readings
and the unscaled figures), then, per metric, each side's median and
quartiles, the change/parent ratio of the medians, the parent's
interquartile range, and how many pairs the change won. The direction of "better" comes from
BENCHMARK.json; a metric it does not list gets no win count. Exits non-zero
when a build or a run fails, or a run reports `correct: false`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                      text=True, check=True).stdout.strip()


def build(tree, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", os.path.join(tree, "perfbench", "Cargo.toml")],
                   cwd=tree, env=env, check=True, stdout=sys.stderr)
    return os.path.join(target, "release", "bebop-perfbench")


def run(exe, tree, args, seconds):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         timeout=4 * seconds + 180)
    if out.returncode != 0:
        sys.exit(f"ab_pairs: {exe} failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"ab_pairs: incorrect run ({tree}):\n{out.stdout}")
    host = next((l for l in lines if l.startswith("host speed:")), "host speed: ?")
    return {name: m["value"] for name, m in result["metrics"].items()}, host


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git ref of the parent commit")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", default=os.path.join(ROOT, ".ab_pairs"),
                   help="directory for the parent's files and both target dirs")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

    work = os.path.abspath(args.work)
    parent_tree = os.path.join(work, "parent")
    shutil.rmtree(parent_tree, ignore_errors=True)
    os.makedirs(parent_tree)
    archive = subprocess.run(["git", "archive", "--format=tar", args.parent], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", parent_tree], input=archive, check=True)
    sides = {
        "parent": (build(parent_tree, os.path.join(work, "target-parent")), parent_tree),
        "change": (build(ROOT, os.path.join(work, "target-change")), ROOT),
    }

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, host = run(*sides[side], args, seconds)
            runs[side].append(metrics)
            shown = " ".join(f"{k}={v:.6g}" for k, v in sorted(metrics.items()))
            print(f"pair {i + 1} {side}: {shown}\n  {host}", flush=True)

    print(f"\n{args.workload} seed {args.seed}: {args.pairs} pairs of {seconds} s runs, "
          f"parent {args.parent} vs working tree")
    for name in sorted(runs["parent"][0]):
        par = [r[name] for r in runs["parent"]]
        chg = [r[name] for r in runs["change"]]
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(par), quartiles(chg)
        ratio = cmed / pmed if pmed else float("nan")
        line = (f"{name}: parent median {pmed:.6g} [q1 {pq1:.6g}, q3 {pq3:.6g}], "
                f"change median {cmed:.6g} [q1 {cq1:.6g}, q3 {cq3:.6g}], "
                f"ratio {ratio:.4f}, parent IQR {pq3 - pq1:.6g}, "
                f"median gap {abs(cmed - pmed):.6g}")
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            wins = sum(sign * (c - q) > 0 for c, q in zip(chg, par))
            line += f", change better in {wins}/{args.pairs} pairs ({better[name]} is better)"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
