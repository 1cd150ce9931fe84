#!/usr/bin/env python3
"""Run the benchmark over several seeds and collect one result set.

    python3 e2ebench/runset.py --out results.jsonl [--workloads a,b]
        [--seeds 1-10] [--seconds N] [--trace 0|1|both]

Run from the repository root. Builds `e2ebench` once, then runs every
workload × seed (× trace flag) in turn, appending each tagged result line
to `--out`, and prints each end-to-end metric's median and quartile
spread per workload. `--seconds` defaults to BENCHMARK.json's
`run_seconds`. The file is the input of `compare.py`.
"""

import argparse
import json
import os
import subprocess
import sys
import time

from compare import load, quartiles, spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread_table(rows, bench):
    """Median, quartiles and (Q3 - Q1) / median of each end-to-end metric."""
    out = []
    for w in sorted({r["workload"] for r in rows}):
        runs = [r["result"] for r in rows if r["workload"] == w and not r["trace"]]
        if len(runs) < 2:
            continue
        for m in bench["end_to_end"]:
            values = [run["metrics"][m["name"]]["value"] for run in runs]
            q1, med, q3 = quartiles(values)
            out.append((w, m["name"], len(values), med, q1, q3, spread(q1, med, q3), m["bound"]))
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0", choices=["0", "1", "both"])
    args = ap.parse_args()

    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "e2ebench/Cargo.toml"],
        cwd=ROOT,
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "e2ebench", "target"))
    binary = os.path.join(ROOT, target, "release", "e2ebench")
    traces = ["0", "1"] if args.trace == "both" else [args.trace]
    failed = False
    for w in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            for trace in traces:
                cmd = [binary, "--workload", w, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", trace, "--out", args.out]
                started = time.monotonic()
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      stderr=subprocess.DEVNULL, text=True)
                took = time.monotonic() - started
                last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
                print(f"{w} seed={seed} trace={trace} exit={proc.returncode} {took:.1f}s"
                      f" {last[:120]}", flush=True)
                failed |= proc.returncode != 0
    print()
    print(f"{'workload':<12} {'metric':<20} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>7} {'bound':>6}")
    for w, name, n, med, q1, q3, s, bound in spread_table(load(args.out), bench):
        flag = "" if s <= bound / 3 else ("  > bound/3" if s <= bound else "  > BOUND")
        print(f"{w:<12} {name:<20} {n:>3} {med:>12.4f} {q1:>12.4f} {q3:>12.4f}"
              f" {s:>7.3f} {bound:>6.3f}{flag}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
