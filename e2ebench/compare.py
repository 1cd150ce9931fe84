#!/usr/bin/env python3
"""Compare two result sets of the benchmark, or report tracing overhead.

    python3 e2ebench/compare.py BASE.jsonl NEW.jsonl
    python3 e2ebench/compare.py --overhead RESULTS.jsonl

A result set is the JSON-lines file `runset.py` (or `e2ebench --out`)
writes: one tagged result line per run. For every workload × end-to-end
metric of BENCHMARK.json, the comparison prints both sets' medians and
quartiles and a verdict:

  missing     a set has no run of the workload or metric, or the two
              sets do not cover the same seeds
  unresolved  a set's spread, (Q3 - Q1) / median, is wider than the
              metric's bound, and NEW does not read better on every run
  worse       NEW's median is worse than BASE's by more than the bound
  better      NEW wins at least 9 in 10 seed-paired runs and the medians
              differ by more than BASE's quartile distance
  within      otherwise

Every metric, `setup_s` included, goes through the same rules. The exit
code is 1 when any verdict is `missing`, `worse` or `unresolved`.

`--overhead` pairs each traced run with the untraced run of the same
workload and seed, and prints the traced wall time per token against the
untraced one (1000 / tokens_per_s).
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_seed(rows, workload, metric):
    return {
        r["seed"]: r["result"]["metrics"][metric]["value"]
        for r in rows
        if r["workload"] == workload and not r["trace"] and metric in r["result"]["metrics"]
    }


def spread(q1, med, q3):
    """Quartile distance as a share of the median."""
    return (q3 - q1) / abs(med) if med else float("inf")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric, base, new):
    """Verdict for one metric from seed → value maps of both sets."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b1, bm, b3 = quartiles(list(base.values()))
    n1, nm, n3 = quartiles(list(new.values()))

    def better(x, y):
        return x < y if lower else x > y

    worse_by = ((nm - bm) if lower else (bm - nm)) / abs(bm) if bm else 0.0
    every_run_better = all(better(n, b) for n in new.values() for b in base.values())
    noisy = spread(b1, bm, b3) > bound or spread(n1, nm, n3) > bound
    if noisy and not every_run_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        seeds = sorted(set(base) & set(new))
        wins = sum(better(new[s], base[s]) for s in seeds)
        if seeds and wins >= 0.9 * len(seeds) and abs(nm - bm) > (b3 - b1):
            v = "better"
        else:
            v = "within"
    return (bm, b1, b3), (nm, n1, n3), worse_by, v


def compare(base_path, new_path):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, new = load(base_path), load(new_path)
    workloads = [w["name"] for w in bench["workloads"]]
    bad = False
    print(f"{'workload':<12} {'metric':<20} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'worse by':>9} {'bound':>6}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            b, n = by_seed(base, w, m["name"]), by_seed(new, w, m["name"])
            if not b or not n or set(b) != set(n):
                bad = True
                print(f"{w:<12} {m['name']:<20} base seeds {sorted(b)} new seeds {sorted(n)}"
                      f"  missing")
                continue
            (bm, b1, b3), (nm, n1, n3), worse_by, v = verdict(m, b, n)
            bad |= v in ("worse", "unresolved")
            print(f"{w:<12} {m['name']:<20} {bm:>12.4f} [{b1:>10.4f}, {b3:>10.4f}] "
                  f"{nm:>12.4f} [{n1:>10.4f}, {n3:>10.4f}] {100 * worse_by:>8.2f}% "
                  f"{m['bound']:>6.2f}  {v}")
    return 1 if bad else 0


def overhead(path):
    rows = load(path)
    print(f"{'workload':<12} {'seed':>5} {'untraced ms/token':>18} {'traced ms/token':>16} "
          f"{'overhead':>9}")
    for r in rows:
        if not r["trace"]:
            continue
        plain = [p for p in rows if not p["trace"] and p["workload"] == r["workload"]
                 and p["seed"] == r["seed"]]
        if not plain:
            continue
        untraced = 1000.0 / plain[0]["result"]["metrics"]["tokens_per_s"]["value"]
        traced = r["result"]["metrics"]["trace.wall_ms_per_token"]["value"]
        print(f"{r['workload']:<12} {r['seed']:>5} {untraced:>18.4f} {traced:>16.4f} "
              f"{100 * (traced - untraced) / untraced:>8.2f}%")
    return 0


def main(argv):
    if len(argv) == 3 and argv[1] == "--overhead":
        return overhead(argv[2])
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
