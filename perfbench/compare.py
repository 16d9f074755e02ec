#!/usr/bin/env python3
"""Compares two sets of benchmark runs against the benchmark's own bounds.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds runs appended by `run.py --out FILE` (any seeds, any number
of runs). For every (workload, end-to-end metric) the tool prints each
side's median and quartiles (statistics.quantiles, n=4) and a verdict:

  fail  the new median is worse than the base median by more than the
        metric's bound in BENCHMARK.json;
  warn  unresolved or suspect: the measured noise band (the wider side's
        quartile distance over its median) is wider than the bound, or the
        new median is worse by more than that noise band but within the
        bound;
  pass  otherwise: not worse, or worse by less than the measured noise.

Per-layer metrics (traced runs) are listed with their medians and no
verdict; they have no bounds. Only the workloads BENCHMARK.json lists
are compared. Results whose hardware fingerprints or --seconds differ are
refused (exit 2): numbers from two machines, builds or run lengths are
never compared as if they were one run. Exit 1 when any verdict is fail
or any run reported correct = false.
"""

import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


def load(path):
    runs = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                runs.append(json.loads(line))
            except ValueError:
                sys.exit(f"compare.py: {path}:{n}: not a JSON record")
    if not runs:
        sys.exit(f"compare.py: {path}: no runs")
    return runs


def group(runs, trace):
    """{workload: {metric: [values]}} over the runs with the given trace."""
    out = {}
    for r in runs:
        if r["trace"] != trace:
            continue
        for name, m in r["result"]["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(
                m["value"])
    return out


def summary(values):
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, better, bound):
    _, bmed, _ = summary(base)
    _, nmed, _ = summary(new)
    noise = max((q3 - q1) / abs(med) if med else 0.0
                for q1, med, q3 in (summary(base), summary(new)))
    sign = 1 if better == "lower" else -1
    worse = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    if worse > bound:
        return "fail", worse, noise
    if noise > bound or worse > noise:
        return "warn", worse, noise
    return "pass", worse, noise


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    with open(BENCHMARK) as f:
        bench = json.load(f)
    workloads = {w["name"] for w in bench["workloads"]}
    base = [r for r in load(args.base) if r["workload"] in workloads]
    new = [r for r in load(args.new) if r["workload"] in workloads]
    if not base or not new:
        print("compare.py: no runs of a BENCHMARK.json workload on one side",
              file=sys.stderr)
        return 2

    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in base + new}
    if len(prints) > 1:
        print("compare.py: refusing to compare runs with different hardware "
              "fingerprints:", file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        return 2
    print("fingerprint " + prints.pop())
    seconds = {r["seconds"] for r in base + new}
    if len(seconds) > 1:
        print(f"compare.py: refusing to compare runs of different lengths "
              f"(--seconds {sorted(seconds)})", file=sys.stderr)
        return 2

    bad = [r for r in base + new if not r["result"]["correct"]]
    for r in bad:
        print(f"incorrect run: {r['workload']} seed {r['seed']} "
              f"failed {r['result']['failed']}")

    failed = bool(bad)
    bgroups, ngroups = group(base, 0), group(new, 0)
    print(f"{'workload':18} {'metric':16} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32} {'worse':>7} {'noise':>6} {'bound':>5}  "
          "verdict")
    for w in sorted(set(bgroups) | set(ngroups)):
        for m in bench["end_to_end"]:
            b = bgroups.get(w, {}).get(m["name"])
            n = ngroups.get(w, {}).get(m["name"])
            if not b or not n:
                print(f"{w:18} {m['name']:16} missing on one side")
                continue
            v, worse, noise = verdict(b, n, m["better"], m["bound"])
            failed = failed or v == "fail"
            fmt = lambda s: "%10.4g %10.4g %10.4g" % s
            print(f"{w:18} {m['name']:16} {fmt(summary(b)):>32} "
                  f"{fmt(summary(n)):>32} {worse:7.1%} {noise:6.1%} "
                  f"{m['bound']:5.2f}  {v}  (runs {len(b)}/{len(n)})")

    bl, nl = group(base, 1), group(new, 1)
    if bl or nl:
        print("per-layer medians (traced runs, no verdict):")
        for w in sorted(set(bl) | set(nl)):
            for m in bench["per_layer"]:
                b = bl.get(w, {}).get(m["name"])
                n = nl.get(w, {}).get(m["name"])
                col = lambda v: "%14.4g" % statistics.median(v) if v else \
                    "%14s" % "-"
                print(f"  {w:18} {m['name']:34} {col(b)} {col(n)} {m['unit']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
