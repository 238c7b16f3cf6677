#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    python3 benchmark/compare.py BASE_DIR NEW_DIR

Each directory holds one <workload>.jsonl file per workload, one result
record (the last line a benchmark run prints) per line, as written by
`run.sh --repeat` or `run.sh --ab`. Records are paired by line number.

For every workload x metric the table shows each side's median and
quartiles, the share of pairs the new side wins (ties count for neither
side), and a verdict:

  improved    at least 10 pairs, the new side wins at least 9 in 10 of them
              and the medians differ by more than the base side's
              interquartile range
  regressed   the new median is worse than the base median by more than the
              metric's bound (setup_s: never less than 0.1 s), whatever the
              spread
  unresolved  neither of the above, and the run-to-run spread (IQR / median)
              of either side exceeds the bound, so "unchanged" cannot be
              claimed; not given when every new run beats every base run
  unchanged   none of the above

Per-layer metrics have no bound; they get "improved"/"regressed" by the
pair rule alone (at least 10 pairs), else "-". A gain does not count when
the new side failed more queries than the base side. Exits 1 when an
end-to-end metric regressed.
"""

import json
import os
import statistics
import sys

SETUP_FLOOR_S = 0.1
MIN_PAIRS = 10


def load_runs(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".jsonl"):
            with open(os.path.join(directory, name)) as f:
                runs[name[: -len(".jsonl")]] = [json.loads(line) for line in f if line.strip()]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(base, new, direction, bound, floor):
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(better(n, b, direction) for b, n in pairs)
    win_frac = wins / len(pairs) if pairs else 0.0
    enough = len(pairs) >= MIN_PAIRS
    if enough and win_frac >= 0.9 and abs(nmed - bmed) > b3 - b1 and better(nmed, bmed, direction):
        return "improved", win_frac
    losses = sum(better(b, n, direction) for b, n in pairs)
    if bound is None:
        if enough and losses / len(pairs) >= 0.9 and abs(nmed - bmed) > b3 - b1:
            return "regressed", win_frac
        return "-", win_frac
    worse_by = (nmed - bmed) if direction == "lower" else (bmed - nmed)
    if worse_by > max(bound * abs(bmed), floor):
        return "regressed", win_frac
    spread = max((b3 - b1) / abs(bmed) if bmed else 0.0, (n3 - n1) / abs(nmed) if nmed else 0.0)
    every_new_better = all(better(n, b, direction) for n in new for b in base)
    if spread > bound and not every_new_better:
        return "unresolved", win_frac
    return "unchanged", win_frac


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = [(m["name"], m["better"], m.get("bound")) for m in spec["end_to_end"]]
    metrics += [(m["name"], m["better"], None) for m in spec["per_layer"]]
    base_runs, new_runs = load_runs(argv[1]), load_runs(argv[2])

    regressed = False
    header = f"{'workload':16} {'metric':34} {'base median [q1, q3]':>34} " \
             f"{'new median [q1, q3]':>34} {'delta':>8} {'wins':>5}  verdict"
    print(header)
    for workload in sorted(set(base_runs) & set(new_runs)):
        base, new = base_runs[workload], new_runs[workload]
        failed_base = sum(r["failed"] for r in base) / max(1, sum(r["attempted"] for r in base))
        failed_new = sum(r["failed"] for r in new) / max(1, sum(r["attempted"] for r in new))
        if not all(r["correct"] for r in base + new):
            print(f"{workload:16} some runs report incorrect results")
        for name, direction, bound in metrics:
            b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
            if not b or not n:
                continue
            floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
            v, win_frac = verdict(b, n, direction, bound, floor)
            if v == "improved" and failed_new > failed_base:
                v = "unresolved"
            regressed = regressed or (v == "regressed" and bound is not None)
            b1, bmed, b3 = quartiles(b)
            n1, nmed, n3 = quartiles(n)
            delta = (nmed - bmed) / abs(bmed) * 100 if bmed else 0.0
            print(f"{workload:16} {name:34} {bmed:>12.5g} [{b1:>8.5g}, {b3:>8.5g}] "
                  f"{nmed:>12.5g} [{n1:>8.5g}, {n3:>8.5g}] {delta:>+7.1f}% "
                  f"{win_frac:>5.2f}  {v}")
        print(f"{workload:16} failed fraction: base {failed_base:.4g}, new {failed_new:.4g}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
