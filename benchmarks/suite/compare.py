"""Compare benchmark results of a parent commit and a change.

    python benchmarks/suite/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ...

Each argument is a result file written by ``run.py --out`` (or a
directory of them).  Runs are paired in the order given, so alternate
which side runs first when making them.  End-to-end metrics come from
each run's untraced phase, so traced runs count too.

For every (workload, end-to-end metric) pair the report gives each
side's median and quartiles, the share of run pairs the change wins,
and one verdict:

* ``improved`` — the change wins at least nine tenths of the pairs and
  the medians differ by more than the parent's quartile spread;
* ``regressed`` — otherwise, the change's median is worse than the
  parent's by more than the bound;
* ``unresolved`` — otherwise, the parent's quartile spread is wider
  than the metric's bound, and not every change run beats every
  parent run;
* ``within bound`` — none of these.

Bounds come from ``BENCHMARK.json``.  The exit status is 1 when a pair
regressed or is unresolved, or a run reported incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]


def load_runs(paths: List[Path]) -> Dict[str, List[dict]]:
    """Workload -> run records, in argument order."""
    files = []
    for path in paths:
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: Dict[str, List[dict]] = {}
    for path in files:
        for record in json.loads(path.read_text())["runs"]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float):
    """(win rate, verdict) of change against parent for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    spread = q3 - q1
    if wins >= 0.9 and sign * (c_med - p_med) > spread:
        return wins, "improved"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return wins, "regressed"
    if spread > bound * abs(p_med) and \
            not all(sign * (c - p) > 0 for p in parent for c in change):
        return wins, "unresolved"
    return wins, "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    bad = 0
    for side, runs in (("parent", parent), ("change", change)):
        for workload, records in sorted(runs.items()):
            wrong = sum(not r["result"]["correct"] for r in records)
            if wrong:
                bad += 1
                print(f"{side} {workload}: {wrong} of {len(records)} "
                      f"runs reported incorrect outputs")

    print(f"{'workload':16s} {'metric':12s} {'parent median [q1, q3]':>32s}"
          f" {'change median [q1, q3]':>32s} {'ratio':>7s} {'wins':>5s}"
          f"  verdict")
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            p = [r["end_to_end"][m["name"]]["value"]
                 for r in parent[workload]]
            c = [r["end_to_end"][m["name"]]["value"]
                 for r in change[workload]]
            wins, outcome = verdict(p, c, m["better"], m["bound"])
            bad += outcome in ("regressed", "unresolved")
            pq, cq = quartiles(p), quartiles(c)
            print(f"{workload:16s} {m['name']:12s} "
                  f"{pq[1]:>12.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
                  f"{'':>2s}{cq[1]:>12.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
                  f" {cq[1] / pq[1]:>7.3f} {wins:>5.0%}  {outcome}")
    for workload in sorted(set(parent) ^ set(change)):
        print(f"{workload}: runs on one side only, not compared")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
