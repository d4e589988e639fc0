"""Parent-vs-change comparison of two sets of benchmark results.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds one JSON record per line, as ``suite.py`` writes them:
``{"workload", "seed", "trace", "env", "notes", "result"}``. For every workload and
every end-to-end metric of BENCHMARK.json this prints each side's median and
quartiles over its end-to-end runs, the pairs the change won (runs paired by
seed), and a verdict by the rule of the choosing-metrics guide, section 8:

* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``gain``: the change won at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than the parent's own quartile
  distance;
* ``unresolved``: the run-to-run spread (quartile distance over median, the
  wider side) exceeds the bound and not every change run beats every parent
  run, unless every pair reads exactly the same, as the deterministic
  metrics do for a change that keeps the outputs, whatever their spread
  across seeds;
* ``no regression``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """``by_seed`` of the records in a results file."""
    with open(path) as fh:
        return by_seed(json.loads(line) for line in fh if line.strip())


def by_seed(records) -> dict:
    """workload -> seed -> end-to-end metrics {name: value}."""
    out: dict = {}
    for record in records:
        if record["trace"]:
            continue
        metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
        out.setdefault(record["workload"], {})[record["seed"]] = metrics
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent: list, change: list, pairs: list, better: str, bound: float) -> str:
    """Classify one (workload, metric) row; ``pairs`` is [(parent, change)]."""
    sign = 1.0 if better == "higher" else -1.0
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    gain = sign * (med_c - med_p)
    if med_p and -gain / abs(med_p) > bound:
        return "regression"
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and won >= 0.9 * len(pairs) and gain > q3 - q1:
        return "gain"
    if pairs and all(p == c for p, c in pairs):
        return "no regression"
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not every_run_better:
        return "unresolved"
    return "no regression"


def compare(parent: dict, change: dict, spec: dict) -> list[str]:
    lines = ["%-12s %-15s %36s %36s %9s  %s" % (
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "won/tie/n", "verdict")]
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [run[name] for run in p_runs.values()]
            c = [run[name] for run in c_runs.values()]
            pairs = [(p_runs[s][name], c_runs[s][name]) for s in seeds]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            won = sum(1 for a, b in pairs if sign * (b - a) > 0)
            tied = sum(1 for a, b in pairs if a == b)
            lines.append("%-12s %-15s %36s %36s %9s  %s" % (
                workload, name, _fmt(p), _fmt(c), "%d/%d/%d" % (won, tied, len(pairs)),
                verdict(p, c, pairs, metric["better"], metric["bound"])))
    missing = sorted(set(parent) ^ set(change))
    if missing:
        lines.append("only on one side: %s" % ", ".join(missing))
    return lines


def _fmt(values) -> str:
    q1, med, q3 = quartiles(values)
    return "%.5g [%.5g, %.5g]" % (med, q1, q3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change benchmark runs.")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    print("\n".join(compare(load(args.parent), load(args.change), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
