"""Run the whole benchmark in one command and print every metric.

    python3 perfbench/suite.py --out change.jsonl
    python3 perfbench/suite.py --out change.jsonl \\
        --parent ../parent-checkout --parent-out parent.jsonl

For each workload of BENCHMARK.json it makes ten end-to-end runs (seeds
``--first-seed`` onwards) and then one traced run, each in its own process
and each for BENCHMARK.json's ``run_seconds``, and prints the end-to-end
medians and quartiles and the per-layer metrics. The output files are
written afresh; each run's result is one JSON line, the input of
``compare.py``. With ``--parent``, each run is paired with the same run in
the parent checkout, alternating which side goes first, and the comparison
of this invocation's runs is printed at the end.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
# Runs per workload and side: section 8 of the choosing-metrics guide asks
# for at least ten pairs.
RUNS = 10


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("run failed (%s, %s seed %d trace %d, exit %d):\n%s"
              % (root, workload, seed, trace, proc.returncode, proc.stderr[-2000:]),
              file=sys.stderr)
        return None
    env = next((json.loads(line[len("env: "):]) for line in lines if line.startswith("env: ")),
               None)
    notes = [line for line in lines[:-1]
             if not line.startswith(("env: ", "workload: ", "metric "))]
    return {"workload": workload, "seed": seed, "trace": trace, "env": env, "notes": notes,
            "result": json.loads(lines[-1])}


def report(records: list, spec: dict) -> list[str]:
    lines = []
    for w in spec["workloads"]:
        runs = [r for r in records if r["workload"] == w["name"] and not r["trace"]]
        traced = [r for r in records if r["workload"] == w["name"] and r["trace"]]
        if not runs:
            continue
        lines.append("== %s: %d end-to-end runs (seeds %s), %d checks failed"
                     % (w["name"], len(runs), ",".join(str(r["seed"]) for r in runs),
                        sum(r["result"]["failed"] for r in runs)))
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = compare.quartiles(values)
            lines.append("  %-40s %12.6g %-6s [%.6g, %.6g]  spread %.3f (bound %.2f)" % (
                metric["name"], med, metric["unit"], q1, q3, compare.spread(values),
                metric["bound"]))
        for r in traced:
            lines.append("  traced run, seed %d, %d checks failed:"
                         % (r["seed"], r["result"]["failed"]))
            for name, m in r["result"]["metrics"].items():
                lines.append("    %-38s %12.6g %s" % (name, m["value"], m["unit"]))
    return lines


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--parent", help="checkout of the parent commit to pair runs with")
    parser.add_argument("--parent-out", help="results file for the parent's runs")
    args = parser.parse_args(argv)
    if bool(args.parent) != bool(args.parent_out):
        parser.error("--parent and --parent-out go together")
    sides = [(ROOT, Path(args.out))]
    if args.parent:
        sides.append((Path(args.parent).resolve(), Path(args.parent_out)))
        if Path(args.parent_out).resolve() == Path(args.out).resolve():
            parser.error("--out and --parent-out must be different files")
    results = {out: [] for _, out in sides}
    for out in results:
        out.write_text("")
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    jobs = [(w, s, 0) for w in names for s in seeds]
    jobs += [(w, seeds[0], 1) for w in names]
    for i, (workload, seed, trace) in enumerate(jobs):
        for root, out in (sides if i % 2 == 0 else sides[::-1]):
            record = run_one(root, workload, seed, spec["run_seconds"], trace)
            if record is not None:
                results[out].append(record)
                with open(out, "a") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
    for root, out in sides:
        print("#### %s -> %s" % (root, out))
        print("\n".join(report(results[out], spec)))
    if args.parent:
        print("#### parent vs change")
        parent = compare.by_seed(results[Path(args.parent_out)])
        change = compare.by_seed(results[Path(args.out)])
        print("\n".join(compare.compare(parent, change, spec)))
    failed = len(jobs) * len(sides) - sum(len(r) for r in results.values())
    failed += sum(r["result"]["failed"] for rs in results.values() for r in rs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
