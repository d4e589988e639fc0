"""jwins benchmark: one workload per process, run from the repository root.

    python3 perfbench/run.py --workload jwins-wide --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: after one
untimed ``sim.build_runtime`` call and one short untimed warm-up run, it
makes back-to-back ``sim.run`` calls of the full workload for ``--seconds``,
each preceded by one timed pass of ``sim.build_runtime`` over a fixed set of
config seeds for the set-up time.

``--trace 1`` alternates an untraced and a traced run for ``--seconds`` and
reports the per-layer metrics of the traced runs (medians). Every run's
outputs are checked; a run that raises or fails a check counts as failed.
Human-readable lines come first; the last line of standard output is the
JSON result. Metric names and units are those of BENCHMARK.json.

The seed is the simulator's run seed, so it draws the data, partition,
model initialisation, graph and every per-node random stream.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the simulator is single-threaded, and pool threads
# only add run-to-run noise. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import PROBE, Tracer, installed, layer_totals
from workloads import WORKLOADS, config_dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_build" / "perfbench"

METRICS_HEADER = "round,node,test_loss,test_acc,bytes_cum,bytes_meta_cum,alpha"
# Config seeds of the set-up passes, one pass before each measured run.
# Set-up cost varies several-fold with the seed, because the graph draw rejects
# pairings until one is simple and connected, so every run, whatever its own
# seed, times the same fixed set and reports the median of its pass means.
SETUP_SEEDS = tuple(range(1, 17))
WARMUP_ROUNDS = 2
# Time no hook covers (sim.run's self time) above this share of the traced
# wall time is reported: the per-layer figures then miss a layer's work.
UNACCOUNTED_CEILING = 0.05
# Random-sampling wire cost per message: header, u64 seed, then 4 bytes a value.
HEADER_BYTES = 13
SEED_BYTES = 8


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jwins" / "__init__.py").is_file():
        print("error: no jwins sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from jwins import sim

    workload = WORKLOADS[args.workload]
    raw = config_dict(workload, args.seed)
    print("env: " + json.dumps(env_stamp(), sort_keys=True))
    print("workload: %s seed %d config %s" % (workload.name, args.seed,
                                               json.dumps(raw, sort_keys=True)))
    out_dir = OUT_ROOT / ("%s-%d" % (workload.name, os.getpid()))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(sim, workload, raw, out_dir)
        if args.trace:
            result = bench.traced(args.seconds)
        else:
            result = bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if result is None:
        print("error: no run of %s completed" % workload.name, file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print("metric %-40s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result, sort_keys=True))
    return 0


def env_stamp() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


class Bench:
    """One workload's runs and output checks inside one process."""

    def __init__(self, sim, workload, raw: dict, out_dir: Path):
        self.sim = sim
        self.workload = workload
        self.raw = raw
        self.cfg = sim.config_from_dict(raw)
        self.out_dir = out_dir
        self.setup_cfgs = [sim.config_from_dict({**raw, "seed": seed}) for seed in SETUP_SEEDS]
        self.reference_csv: bytes | None = None
        self.attempted = 0
        self.failed = 0

    def end_to_end(self, seconds: float) -> dict | None:
        self.sim.build_runtime(self.cfg)  # the first call costs about twice the later ones
        self.warm_up()
        setup = []
        walls = []
        summary = None
        start = time.perf_counter()
        while self.more(start, seconds, walls):
            setup.append(self.time_setup())
            outcome = self.checked_run()
            if outcome is not None:
                wall, summary, _ = outcome
                walls.append(wall)
        if not walls:
            return None
        rates = [self.cfg.rounds / wall for wall in walls]
        print("rounds_per_s: median %.4f over %d runs of %d rounds; %s"
              % (statistics.median(rates), len(rates), self.cfg.rounds, tail_note(rates)))
        print("samples: wall_s %s" % " ".join("%.4f" % w for w in walls))
        self.print_quality(summary)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return self.result({
            "rounds_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "bytes_per_node": (summary["bytes_per_node"], "bytes"),
            "final_acc": (summary["final_acc"], "share"),
            "pass_share": ((self.attempted - self.failed) / self.attempted, "share"),
        })

    def traced(self, seconds: float) -> dict | None:
        self.warm_up()
        overheads = []
        pair_walls = []
        layers: dict[str, list] = {}
        summary = None
        start = time.perf_counter()
        while self.more(start, seconds, pair_walls):
            plain = self.checked_run()
            traced = self.checked_run(traced=True)
            if plain is None or traced is None:
                continue
            wall, summary, states = plain
            traced_wall, _, metrics = traced
            pair_walls.append(wall + traced_wall)
            overheads.append((traced_wall - metrics.pop(PROBE)[0]) / wall - 1.0)
            metrics["node.consensus_dist"] = (consensus_distance(states), "norm2")
            for name, value in metrics.items():
                layers.setdefault(name, []).append(value)
        if not overheads:
            return None
        self.print_quality(summary)
        metrics = {name: (statistics.median(v for v, _ in values), values[0][1])
                   for name, values in layers.items()}
        metrics["trace.overhead"] = (statistics.median(overheads), "share")
        metrics["bytes_to_target"] = (summary["bytes_to_target"], "bytes")
        metrics["target_round"] = (summary["target_round"], "round")
        return self.result(metrics)

    def more(self, start: float, seconds: float, walls: list) -> bool:
        """Whether to start another measured run.

        Always until two runs were attempted, since the determinism check
        compares them; then while the median run so far still fits in the
        remaining time, so a run ends near ``seconds``. A program that only
        fails stops at the deadline.
        """
        if self.attempted < 2:
            return True
        elapsed = time.perf_counter() - start
        if not walls:
            return elapsed < seconds
        return elapsed + statistics.median(walls) <= seconds

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }

    def time_setup(self) -> float:
        """Mean seconds of one ``build_runtime`` call over the fixed seed set."""
        t0 = time.perf_counter()
        for cfg in self.setup_cfgs:
            self.sim.build_runtime(cfg)
        return (time.perf_counter() - t0) / len(self.setup_cfgs)

    def warm_up(self) -> None:
        short = self.sim.config_from_dict({**self.raw, "rounds": WARMUP_ROUNDS})
        self.sim.run(short, out_path=self.out_dir / "warmup.csv")

    def checked_run(self, traced: bool = False):
        """One full run with its output checks.

        Returns (wall seconds, CSV summary, final states or layer metrics), or
        None when the run raised or failed a check.
        """
        self.attempted += 1
        path = self.out_dir / ("run%d.csv" % self.attempted)
        try:
            if traced:
                wall, extra, node_wire, problems = self.traced_run(path)
            else:
                t0 = time.perf_counter()
                _, extra = self.sim.run(self.cfg, out_path=path, return_states=True)
                wall = time.perf_counter() - t0
                problems = []
            data = path.read_bytes()
            summary, csv_problems = check_csv(data, self.raw, self.workload.target_acc)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problems += csv_problems
        if self.reference_csv is None:
            if not problems:
                self.reference_csv = data
        elif data != self.reference_csv:
            problems.append("metrics CSV differs from the first run's")
        if traced and not problems and node_wire != summary["node_bytes"]:
            problems.append("wire traffic %s != CSV bytes_cum %s"
                            % (node_wire[:4], summary["node_bytes"][:4]))
        if problems:
            for problem in problems:
                print("check failed (%s run %d): %s" % (self.workload.name, self.attempted, problem),
                      file=sys.stderr)
            self.failed += 1
            return None
        return wall, summary, extra

    def traced_run(self, path: Path):
        """Traced run; returns (wall, per-layer metrics, per-node wire bytes,
        problems found by the trace)."""
        tracer = Tracer()
        probe = WireProbe(self.sim.codec.serialize)
        with installed(tracer, observers=probe.observers()) as absent:
            t0 = time.perf_counter()
            self.sim.run(self.cfg, out_path=path, return_states=False)
            wall = time.perf_counter() - t0
        totals = layer_totals(tracer.spans)
        problems = []
        if probe.bad_roundtrip:
            problems.append("%d decoded messages re-serialize differently" % probe.bad_roundtrip)
        if absent:
            print("trace: hooks absent: %s" % ", ".join(absent), file=sys.stderr)
        unaccounted = totals.get("sim.run", (0.0, 0))[0] / wall
        if unaccounted > UNACCOUNTED_CEILING:
            print("trace: %.3f of traced wall time is in no hooked layer (ceiling %.2f)"
                  % (unaccounted, UNACCOUNTED_CEILING), file=sys.stderr)
        metrics = probe.metrics(self.cfg, totals, tracer.errors["codec.decode"])
        metrics["trace.unaccounted"] = (unaccounted, "share")
        metrics["trace.hooks_absent"] = (len(absent), "count")
        # Probe seconds, taken out of trace.overhead by the caller.
        metrics[PROBE] = (totals.get(PROBE, (0.0, 0))[0], "s")
        return wall, metrics, probe.node_wire(self.cfg.n), problems

    def print_quality(self, summary: dict) -> None:
        reached = ("round %d" % summary["target_round"]
                   if summary["target_round"] <= self.cfg.rounds else "not reached")
        print("quality: final_acc %.4f bytes_per_node %.0f bytes_to_target(acc %.2f) %.0f (%s)"
              % (summary["final_acc"], summary["bytes_per_node"], self.workload.target_acc,
                 summary["bytes_to_target"], reached))


class WireProbe:
    """Counters the traced run collects at layer boundaries."""

    def __init__(self, serialize):
        self.serialize = serialize
        self.sent_len: dict[tuple[int, int], int] = {}
        self.degree: dict[tuple[int, int], int] = {}
        self.bad_roundtrip = 0
        self.delivered = 0
        self.rejected = 0
        self.k_sent = 0
        self.slots = 0
        self.raw_index_bytes = 0
        self.meta_bytes = 0
        self.wire_bytes = 0

    def observers(self) -> dict:
        return {"codec.serialize": self.on_serialize,
                "codec.deserialize": self.on_deserialize,
                "node.finalize_round": self.on_finalize}

    def on_serialize(self, args, blob) -> None:
        update = args[0]
        self.sent_len[(update.round_no, update.sender)] = len(blob)

    def on_deserialize(self, args, update) -> None:
        if self.serialize(update) != bytes(args[0]):
            self.bad_roundtrip += 1

    def on_finalize(self, args, outcome) -> None:
        state, inbox, weights, round_no = args[:4]
        degree = int(weights.neighbors[state.node_id].size)
        self.degree[(round_no, state.node_id)] = degree
        self.delivered += len(inbox)
        self.rejected += outcome.rejected
        update = outcome.outbound
        self.k_sent += update.k
        self.slots += state.coeff_len
        if update.meta_bytes:
            self.raw_index_bytes += 4 * update.k * degree
        self.meta_bytes += outcome.meta_bytes
        self.wire_bytes += outcome.bytes_sent

    def node_wire(self, n: int) -> list[int]:
        """Per sender: serialized length times degree, summed over rounds."""
        wire = [0] * n
        for key, length in self.sent_len.items():
            wire[key[1]] += length * self.degree.get(key, -1)
        return wire

    def metrics(self, cfg, totals: dict, decode_errors: int) -> dict:
        def s(name):
            return totals.get(name, (0.0, 0))[0]

        def calls(name):
            return totals.get(name, (0.0, 0))[1]

        node_rounds = cfg.n * cfg.rounds
        return {
            "codec.decode.s": (s("codec.decode"), "s"),
            "codec.decode.calls": (calls("codec.decode"), "count"),
            "codec.encode.s": (s("codec.encode"), "s"),
            "codec.resolve.s": (s("codec.resolve"), "s"),
            "codec.meta_ratio": (self.raw_index_bytes / max(self.meta_bytes, 1), "ratio"),
            "codec.meta_share": (self.meta_bytes / max(self.wire_bytes, 1), "share"),
            "codec.msgs_rejected": ((self.rejected + decode_errors) / max(self.delivered, 1),
                                    "share"),
            "sparsify.density": (self.k_sent / max(self.slots, 1), "share"),
            "wavelet.dwt.s": (s("wavelet.dwt"), "s"),
            "wavelet.idwt.s": (s("wavelet.idwt"), "s"),
            "wavelet.dwt.calls_per_node_round": (calls("wavelet.dwt") / node_rounds, "count"),
            "learner.local_sgd.s": (s("learner.local_sgd"), "s"),
            "learner.evaluate.s": (s("learner.evaluate"), "s"),
            "sparsify.random_indices.s": (s("sparsify.random_indices"), "s"),
            "sparsify.random_indices.calls_per_msg": (
                calls("sparsify.random_indices") / node_rounds, "count"),
            "sparsify.select.s": (s("sparsify.select"), "s"),
            "sparsify.accumulate.s": (s("sparsify.accumulate"), "s"),
            "node.sparse_average.s": (s("node.sparse_average"), "s"),
            "node.prepare.self_s": (s("node.prepare"), "s"),
            "node.finalize.self_s": (s("node.finalize"), "s"),
            "sim.run.self_s": (s("sim.run"), "s"),
            "graph.generate_regular.s": (s("graph.generate_regular"), "s"),
            "graph.mixing.s": (s("graph.mixing"), "s"),
        }


def check_csv(data: bytes, raw: dict, target_acc: float) -> tuple[dict, list[str]]:
    """Parse the metrics CSV independently of the program and check its shape.

    Returns the summary the metrics need plus a list of problems.
    """
    lines = data.decode().splitlines()
    problems = []
    if len(lines) < 2 or not lines[0].startswith("# config: ") or lines[1] != METRICS_HEADER:
        return {}, ["metrics CSV header malformed"]
    n, rounds, every = raw["n"], raw["rounds"], raw["eval_every"]
    evals = [t + 1 for t in range(rounds) if (t + 1) % every == 0 or t == rounds - 1]
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != len(evals) * (n + 1) or any(len(r) != 7 for r in rows):
        return {}, ["metrics CSV has %d rows, expected %d" % (len(rows), len(evals) * (n + 1))]
    agg = []
    for e, rnd in enumerate(evals):
        block = rows[e * (n + 1):(e + 1) * (n + 1)]
        labels = [r[1] for r in block]
        if labels != [str(i) for i in range(n)] + ["AGG"] or any(int(r[0]) != rnd for r in block):
            problems.append("metrics CSV block for round %d malformed" % rnd)
        loss, acc, nbytes = (float(x) for x in block[-1][2:5])
        if not (math.isfinite(loss) and 0.0 <= acc <= 1.0):
            problems.append("round %d: loss %r, accuracy %r out of range" % (rnd, loss, acc))
        agg.append((rnd, acc, nbytes))
    if any(b1 < b0 for (_, _, b0), (_, _, b1) in zip(agg, agg[1:])):
        problems.append("bytes_cum decreases")
    last = rows[-(n + 1):-1]
    node_bytes = [int(r[4]) for r in last]
    hit = next((a for a in agg if a[1] >= target_acc), None)
    summary = {
        "final_acc": agg[-1][1],
        "bytes_per_node": agg[-1][2],
        "node_bytes": node_bytes,
        "target_round": hit[0] if hit else rounds + 1,
        "bytes_to_target": hit[2] if hit else agg[-1][2],
    }
    if raw["algo"] == "random":
        expected = random_bytes_per_node(raw)
        if node_bytes != [expected] * n or summary["bytes_per_node"] != expected:
            problems.append("random-sampling traffic %s != closed form %d"
                            % (node_bytes[:4], expected))
    return summary, problems


def random_bytes_per_node(raw: dict) -> int:
    """d * R * (13 + 8 + 4k) with k = floor(alpha * P + 0.5) for the MLP."""
    f, c, h = raw["data"]["dims"], raw["data"]["classes"], raw["model"]["hidden"]
    params = f * h + h + h * c + c
    k = int(math.floor(raw["random_alpha"] * params + 0.5))
    return raw["topology"]["d"] * raw["rounds"] * (HEADER_BYTES + SEED_BYTES + 4 * k)


def consensus_distance(states) -> float:
    """Mean over nodes of ||x_i - mean(x)||^2 on the final parameters."""
    x = np.stack([s.model.get_flat() for s in states])
    return float(np.mean(np.sum((x - x.mean(axis=0)) ** 2, axis=1)))


def tail_note(rates: list[float]) -> str:
    """Highest per-run time percentile with at least ten runs beyond it."""
    n = len(rates)
    if n < 20:
        return "no tail percentile has 10 runs beyond it at n=%d" % n
    return "p%d of run time is %.4f rounds/s (n=%d)" % (100 * (n - 10) // n, sorted(rates)[10], n)


if __name__ == "__main__":
    sys.exit(main())
