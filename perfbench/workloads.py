"""The benchmark's workloads: one simulator config each, built from a seed.

Every workload trains the same 48-dim, 10-class Gaussian-blob task with a
two-layer MLP on a 4-regular gossip graph; they differ in which layers of
the round carry the work. Why each exists, and what it should and should not
move, is recorded in BENCHMARK.json next to its name.
"""

from __future__ import annotations

from dataclasses import dataclass

_DATA = {"kind": "synthetic", "classes": 10, "dims": 48, "per_class": 100,
         "test_per_class": 50, "mean_scale": 0.55}
_SGD = {"eta": 0.08, "tau": 3, "batch_size": 32}


@dataclass(frozen=True)
class Workload:
    name: str
    raw: dict
    # Mean test accuracy at which ``bytes_to_target`` is read. Chosen so that
    # every sizing seed reached it well before the last evaluation.
    target_acc: float


WORKLOADS = {
    w.name: w
    for w in (
        # Per-coefficient work dominates: gamma decode, dwt/idwt and top-k
        # over 60,426 parameters, on a static graph.
        Workload("jwins-wide", {
            "algo": "jwins", "n": 16, "rounds": 16, "eval_every": 2,
            "topology": {"d": 4, "dynamic": False},
            "model": {"kind": "mlp", "hidden": 1024},
        }, target_acc=0.80),
        # Same layers through many small calls (2,842 parameters, 64 nodes),
        # and the only workload that redraws the graph every round.
        Workload("jwins-many", {
            "algo": "jwins", "n": 64, "rounds": 24, "eval_every": 2,
            "topology": {"d": 4, "dynamic": True},
            "model": {"kind": "mlp", "hidden": 48},
        }, target_acc=0.65),
        # Random sampling (alpha 0.37) with the jwins-wide model and graph:
        # bypasses wavelet and the gamma coder, exercises seeded index
        # regeneration, index-scatter averaging and the learner.
        Workload("random-wide", {
            "algo": "random", "n": 16, "rounds": 40, "eval_every": 4,
            "random_alpha": 0.37,
            "topology": {"d": 4, "dynamic": False},
            "model": {"kind": "mlp", "hidden": 1024},
        }, target_acc=0.80),
    )
}


def config_dict(workload: Workload, seed: int) -> dict:
    """Raw simulator config for one workload run; the seed is the run seed."""
    raw = {"seed": int(seed) % 2**63, "data": dict(_DATA), "sgd": dict(_SGD),
           "partition": {"shards_per_node": 2}}
    for key, value in workload.raw.items():
        raw[key] = dict(value) if isinstance(value, dict) else value
    return raw
