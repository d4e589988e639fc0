"""The runner's output checks on a tiny config, traced and untraced."""

import json
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, Workload, config_dict

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def _bench(tmp_path, algo="jwins", **over):
    from jwins import sim

    raw = {"algo": algo, "n": 4, "seed": 5, "rounds": 3, "eval_every": 2,
           "random_alpha": 0.37, "topology": {"d": 2, "dynamic": algo == "jwins"},
           "model": {"kind": "mlp", "hidden": 6},
           "data": {"kind": "synthetic", "classes": 3, "dims": 5, "per_class": 12,
                    "test_per_class": 4, "mean_scale": 2.0},
           "sgd": {"eta": 0.1, "tau": 2, "batch_size": 4}, **over}
    workload = Workload("tiny", raw, target_acc=0.5)
    return run.Bench(sim, workload, raw, tmp_path)


@pytest.mark.parametrize("algo", ["jwins", "random"])
def test_traced_and_untraced_runs_agree(tmp_path, algo):
    bench = _bench(tmp_path, algo)
    plain = bench.checked_run()
    traced = bench.checked_run(traced=True)
    assert plain is not None and traced is not None
    assert (bench.attempted, bench.failed) == (2, 0)
    # Byte-identical CSVs: the second run was compared to the first.
    assert (tmp_path / "run1.csv").read_bytes() == (tmp_path / "run2.csv").read_bytes()
    metrics = traced[2]
    assert metrics["trace.hooks_absent"][0] == 0
    assert metrics["trace.unaccounted"][0] == pytest.approx(
        metrics["sim.run.self_s"][0] / traced[0])
    assert metrics[run.PROBE][0] > 0
    assert metrics["codec.decode.calls"][0] == 4 * 3
    if algo == "jwins":
        assert metrics["wavelet.dwt.calls_per_node_round"][0] == 3
    else:
        assert metrics["sparsify.random_indices.calls_per_msg"][0] == 1 + 2


def test_changed_csv_counts_as_failure(tmp_path):
    bench = _bench(tmp_path)
    assert bench.checked_run() is not None
    bench.reference_csv = bench.reference_csv.replace(b"AGG", b"agg", 1)
    assert bench.checked_run() is None
    assert (bench.attempted, bench.failed) == (2, 1)


def test_random_closed_form_traffic():
    raw = config_dict(WORKLOADS["random-wide"], 1)
    k = int(0.37 * 60426 + 0.5)
    assert run.random_bytes_per_node(raw) == 4 * 40 * (13 + 8 + 4 * k)


def test_benchmark_json_matches_workloads_and_outputs(tmp_path):
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert "acc target %.2f" % WORKLOADS[w["name"]].target_acc in w["why"]
    (tmp_path / "e2e").mkdir()
    (tmp_path / "traced").mkdir()
    e2e = _bench(tmp_path / "e2e").end_to_end(0)
    traced = _bench(tmp_path / "traced").traced(0)
    for result, key in ((e2e, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert ({name: m["unit"] for name, m in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in spec[key]})
