"""Simulator, metrics file, probe, comparison, and CLI tests.

Everything here runs tiny configurations (a handful of nodes, a few rounds,
low-dimensional blobs) so the whole file stays fast while still crossing the
real serialize/deserialize boundary every round.
"""

import dataclasses
import gc
import hashlib
import importlib.util
import json
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from jwins import cli, codec, sim
from jwins.node import prepare_round
from jwins.sparsify import random_indices, selection_size, top_indices
from jwins.sim import (
    METRICS_HEADER,
    POOL_MIN_PARAMS,
    PROBE_HEADER,
    ConfigError,
    RunConfig,
    TopologyCfg,
    compare,
    config_from_dict,
    load_config,
    pool_size,
    read_metrics,
    reconstruction_probe,
    run,
    write_metrics,
)


def _tiny(**over):
    """Small but non-trivial base config the tests tweak per case."""
    raw = {
        "algo": "jwins",
        "n": 4,
        "seed": 7,
        "rounds": 6,
        "eval_every": 3,
        "topology": {"d": 2},
        "data": {"classes": 4, "dims": 8, "per_class": 10, "test_per_class": 5,
                 "mean_scale": 2.0},
        "sgd": {"eta": 0.05, "tau": 2, "batch_size": 8},
    }
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    return config_from_dict(raw)


def _hand_built(raw):
    """The RunConfig ``raw`` describes, built without ``config_from_dict``:
    each section from its own class, on a 2-node, 1-round base."""
    kwargs = {"n": 2, "rounds": 1, "topology": TopologyCfg(d=1)}
    for key, value in raw.items():
        if isinstance(value, dict):
            value = type(getattr(RunConfig(), key))(**value)
        kwargs[key] = value
    return RunConfig(**kwargs)


def _same_error_when_hand_built(raw, loaded):
    """A hand-built config fails its run with the message that loading the
    same raw values gave."""
    with pytest.raises(ConfigError) as built:
        run(_hand_built(raw))
    assert str(built.value) == str(loaded.value)


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = config_from_dict({})
        assert cfg.algo == "jwins"
        assert cfg.n == 16
        assert cfg.topology.d == 4

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_dict({"velocity": 3})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="unknown config key.*topology"):
            config_from_dict({"topology": {"degree": 4}})

    def test_unknown_alpha_key(self):
        with pytest.raises(ConfigError, match="alpha"):
            config_from_dict({"alpha": {"values": [0.5]}})

    def test_not_a_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            config_from_dict([1, 2, 3])
        with pytest.raises(ConfigError, match="mapping"):
            config_from_dict({"sgd": 5})
        with pytest.raises(ConfigError, match="section 'topology' must be a TopologyCfg"):
            run(RunConfig(n=2, topology={"d": 1}))

    def test_bad_algo(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            config_from_dict({"algo": "sgd"})

    def test_bad_graph_parameters(self):
        with pytest.raises(ConfigError, match="0 < d < n"):
            config_from_dict({"n": 4, "topology": {"d": 4}})
        with pytest.raises(ConfigError, match="even"):
            config_from_dict({"n": 5, "topology": {"d": 3}})

    def test_degree_one_beyond_two_nodes(self):
        # A 1-regular graph is a matching, connected only for n = 2.
        with pytest.raises(ConfigError, match="degree 1"):
            config_from_dict({"n": 4, "topology": {"d": 1}})
        assert config_from_dict({"n": 2, "topology": {"d": 1}}).n == 2

    def test_synthetic_data_too_small_for_shards(self):
        # 3 classes * 5 samples cannot be cut into 8 * 2 shards.
        raw = {"n": 8, "topology": {"d": 2}, "data": {"classes": 3, "per_class": 5}}
        with pytest.raises(ConfigError, match="too few to cut 16 shards"):
            config_from_dict(raw)
        raw["data"]["per_class"] = 6
        assert config_from_dict(raw).data.per_class == 6

    @pytest.mark.parametrize("raw, message", [
        ({"partition": {"shards_per_node": 0}}, "shards_per_node must be positive"),
        ({"partition": {"shards_per_node": -1}}, "shards_per_node must be positive"),
        ({"data": {"classes": 1}}, "at least 2 classes"),
        ({"data": {"dims": 0}}, "data.dims must be positive"),
        ({"data": {"per_class": 0}, "n": 1}, "data.per_class must be positive"),
        ({"data": {"test_per_class": 0}}, "data.test_per_class must be positive"),
        ({"model": {"kind": "mlp", "hidden": 0}}, "model.hidden must be positive"),
        ({"random_alpha": 0}, "random sampling fraction must lie in"),
        ({"choco": {"gamma": 1.5}}, "consensus step size must lie in"),
        ({"choco": {"gamma": -0.1}}, "consensus step size must lie in"),
        ({"choco": {"alpha": 0}}, "choco sparsity must lie in"),
        ({"sgd": {"eta": -0.1}}, "step size must be non-negative"),
        ({"sgd": {"tau": 0}}, "need at least one local step per round"),
        ({"sgd": {"batch_size": 0}}, "batch size must be positive"),
    ])
    def test_values_that_would_fail_at_run_time(self, raw, message):
        # The first seven used to load and then fail (or, for an empty test
        # set, write NaN loss and accuracy) only once the run started.
        with pytest.raises(ConfigError, match=message):
            config_from_dict(raw)

    def test_choco_rejects_dynamic_topology(self):
        with pytest.raises(ConfigError, match="dynamic"):
            config_from_dict({"algo": "choco", "topology": {"dynamic": True}})

    def test_counts_must_be_positive(self):
        # A hand-built RunConfig is checked as a loaded one is, before the
        # run builds anything.
        base = {"n": 2, "rounds": 1, "topology": TopologyCfg(d=1)}
        for bad in ({"rounds": 0}, {"eval_every": 0}, {"workers": 0},
                    {"n": 0}, {"seed": -1}):
            with pytest.raises(ConfigError):
                config_from_dict(bad)
            with pytest.raises(ConfigError):
                run(RunConfig(**{**base, **bad}))

    @pytest.mark.parametrize("raw", [{"wavelet_levels": 0},
                                     {"algo": "full", "wavelet_levels": -2}])
    def test_wavelet_levels_at_least_one(self, raw):
        # 0 levels is how a node runs the wavelet-off ablation; as a config
        # value it would silently turn the transform off.
        with pytest.raises(ConfigError, match="wavelet levels must be >= 1"):
            config_from_dict(raw)

    def test_topology_seed_non_negative(self):
        with pytest.raises(ConfigError, match="topology.seed must be non-negative"):
            config_from_dict({"topology": {"seed": -1}})
        assert config_from_dict({"topology": {"seed": 0}}).topology.seed == 0

    @pytest.mark.parametrize("raw", [{"n": "abc"}, {"topology": {"d": "2"}}, {"n": True},
                                     {"rounds": 2.5}, {"seed": 1.5}, {"workers": 1.5},
                                     {"workers": True}, {"workers": "auto"}])
    def test_integer_fields_reject_other_types(self, raw):
        with pytest.raises(ConfigError, match="must be an integer") as loaded:
            config_from_dict(raw)
        _same_error_when_hand_built(raw, loaded)

    @pytest.mark.parametrize("raw, what", [
        ({"random_alpha": "x"}, "a number"),
        ({"choco": {"gamma": "x"}}, "a number"),
        ({"model": {"init_scale": "a"}}, "a number"),
        ({"sgd": {"eta": False}}, "a number"),
        ({"topology": {"dynamic": "no"}}, "a boolean"),
        ({"ablations": {"wavelet_on": 1}}, "a boolean"),
        ({"message_dump": 5}, "a string"),
        ({"model": {"kind": 3}}, "a string"),
        ({"alpha": {"support": 5}}, "a list of numbers"),
        ({"alpha": {"probs": 0.5}}, "a list of numbers"),
        ({"alpha": {"support": None}}, "a list of numbers"),
        ({"alpha": {"support": [0.1, True]}}, "a list of numbers"),
        ({"alpha": {"probs": [0.5, "x"]}}, "a list of numbers"),
    ])
    def test_scalar_fields_reject_other_types(self, raw, what):
        with pytest.raises(ConfigError, match="must be " + what) as loaded:
            config_from_dict(raw)
        # An alpha section takes lists only when loaded; its class checks
        # the tuples it is built from.
        if "alpha" not in raw:
            _same_error_when_hand_built(raw, loaded)

    def test_workers_unset_by_default(self):
        assert config_from_dict({}).workers is None
        assert config_from_dict({"workers": None}).workers is None
        assert config_from_dict({"workers": 2}).workers == 2

    def test_number_fields_take_integers(self):
        cfg = config_from_dict({"random_alpha": 1, "sgd": {"eta": 0},
                                "data": {"test_images": None}})
        assert cfg.random_alpha == 1 and cfg.sgd.eta == 0

    def test_bad_kinds(self):
        with pytest.raises(ConfigError, match="model kind"):
            config_from_dict({"model": {"kind": "cnn"}})
        with pytest.raises(ConfigError, match="data kind"):
            config_from_dict({"data": {"kind": "cifar"}})

    def test_idx_paths_required(self):
        with pytest.raises(ConfigError, match="train_images"):
            config_from_dict({"data": {"kind": "idx"}})

    def test_alpha_probs_validated(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            config_from_dict({"alpha": {"support": [0.1, 0.2],
                                        "probs": [0.5, 0.1]}})
        with pytest.raises(ConfigError, match="non-empty"):
            config_from_dict({"alpha": {"support": []}})

    def test_alpha_defaults_to_uniform(self):
        cfg = config_from_dict({"alpha": {"support": [0.2, 0.4]}})
        assert cfg.alpha.probs == (0.5, 0.5)

    def test_bad_sgd_caught_at_config_time(self):
        with pytest.raises(ConfigError):
            config_from_dict({"sgd": {"eta": -1.0}})

    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("algo: random\nn: 6\ntopology:\n  d: 2\nrounds: 3\n")
        cfg = load_config(path)
        assert (cfg.algo, cfg.n, cfg.topology.d, cfg.rounds) == ("random", 6, 2, 3)

    def test_empty_yaml_is_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path).n == RunConfig().n


def _cpus(monkeypatch, count):
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(count)))


class TestPoolSize:
    @pytest.mark.parametrize("workers, cpus, n, params, algo, want", [
        (None, 1, 16, 60_426, "random", 1),                 # one CPU: serial
        (None, 2, 16, POOL_MIN_PARAMS - 1, "random", 1),    # small model: serial
        (None, 2, 16, POOL_MIN_PARAMS, "random", 2),        # wide model: every CPU
        (None, 8, 16, 60_426, "full", 8),
        (None, 8, 16, 60_426, "choco", 8),
        (None, 8, 3, 60_426, "random", 3),                  # at most one worker per node
        (None, 8, 1, 60_426, "random", 1),
        (None, 8, 16, 60_426, "jwins", 1),                  # jwins: serial at any size
        (None, 2, 16, POOL_MIN_PARAMS, "jwins", 1),
        (3, 2, 4, 100, "random", 3),                        # an explicit count overrides
        (2, 2, 16, 60_426, "jwins", 2),
        (1, 2, 16, 60_426, "random", 1),
    ])
    def test_rule(self, monkeypatch, workers, cpus, n, params, algo, want):
        _cpus(monkeypatch, cpus)
        assert pool_size(workers, n, params, algo) == want

    @pytest.mark.parametrize("algo, pools", [("jwins", []), ("random", [2]), ("full", [2])])
    def test_default_on_wide_model(self, monkeypatch, algo, pools):
        """An unset ``workers`` on a model above the threshold runs on a
        pool, except under jwins, and gives the rows of a serial run."""
        cfg = _tiny(algo=algo, rounds=2, eval_every=1, data={"dims": 48},
                    model={"kind": "mlp", "hidden": 640})
        serial = run(config_from_dict({**cfg.resolved(), "workers": 1}))
        _cpus(monkeypatch, 2)
        sizes = []
        real_pool = sim.ThreadPoolExecutor

        def pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(sim, "ThreadPoolExecutor", pool)
        assert cfg.workers is None
        assert run(cfg) == serial
        assert sizes == pools


class TestRunDeterminism:
    def test_metrics_file_byte_identical(self, tmp_path):
        paths = [tmp_path / ("m%d.csv" % i) for i in range(2)]
        for p in paths:
            run(_tiny(), out_path=p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("algo", ["jwins", "full", "random", "choco"])
    def test_worker_count_invariant(self, algo):
        rows1 = run(_tiny(algo=algo, workers=1))
        # Frequent thread switches, so that workers interleave on the
        # decoded updates they share.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows3 = run(_tiny(algo=algo, workers=3))
        finally:
            sys.setswitchinterval(interval)
        assert rows1 == rows3

    @pytest.mark.parametrize("algo", ["jwins", "full", "random", "choco"])
    def test_group_size_invariant(self, tmp_path, monkeypatch, algo):
        """Groups of 1, 2 and all 4 nodes, and at n=5 groups of 2 with a
        ragged last one and the single group of 5, write the same rows and
        message dump, also with the pool mapping groups of 2."""
        for n, layouts in [(4, [(4, 1), (1, 1), (2, 1), (2, 3)]), (5, [(5, 1), (2, 1), (2, 3)])]:
            cfg = _tiny(algo=algo, n=n, model={"kind": "mlp", "hidden": 16},
                        sgd={"batch_size": 9}, message_dump=str(tmp_path / "dump.bin"))
            params = sim.build_runtime(cfg).states[0].model.param_count
            outputs = []
            for size, workers in layouts:
                monkeypatch.setattr(sim, "POOL_MIN_PARAMS", size * params)
                cfg.workers = workers
                sizes = [min(size, n - a) for a in range(0, n, size)]
                assert [len(g.states) for g in sim.build_runtime(cfg).groups] == sizes
                outputs.append((run(cfg), (tmp_path / "dump.bin").read_bytes()))
            assert all(out == outputs[0] for out in outputs), n

    @pytest.mark.parametrize("ablation", [None, "wavelet_on", "accumulation_on",
                                          "random_cutoff_on", "metadata_compression_on"])
    def test_jwins_groups_write_what_single_nodes_write(self, tmp_path, monkeypatch, ablation):
        """A jwins round transforms, encodes and inverts a whole group at
        once. One-node groups, groups of 2 with a ragged last one, and the
        default single group of 5 write the same metrics and message dump,
        serially and on a pool of 2."""
        over = {"ablations": {ablation: False}} if ablation else {}
        cfg = _tiny(n=5, rounds=4, eval_every=2, topology={"d": 2},
                    model={"kind": "mlp", "hidden": 16}, **over)
        params = sim.build_runtime(cfg).states[0].model.param_count
        outputs = set()
        for pool_min, sizes in [(params, [1] * 5), (2 * params, [2, 2, 1]),
                                (POOL_MIN_PARAMS, [5])]:
            monkeypatch.setattr(sim, "POOL_MIN_PARAMS", pool_min)
            assert [len(g.states) for g in sim.build_runtime(cfg).groups] == sizes
            for workers in (1, 2):
                cfg.workers = workers
                cfg.message_dump = str(tmp_path / "dump.bin")
                run(cfg, out_path=tmp_path / "m.csv")
                outputs.add(((tmp_path / "m.csv").read_bytes().split(b"\n", 1)[1],
                             (tmp_path / "dump.bin").read_bytes()))
        assert len(outputs) == 1

    def test_seeded_indices_built_once_per_message(self, monkeypatch):
        """The sender builds its set once, and every receiver of the decoded
        message takes that set."""
        from jwins import node, sim, sparsify

        calls = []

        def counting(*args):
            calls.append(args)
            return sparsify.random_indices(*args)

        for mod in (node, codec, sim):
            monkeypatch.setattr(mod, "random_indices", counting)
        cfg = _tiny(algo="random", n=6, rounds=4)
        run(cfg)
        assert len(calls) == cfg.n * cfg.rounds

    def test_seed_no_sender_used_is_regenerated(self, monkeypatch):
        """A seeded message whose seed no sender built a set for this round
        gets the set of its own seed, rebuilt once by its first receiver and
        kept for the others; the other messages keep their senders' sets."""
        from jwins import node, sparsify

        foreign = 12345
        calls, inboxes = [], []

        def counting(*args):
            calls.append(args)
            return sparsify.random_indices(*args)

        def prepare(group, round_no, cfg, real=sim.prepare_round):
            updates = real(group, round_no, cfg)
            for i, u in enumerate(updates):
                if u.sender == 0:
                    updates[i] = codec.make_seed_update(round_no, 0, foreign, u.values)
            return updates

        def finalize(group, group_inboxes, *args, real=sim.finalize_group):
            inboxes.extend(group_inboxes)
            return real(group, group_inboxes, *args)

        for mod in (node, codec, sim):
            monkeypatch.setattr(mod, "random_indices", counting)
        monkeypatch.setattr(sim, "prepare_round", prepare)
        monkeypatch.setattr(sim, "finalize_group", finalize)
        cfg = _tiny(algo="random", rounds=1)
        run(cfg)
        slots = sim.build_runtime(cfg).states[0].coeff_len
        k = selection_size(cfg.random_alpha, slots)
        assert len(calls) == cfg.n + 1 and calls[-1] == (slots, k, foreign)
        received = [u for inbox in inboxes for u in inbox]
        assert received and all(u.index_slots == slots for u in received)
        for u in received:
            np.testing.assert_array_equal(u.indices, random_indices(slots, k, u.seed))
        assert any(u.seed == foreign for u in received)

    def test_seed_changes_results(self):
        rows_a = run(_tiny())
        rows_b = run(_tiny(seed=8))
        assert rows_a != rows_b

    def test_all_algorithms_run(self):
        for algo in ("jwins", "full", "random", "choco"):
            rows = run(_tiny(algo=algo, rounds=3, eval_every=3))
            assert rows, algo


class TestMetricsRows:
    def test_header_and_config_echo(self, tmp_path):
        path = tmp_path / "m.csv"
        cfg = _tiny()
        run(cfg, out_path=path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        echo = json.loads(lines[0][len("# config: "):])
        assert echo["algo"] == "jwins" and echo["n"] == 4
        assert lines[1] == METRICS_HEADER
        assert METRICS_HEADER == \
            "round,node,test_loss,test_acc,bytes_cum,bytes_meta_cum,alpha"

    def test_rows_per_evaluation(self):
        cfg = _tiny(rounds=6, eval_every=3)
        rows = run(cfg)
        # two evaluations, each n node rows plus one AGG row
        assert len(rows) == 2 * (cfg.n + 1)
        assert [r[0] for r in rows] == [3] * 5 + [6] * 5
        assert rows[4][1] == "AGG" and rows[9][1] == "AGG"

    def test_agg_row_is_column_means(self):
        cfg = _tiny()
        rows = run(cfg)
        per_round = {}
        for r in rows:
            per_round.setdefault(r[0], []).append(r)
        for _, group in per_round.items():
            nodes = [r for r in group if r[1] != "AGG"]
            agg = [r for r in group if r[1] == "AGG"][0]
            for col in (2, 3, 4, 5, 6):
                assert agg[col] == pytest.approx(
                    np.mean([r[col] for r in nodes]), rel=1e-12)

    def test_full_bytes_closed_form(self):
        cfg = _tiny(algo="full", rounds=4, eval_every=2)
        rows, states = run(cfg, return_states=True)
        plen = states[0].model.param_count
        per_round = cfg.topology.d * (13 + 4 * plen)
        for r in rows:
            if r[1] != "AGG":
                assert r[4] == r[0] * per_round
                assert r[5] == 0

    def test_random_bytes_closed_form(self):
        cfg = _tiny(algo="random", rounds=2, eval_every=2)
        rows, states = run(cfg, return_states=True)
        plen = states[0].model.param_count
        k = int(np.floor(cfg.random_alpha * plen + 0.5))
        per_round = cfg.topology.d * (13 + 8 + 4 * k)
        for r in rows:
            if r[1] != "AGG":
                assert r[4] == r[0] * per_round
                assert r[5] == r[0] * cfg.topology.d * 8

    def test_jwins_alpha_column_in_support(self):
        cfg = _tiny()
        support = set(cfg.alpha.support)
        for r in run(cfg):
            if r[1] != "AGG":
                assert r[6] in support

    def test_single_node_run(self):
        cfg = _tiny(n=1, rounds=3, eval_every=3)
        rows = run(cfg)
        node_rows = [r for r in rows if r[1] != "AGG"]
        assert len(node_rows) == 1
        assert node_rows[0][4] == 0  # nobody to talk to, no traffic

    @pytest.mark.parametrize("model", [{}, {"kind": "mlp", "hidden": 8}], ids=["logreg", "mlp"])
    def test_single_jwins_node_ends_each_round_at_its_rounded_coefficients(
            self, monkeypatch, model):
        """A lone jwins node receives nothing, so each round ends at the
        inverse transform of its float32 coefficients at x_tau, bitwise,
        and within a few float32 rounding errors of x_tau, which is where it
        would stay without the transform."""
        from jwins.node import NodeGroup
        from jwins.wavelet import dwt, idwt

        trained, ends = [], []

        def train(group, sgd, real=NodeGroup.train):
            losses = real(group, sgd)
            trained.append(group.model.theta[0].copy())
            return losses

        def finalize(group, *args, real=sim.finalize_group):
            outcomes = real(group, *args)
            ends.append(group.model.theta[0].copy())
            return outcomes

        monkeypatch.setattr(NodeGroup, "train", train)
        monkeypatch.setattr(sim, "finalize_group", finalize)
        cfg = _tiny(n=1, rounds=4, eval_every=2, model=model)
        rows = run(cfg)
        assert len(rows) == 2 * 2 and len(trained) == len(ends) == cfg.rounds
        levels = cfg.shared_levels
        for x_tau, x in zip(trained, ends):
            assert x_tau.dtype == x.dtype == np.float32
            want = idwt(dwt(x_tau, levels).astype(np.float32), x_tau.size, levels)
            assert x.tobytes() == want.astype(np.float32).tobytes()
            eps = np.finfo(np.float32).eps
            assert np.max(np.abs(x - x_tau)) <= 16 * eps * np.max(np.abs(x_tau))

    def test_dynamic_topology_changes_outcome(self):
        static = run(_tiny(algo="full"))
        dynamic = run(_tiny(algo="full", topology={"dynamic": True}))
        assert static != dynamic

    def test_roundtrip_through_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        cfg = _tiny()
        rows = run(cfg, out_path=path)
        config, parsed = read_metrics(path)
        assert config["seed"] == 7
        assert len(parsed) == len(rows)
        for raw, back in zip(rows, parsed):
            assert back["round"] == raw[0] and back["node"] == raw[1]
            assert back["test_acc"] == pytest.approx(raw[3], rel=1e-9)
            assert back["bytes_cum"] == raw[4]

    def test_read_metrics_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("round,node,acc\n1,0,0.5\n")
        with pytest.raises(ValueError, match="schema mismatch"):
            read_metrics(bad)
        short = tmp_path / "short.csv"
        short.write_text(METRICS_HEADER + "\n1,0,0.5\n")
        with pytest.raises(ValueError, match="schema mismatch"):
            read_metrics(short)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="schema mismatch"):
            read_metrics(empty)


def _peak_per_parameter_per_node(algo):
    """tracemalloc's peak bytes per parameter per node over a 3-round, 8-node
    MLP run of 60,426 parameters. The run is serial, because a pool's peak
    grows with the number of workers, which is the machine's."""
    raw = {"algo": algo, "n": 8, "rounds": 3, "eval_every": 3, "seed": 5, "workers": 1,
           "model": {"kind": "mlp", "hidden": 1024},
           "data": {"classes": 10, "dims": 48, "per_class": 40, "test_per_class": 10},
           "sgd": {"eta": 0.08, "tau": 2, "batch_size": 16},
           "topology": {"d": 4}}
    run(config_from_dict({**raw, "rounds": 1}))  # one-time allocations
    tracemalloc.start()
    try:
        run(config_from_dict(raw))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    params = 48 * 1024 + 1024 + 1024 * 10 + 10
    return peak / (8 * params)


class TestRunMemory:
    def test_peak_per_parameter_per_node(self):
        """A round holds each message once: its wire bytes, the decoded
        index set and values that view those bytes. tracemalloc's peak over a
        3-round, 8-node run of 60,426 parameters reads, in bytes per
        parameter per node, jwins 18.3, Choco 18.5, full 12.5 and random
        11.7. 8 of jwins' bytes are the floor: each node's float32 parameter
        row, which holds its coefficients between the phases, and its
        float32 wavelet reference, 4 bytes each; Choco's 12 are its
        parameters and its two float32 memory rows. jwins peaks in the
        finalize phase, where one inverse transform holds about 24 bytes per
        parameter of the group it inverts."""
        assert _peak_per_parameter_per_node("jwins") < 20.3

    @pytest.mark.parametrize("algo, bound", [
        ("choco", 20.5), ("full", 14.5), ("random", 14.0),
    ], ids=["choco", "full", "random"])
    def test_peak_per_parameter_per_node_other_algorithms(self, algo, bound):
        """The same measure for the other three algorithms, each bound about
        2 bytes above its read (docstring above)."""
        assert _peak_per_parameter_per_node(algo) < bound

    @pytest.mark.parametrize("over", [
        {"algo": "jwins"}, {"ablations": {"wavelet_on": False}},
        {"algo": "full"}, {"algo": "random"}, {"algo": "choco"},
    ], ids=["jwins", "jwins-no-wavelet", "full", "random", "choco"])
    def test_shared_stack_is_the_parameter_rows(self, monkeypatch, over):
        """After every ``prepare_round`` of a run, each group's rows, one of
        ``coeff_len`` slots per member, hold its members' vectors in the
        shared domain, bitwise: x_tau's transform rounded to float32 for
        jwins, x_tau itself otherwise. The parameters view those rows, and
        no other (G, ``coeff_len``) stack is held but the protocol memory:
        no coefficient stack is allocated next to the parameters."""
        from jwins.node import NodeGroup
        from jwins.wavelet import dwt

        trained, checked = {}, []

        def train(group, sgd, real=NodeGroup.train):
            losses = real(group, sgd)
            trained[id(group)] = group.model.theta.copy()
            return losses

        def prepare(group, round_no, cfg, real=sim.prepare_round):
            updates = real(group, round_no, cfg)
            shape = (len(group.states), group.states[0].coeff_len)
            assert group.rows.shape == shape
            assert np.shares_memory(group.rows, group.model.theta)
            want = dwt(trained[id(group)], cfg.shared_levels).astype(np.float32)
            assert group.rows.tobytes() == want.tobytes()
            stacks = {name for name, value in vars(group).items()
                      if isinstance(value, np.ndarray) and value.shape == shape}
            assert stacks <= {"rows", "ref", "choco_hat", "choco_agg"}, stacks
            checked.append(group)
            return updates

        monkeypatch.setattr(NodeGroup, "train", train)
        monkeypatch.setattr(sim, "prepare_round", prepare)
        cfg = _tiny(**over, model={"kind": "mlp", "hidden": 8})
        run(cfg)
        assert len(checked) == cfg.rounds

    @pytest.mark.parametrize("algo", ["jwins", "full", "random", "choco"])
    def test_nothing_forms_a_reference_cycle(self, algo):
        """A dropped runtime and a finished run free their groups, states and
        models by reference counting alone: with the cyclic collector off,
        their weak references die and the collector then finds nothing. A
        cycle (a state pointing back at its group, say) would keep every
        dropped run's parameters until the next collection."""
        gc.collect()
        gc.disable()
        try:
            rt = sim.build_runtime(_tiny(algo=algo))
            refs = [weakref.ref(obj) for obj in (rt, rt.groups[0], rt.states[0],
                                                 rt.states[0].model, rt.groups[0].model)]
            del rt
            rows, states = run(_tiny(algo=algo), return_states=True)
            refs += [weakref.ref(states[0]), weakref.ref(states[0].model)]
            del rows, states
            assert all(ref() is None for ref in refs)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPrecision:
    """Nodes train and evaluate in float32, and the protocol's memory stacks
    take the parameters' dtype: float32 in a run, float64 next to a float64
    model. The transforms, the averaging accumulator and Choco's products
    stay float64."""

    @pytest.mark.parametrize("over", [
        {"algo": "jwins"}, {"algo": "full"}, {"algo": "random"}, {"algo": "choco"},
        {"ablations": {"wavelet_on": False}},
    ], ids=["jwins", "full", "random", "choco", "jwins-no-wavelet"])
    def test_learner_state_stays_float32(self, monkeypatch, over):
        """After a whole run every parameter row, the training features and
        the test features are float32, and every node's parameters are
        still its row of its group's matrix: an upcast or a rebind fails."""
        built = []

        def build(cfg, real=sim.build_runtime):
            built.append(real(cfg))
            return built[-1]

        monkeypatch.setattr(sim, "build_runtime", build)
        _, states = run(_tiny(**over, model={"kind": "mlp", "hidden": 8}), return_states=True)
        [rt] = built
        assert states == rt.states
        assert rt.test.features.dtype == np.float32
        for group in rt.groups:
            assert group.model.theta.dtype == group.X.dtype == np.float32
            for row, state in enumerate(group.states):
                assert state.model.theta.dtype == np.float32
                assert np.shares_memory(state.model.theta, group.model.theta[row])

    @pytest.mark.parametrize("algo", ["jwins", "choco"])
    def test_protocol_memory_is_float64(self, algo):
        """A group over float64 parameter rows, like the models acceptance
        criterion 08 builds by hand, keeps jwins' reference stack and
        Choco's two memory stacks in float64, and jwins' coefficients stay
        float64 in the rows."""
        cfg = _tiny(algo=algo)
        group = sim.build_runtime(cfg).groups[0]
        group = dataclasses.replace(group, rows=group.rows.astype(np.float64))
        prepare_round(group, 0, cfg)
        assert group.model.theta.dtype == np.float64
        names = ("ref", "rows") if algo == "jwins" else ("choco_hat", "choco_agg")
        for name in names:
            assert getattr(group, name).dtype == np.float64, name

    @pytest.mark.parametrize("over", [
        {"algo": "jwins"}, {"algo": "jwins", "ablations": {"accumulation_on": False}},
        {"algo": "choco"},
    ], ids=["jwins", "jwins-no-accumulation", "choco"])
    def test_protocol_memory_follows_parameters(self, monkeypatch, over):
        """In a run the memory stacks are float32 like the parameters, in
        every round's finalize phase and after the run: a stack allocated or
        transformed into float64 fails."""
        built, seen = [], []

        def build(cfg, real=sim.build_runtime):
            built.append(real(cfg))
            return built[-1]

        def finalize(group, *args, real=sim.finalize_group):
            names = ("ref", "rows") if group.ref is not None else ("choco_hat", "choco_agg")
            seen.extend((name, getattr(group, name).dtype) for name in names)
            return real(group, *args)

        monkeypatch.setattr(sim, "build_runtime", build)
        monkeypatch.setattr(sim, "finalize_group", finalize)
        cfg = _tiny(**over)
        run(cfg)
        [rt] = built
        assert len(seen) == 2 * cfg.rounds * len(rt.groups)
        assert all(dtype == np.float32 for _, dtype in seen), seen
        names = ("ref",) if over["algo"] == "jwins" else ("choco_hat", "choco_agg")
        for group in rt.groups:
            for name in names:
                assert getattr(group, name).dtype == np.float32, name

    @pytest.mark.parametrize("over", [
        {}, {"ablations": {"metadata_compression_on": False}},
        {"model": {"kind": "mlp", "hidden": 8}},
    ], ids=["logreg", "raw-indices", "mlp"])
    def test_reference_holds_the_values_sent(self, monkeypatch, over):
        """After every ``prepare_round`` of a jwins run, each member's
        reference at the indices it shares is bitwise the float32 value its
        update carries: what a neighbour received, not a wider copy."""
        checked = []

        def prepare(group, round_no, cfg, real=sim.prepare_round):
            updates = real(group, round_no, cfg)
            for ref, update in zip(group.ref, updates, strict=True):
                assert ref.dtype == update.values.dtype == np.float32
                assert ref[update.indices].tobytes() == update.values.tobytes()
                checked.append(update.k)
            return updates

        monkeypatch.setattr(sim, "prepare_round", prepare)
        cfg = _tiny(**over)
        run(cfg)
        assert len(checked) == cfg.rounds * cfg.n and min(checked) > 0

    @pytest.mark.parametrize("width", [np.float32, np.float64], ids=["float32", "float64"])
    def test_public_copy_moves_by_the_values_sent(self, monkeypatch, width):
        """After every ``prepare_round`` of a Choco run, each member's public
        copy at the indices it shares is its old value plus the float32
        values its update carries, summed in float64 and stored in the
        copy's dtype, and is unchanged elsewhere. Next to a float64 model
        (its parameters swapped in after the runtime is built) the residual
        the node selects is float64 and the values on the wire are not."""
        checked = []

        def build(cfg, real=sim.build_runtime):
            rt = real(cfg)
            for group in rt.groups:
                group.model = group.model.on(group.model.theta.astype(width))
                for row, state in enumerate(group.states):
                    state.model = state.model.on(group.model.theta[row])
            return rt

        def prepare(group, round_no, cfg, real=sim.prepare_round):
            if group.choco_hat is None:
                before = np.zeros_like(group.model.theta)
            else:
                before = group.choco_hat.copy()
            updates = real(group, round_no, cfg)
            for hat, old, update in zip(group.choco_hat, before, updates, strict=True):
                assert hat.dtype == width and update.values.dtype == np.float32
                want = old.copy()
                want[update.indices] = old[update.indices].astype(np.float64) + update.values
                assert hat.tobytes() == want.tobytes()
                checked.append(update.k)
            return updates

        monkeypatch.setattr(sim, "build_runtime", build)
        monkeypatch.setattr(sim, "prepare_round", prepare)
        cfg = _tiny(algo="choco")
        run(cfg)
        assert len(checked) == cfg.rounds * cfg.n and min(checked) > 0


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TestGolden:
    """Exact output bytes, pinned as SHA-256 16-hex prefixes.

    Metrics and probe files are hashed below their comment lines, so a new
    config field (which moves the provenance line) leaves these alone. A
    change that moves these bits on purpose re-baselines the hashes in one
    commit and records the old and new values in CHANGES.md. Test ids are
    fixed strings: each is the case's first id, whose suffix is the hash the
    case was first pinned at, not the one it checks now. A re-baseline
    changes ``want`` only and so keeps every test's name.
    """

    @pytest.mark.parametrize("over, want", [
        ({"algo": "jwins"}, "e0f4f41536086f5a"),
        ({"algo": "full"}, "7f0ab8663e7a2562"),
        ({"algo": "random"}, "3f32007aa5fd708c"),
        ({"algo": "choco"}, "30e16fb213616915"),
        ({"algo": "jwins", "topology": {"dynamic": True}}, "e194aeb94b043289"),
        ({"ablations": {"wavelet_on": False}}, "d9f4f4d06b2728cf"),
        ({"ablations": {"accumulation_on": False}}, "45c6fb20b7007ac9"),
        ({"ablations": {"random_cutoff_on": False}}, "0487f8635b4a29a2"),
        ({"ablations": {"metadata_compression_on": False}}, "1786ab956050fa5b"),
        # The MLP path. Every node holds 10 samples, so batch 8 draws without
        # replacement and batch 16 with replacement.
        ({"model": {"kind": "mlp", "hidden": 16}}, "2ae7aa84230e160b"),
        ({"model": {"kind": "mlp", "hidden": 16}, "sgd": {"batch_size": 16}},
         "c1f28de9af9ef817"),
    ], ids=["over0-dd508bae82da03fd", "over1-1fd5a1965fb6665c", "over2-b11c2cb93af38db1",
            "over3-f89a03122d6f66bd", "over4-4ac674db1de3ccd6", "over5-17fcaf17e9fa2ee1",
            "over6-99a6067c61dd24a7", "over7-732af7cc86ef523a", "over8-528261bee10e70b9",
            "over9-3933e45fdb8a8a5f", "over10-3d564887653b9a97"])
    def test_metrics_body(self, tmp_path, over, want):
        path = tmp_path / "metrics.csv"
        run(_tiny(**over), out_path=path)
        head, body = path.read_bytes().split(b"\n", 1)
        assert head.startswith(b"# config: ")
        assert _digest(body) == want

    @pytest.mark.parametrize("name, want", [
        ("jwins-wide", "89e269535456e791"),
        ("jwins-many", "02106dcaac8b45e5"),
        ("random-wide", "0afb9835da874a10"),
    ], ids=["jwins-wide-d41828a559704200", "jwins-many-8543beef5c2c709a",
            "random-wide-22ab54b984721213"])
    def test_benchmark_workload_body(self, tmp_path, name, want):
        """The benchmark's workloads at seed 1, built by its own
        ``perfbench/workloads.py``, which is only read."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        # Registered while it runs, for its dataclass.
        sys.modules[spec.name] = workloads
        try:
            spec.loader.exec_module(workloads)
        finally:
            del sys.modules[spec.name]
        path = tmp_path / "metrics.csv"
        run(config_from_dict(workloads.config_dict(workloads.WORKLOADS[name], 1)), out_path=path)
        assert _digest(path.read_bytes().split(b"\n", 1)[1]) == want

    @pytest.mark.parametrize("algo, want", [
        ("jwins", "380a3a571ee6dd40"),
        ("full", "fe56de4db2723023"),
        ("random", "41f4108533376e88"),
        ("choco", "47474f68a6b57e84"),
    ], ids=["jwins-a2c0e7cd0326ec98", "full-306169379578b073", "random-9f2e85d2b4d20a37",
            "choco-3e1e095ab440cc24"])
    def test_message_dump(self, tmp_path, algo, want):
        path = tmp_path / "dump.bin"
        run(_tiny(algo=algo, rounds=3, message_dump=str(path)))
        assert _digest(path.read_bytes()) == want

    def test_probe_body(self, tmp_path):
        path = tmp_path / "probe.csv"
        reconstruction_probe(_tiny(n=1, rounds=5, eval_every=5), 0.1, out_path=path)
        config, budget, body = path.read_bytes().split(b"\n", 2)
        assert config.startswith(b"# config: ") and budget == b"# budget: 0.1"
        assert _digest(body) == "7f7116f50dead956"


class TestMessageDump:
    def test_every_broadcast_recorded(self, tmp_path):
        dump = tmp_path / "msgs.bin"
        cfg = _tiny(rounds=3, message_dump=str(dump))
        run(cfg)
        updates = codec.read_message_dump(dump)
        assert len(updates) == 3 * cfg.n
        for t in range(3):
            batch = updates[t * cfg.n:(t + 1) * cfg.n]
            assert [u.sender for u in batch] == list(range(cfg.n))
            assert all(u.round_no == t for u in batch)

    def test_dump_bytes_match_accounting(self, tmp_path):
        dump = tmp_path / "msgs.bin"
        cfg = _tiny(rounds=2, eval_every=2, message_dump=str(dump))
        rows = run(cfg)
        updates = codec.read_message_dump(dump)
        per_node = {}
        for u in updates:
            per_node[u.sender] = per_node.get(u.sender, 0) + u.byte_size
        for r in rows:
            if r[1] != "AGG":
                assert r[4] == per_node[int(r[1])] * cfg.topology.d


class TestProbe:
    def test_full_budget_reconstructs_exactly(self):
        cfg = _tiny(n=1, rounds=5, topology={"d": 4})
        rows = reconstruction_probe(cfg, budget=1.0)
        assert len(rows) == 5
        for _, mse_w, mse_r, _, _ in rows:
            assert mse_w < 1e-16
            assert mse_r == 0.0

    def test_frozen_model_has_zero_error(self):
        cfg = _tiny(n=1, rounds=4, sgd={"eta": 0.0})
        for _, mse_w, mse_r, cum_w, cum_r in reconstruction_probe(cfg, 0.1):
            assert mse_w < 1e-20 and mse_r < 1e-20

    def test_cumulative_columns_are_running_sums(self):
        cfg = _tiny(n=1, rounds=6)
        rows = reconstruction_probe(cfg, 0.1)
        cum_w = cum_r = 0.0
        for _, mse_w, mse_r, cw, cr in rows:
            cum_w += mse_w
            cum_r += mse_r
            assert cw == pytest.approx(cum_w, rel=1e-12)
            assert cr == pytest.approx(cum_r, rel=1e-12)

    def test_wavelet_ablation_ranks_raw_parameters(self):
        """With the wavelet ablated the probe ranks and refreshes raw
        parameters, as a jwins node does: its rows equal a hand-run of the
        probe in parameter space, and differ from the wavelet rows."""
        cfg = _tiny(n=1, rounds=5, ablations={"wavelet_on": False})
        rows = reconstruction_probe(cfg, 0.1)
        assert rows != reconstruction_probe(_tiny(n=1, rounds=5), 0.1)
        rt = sim.build_runtime(cfg)
        state = rt.states[0]
        x_prev = state.model.get_flat().astype(np.float64)
        recon_w, recon_r = x_prev.copy(), x_prev.copy()
        scores = np.zeros(x_prev.size)
        want = []
        cum_w = cum_r = 0.0
        for t in range(cfg.rounds):
            rt.groups[0].train(cfg.sgd)
            x = state.model.get_flat().astype(np.float64)
            scores += x - x_prev
            idx = top_indices(scores, selection_size(0.1, x.size))
            recon_w[idx] = x[idx]
            scores[idx] = 0.0
            seed = int(state.rng_misc.integers(0, 2**64, dtype=np.uint64))
            ridx = random_indices(x.size, selection_size(0.1, x.size), seed)
            recon_r[ridx] = x[ridx]
            mse_w = float(np.mean((x - recon_w) ** 2))
            mse_r = float(np.mean((x - recon_r) ** 2))
            cum_w += mse_w
            cum_r += mse_r
            want.append((t + 1, mse_w, mse_r, cum_w, cum_r))
            x_prev = x
        assert rows == want

    def test_requires_single_node(self):
        with pytest.raises(ConfigError, match="single node"):
            reconstruction_probe(_tiny(), 0.1)

    def test_budget_range_checked(self):
        cfg = _tiny(n=1)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigError, match="budget"):
                reconstruction_probe(cfg, bad)

    def test_csv_output(self, tmp_path):
        path = tmp_path / "probe.csv"
        reconstruction_probe(_tiny(n=1, rounds=3), 0.2, out_path=path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "# budget: 0.2"
        assert lines[2] == PROBE_HEADER
        assert len(lines) == 6


class TestCompare:
    def _write(self, path, algo, accs, byte_step):
        cfg = config_from_dict({"algo": algo, "n": 2, "topology": {"d": 1}})
        rows = []
        for i, acc in enumerate(accs, start=1):
            for node in ("0", "1"):
                rows.append((i, node, 1.0 - acc, acc, i * byte_step, 0, 1.0))
            rows.append((i, "AGG", 1.0 - acc, acc, float(i * byte_step), 0.0, 1.0))
        write_metrics(path, cfg, rows)

    def test_savings_against_first_file(self, tmp_path):
        base = tmp_path / "full.csv"
        cheap = tmp_path / "sparse.csv"
        self._write(base, "full", [0.5, 0.9], byte_step=1000)
        self._write(cheap, "jwins", [0.5, 0.8], byte_step=400)
        text = compare([str(base), str(cheap)])
        lines = text.splitlines()
        assert len(lines) == 3
        assert "full" in lines[1] and "0.0%" in lines[1]
        assert "jwins" in lines[2] and "60.0%" in lines[2]

    def test_target_accuracy_columns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self._write(a, "full", [0.3, 0.7, 0.9], byte_step=100)
        self._write(b, "random", [0.2, 0.4, 0.6], byte_step=100)
        text = compare([str(a), str(b)], target_acc=0.65)
        lines = text.splitlines()
        assert "2" in lines[1].split()[-2]  # reached 0.65 at round 2
        assert "never" in lines[2]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="nothing to compare"):
            compare([])

    def test_missing_agg_rejected(self, tmp_path):
        path = tmp_path / "no_agg.csv"
        cfg = config_from_dict({})
        write_metrics(path, cfg, [(1, "0", 0.5, 0.5, 10, 0, 1.0)])
        with pytest.raises(ValueError, match="no AGG rows"):
            compare([str(path)])


def _write_cfg(tmp_path, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    return str(path)


_CLI_YAML = """
algo: jwins
n: 4
rounds: 4
eval_every: 2
topology: {d: 2}
data: {classes: 3, dims: 6, per_class: 8, test_per_class: 4}
sgd: {eta: 0.05, tau: 1, batch_size: 8}
"""


class TestCli:
    def test_run_writes_csv(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, _CLI_YAML)
        out = tmp_path / "m.csv"
        rc = cli.main(["run", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1] == METRICS_HEADER
        stdout = capsys.readouterr().out
        assert "mean acc" in stdout and str(out) in stdout

    def test_run_overrides(self, tmp_path):
        cfg = _write_cfg(tmp_path, _CLI_YAML)
        out = tmp_path / "m.csv"
        rc = cli.main(["run", "--config", cfg, "--algo", "full",
                       "--rounds", "2", "--seed", "99", "--out", str(out)])
        assert rc == 0
        config, rows = read_metrics(out)
        assert config["algo"] == "full"
        assert config["seed"] == 99
        assert max(r["round"] for r in rows) == 2

    def test_run_bad_override_fails_cleanly(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, _CLI_YAML)
        rc = cli.main(["run", "--config", cfg, "--rounds", "0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "nope.yaml")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_reports_reason(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "algo: warp\n")
        rc = cli.main(["run", "--config", cfg])
        assert rc == 1
        assert "unknown algorithm" in capsys.readouterr().err

    def test_malformed_yaml_reports_one_line(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "algo: [jwins\nn: 4\n")
        rc = cli.main(["run", "--config", cfg])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed YAML") and err.count("\n") == 1

    def test_probe_command(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, """
n: 1
rounds: 3
data: {classes: 3, dims: 6, per_class: 8, test_per_class: 4}
sgd: {eta: 0.05, tau: 1, batch_size: 8}
""")
        out = tmp_path / "probe.csv"
        rc = cli.main(["probe", "--config", cfg, "--budget", "0.2",
                       "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[2] == PROBE_HEADER
        assert "cum mse wavelet" in capsys.readouterr().out

    def test_probe_rejects_multi_node(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, _CLI_YAML)
        rc = cli.main(["probe", "--config", cfg])
        assert rc == 1
        assert "single node" in capsys.readouterr().err

    def test_compare_command(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, _CLI_YAML)
        outs = []
        for algo in ("full", "jwins"):
            out = tmp_path / ("%s.csv" % algo)
            assert cli.main(["run", "--config", cfg, "--algo", algo,
                             "--out", str(out)]) == 0
            outs.append(str(out))
        capsys.readouterr()
        rc = cli.main(["compare", *outs, "--target-acc", "0.5"])
        assert rc == 0
        table = capsys.readouterr().out
        assert "full" in table and "jwins" in table and "savings" in table

    def test_compare_missing_file(self, tmp_path, capsys):
        rc = cli.main(["compare", str(tmp_path / "ghost.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
