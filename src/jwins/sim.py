"""Round-synchronous simulator, metrics CSV, probe, and run comparison.

One process simulates every node. A round has two phases separated by a
barrier: all nodes prepare (train locally, build their outgoing update),
then all nodes finalize (average the updates that reached them). Every
update crosses a real serialize/deserialize boundary, so traffic accounting
is byte-exact and the codec is exercised on every message.

Every node's parameters are the first P columns of its row of a single
(n, C) matrix, C being the length of the shared vector, and both phases work
on groups of consecutive nodes (``node.NodeGroup``): each group trains as
one stack, keeps its members' protocol memory as stacks, and for jwins
transforms, gamma-encodes and inverts its members' rows in one call each;
between the phases those rows hold the coefficients. Small models are
grouped up to about ``POOL_MIN_PARAMS`` parameters a group, so many small
nodes cost a few stacked calls instead of one short call each; a model of
that size or more is a group of its own. Decoding runs per message and
evaluation per node. The parameter matrix and the features are float32, so
nodes train and evaluate in float32, as the wire carries values, and the
protocol memory a group keeps takes the same dtype; the wavelet transforms,
averaging and Choco's products compute in float64.

With ``workers`` above 1 a thread pool maps the groups of both phases, the
decoding of each round's messages and the evaluations; numpy and BLAS
release the GIL, so wide models use more than one CPU. Left unset, the
worker count comes from the machine, the model and the algorithm
(``pool_size``).

Determinism: the run seed fans out through named SeedSequence spawns (model
init, partition, data, topology, and three per-node streams), so a config
reproduces its metrics file byte for byte, regardless of worker count.
"""

from __future__ import annotations

import functools
import json
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np
import yaml

from . import codec
from .graph import (
    Topology,
    derived_seed,
    generate_regular,
    metropolis_hastings,
    reshuffle,
    seed_sequence,
)
from .learner import (
    Dataset,
    SGDConfig,
    evaluate,
    load_idx,
    make_model,
    shard_partition,
    synth_blobs,
)
from .node import (
    Ablations,
    Algo,
    NodeGroup,
    NodeState,
    finalize_group,
    prepare_round,
)
from .sparsify import (
    DEFAULT_ALPHA_SUPPORT,
    AlphaDistribution,
    random_indices,
    select_drift,
    selection_size,
)
from .wavelet import coeff_length, dwt, idwt

METRICS_HEADER = "round,node,test_loss,test_acc,bytes_cum,bytes_meta_cum,alpha"
PROBE_HEADER = "round,mse_wavelet,mse_random,cum_mse_wavelet,cum_mse_random"

# Tags for deriving independent seed streams from the run seed.
_TAG_MODEL = 0
_TAG_PARTITION = 1
_TAG_DATA = 2
_TAG_TOPOLOGY = 4
_TAG_NODE_DATA = 5
_TAG_NODE_ALPHA = 6
_TAG_NODE_MISC = 7

# Parameter count from which an unset ``workers`` uses every usable CPU. Below
# it a node's share of a round is too short to win back the pool's hand-offs
# (README has the measured break-even table). It also sizes the training
# groups: ``max(1, POOL_MIN_PARAMS // P)`` nodes of P parameters each.
POOL_MIN_PARAMS = 2**15


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class TopologyCfg:
    d: int = 4
    dynamic: bool = False
    seed: int | None = None


@dataclass
class ModelCfg:
    kind: str = "logreg"
    hidden: int = 64
    # Std of the logreg init; the mlp ignores it (He initialization).
    init_scale: float = 0.01


@dataclass
class DataCfg:
    kind: str = "synthetic"
    classes: int = 10
    dims: int = 32
    per_class: int = 100
    test_per_class: int = 50
    mean_scale: float = 1.0
    noise_scale: float = 1.0
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None


@dataclass
class PartitionCfg:
    shards_per_node: int = 2


@dataclass
class ChocoCfg:
    gamma: float = 0.6
    alpha: float = 0.2


@dataclass
class RunConfig:
    algo: str = "jwins"
    n: int = 16
    seed: int = 1234
    rounds: int = 200
    eval_every: int = 10
    workers: int | None = None
    random_alpha: float = 0.37
    wavelet_levels: int = 4
    message_dump: str | None = None
    topology: TopologyCfg = field(default_factory=TopologyCfg)
    model: ModelCfg = field(default_factory=ModelCfg)
    data: DataCfg = field(default_factory=DataCfg)
    partition: PartitionCfg = field(default_factory=PartitionCfg)
    sgd: SGDConfig = field(default_factory=SGDConfig)
    alpha: AlphaDistribution = field(default_factory=AlphaDistribution)
    choco: ChocoCfg = field(default_factory=ChocoCfg)
    ablations: Ablations = field(default_factory=Ablations)

    def resolved(self) -> dict:
        """Plain dict with every default filled in, for provenance echoes."""
        return asdict(self)

    @property
    def shared_levels(self) -> int:
        """Wavelet level count of the shared domain: ``wavelet_levels`` for
        jwins, 0 (parameter space) when the wavelet is ablated and for every
        other algorithm."""
        wavelet = self.algo == Algo.JWINS and self.ablations.wavelet_on
        return self.wavelet_levels if wavelet else 0


@functools.cache
def _hints(cls) -> dict:
    """Field annotations of a config class, the config's only schema."""
    return typing.get_type_hints(cls)


# Each scalar field type, the value types it takes and how an error names
# it. YAML hands over whatever scalar it parsed, and bool is a subclass of int,
# so a bool is only taken by a bool field.
_SCALAR_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "a boolean"),
    str: ((str,), "a string"),
}


def _check_types(obj, prefix: str) -> None:
    """Reject a field of ``obj`` whose value does not fit its annotation, in
    every section too; an ``X | None`` field also takes None."""
    for key, hint in _hints(type(obj)).items():
        value = getattr(obj, key)
        if is_dataclass(hint):
            if not isinstance(value, hint):
                raise ConfigError("config section %r must be a %s, got %r"
                                  % (prefix + key, hint.__name__, value))
            _check_types(value, prefix + key + ".")
            continue
        options = typing.get_args(hint)
        if type(None) in options:
            if value is None:
                continue
            hint = options[0]
        if hint not in _SCALAR_TYPES:
            continue
        allowed, what = _SCALAR_TYPES[hint]
        if isinstance(value, bool) != (hint is bool) or not isinstance(value, allowed):
            raise ConfigError("%s%s must be %s, got %r" % (prefix, key, what, value))


def _build(cls, raw: dict, where: str):
    """A ``cls`` from a raw mapping. A field annotated with a dataclass is a
    section, built from its own mapping; values are checked in ``_validate``."""
    hints = _hints(cls)
    kwargs = {}
    for key, value in raw.items():
        if key not in hints:
            raise ConfigError("unknown config key %r%s" % (key, where and " in " + where))
        hint = hints[key]
        if is_dataclass(hint):
            if not isinstance(value, dict):
                raise ConfigError("config section %r must be a mapping" % key)
            value = _build_alpha(value) if hint is AlphaDistribution else _build(hint, value, key)
        kwargs[key] = value
    return cls(**kwargs)


def _build_alpha(raw: dict) -> AlphaDistribution:
    """The cut-off distribution of an ``alpha`` section; ``probs`` defaults
    to uniform over ``support``."""
    lists = {}
    allowed, _ = _SCALAR_TYPES[float]
    for key, value in raw.items():
        if key not in ("support", "probs"):
            raise ConfigError("unknown config key %r in alpha" % key)
        if not isinstance(value, (list, tuple)) or any(
                isinstance(v, bool) or not isinstance(v, allowed) for v in value):
            raise ConfigError("alpha.%s must be a list of numbers, got %r" % (key, value))
        lists[key] = tuple(float(v) for v in value)
    support = lists.get("support", DEFAULT_ALPHA_SUPPORT)
    try:
        if "probs" in lists:
            return AlphaDistribution(support, lists["probs"])
        return AlphaDistribution.uniform(support)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a raw mapping (e.g. parsed YAML) into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    cfg = _build(RunConfig, raw, "")
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    _check_types(cfg, "")
    if cfg.algo not in [a.value for a in Algo]:
        raise ConfigError("unknown algorithm %r" % cfg.algo)
    if cfg.n < 1:
        raise ConfigError("need at least one node")
    if cfg.rounds < 1:
        raise ConfigError("need at least one round")
    if cfg.eval_every < 1:
        raise ConfigError("eval_every must be positive")
    if cfg.workers is not None and cfg.workers < 1:
        raise ConfigError("workers must be positive")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if cfg.topology.seed is not None and cfg.topology.seed < 0:
        raise ConfigError("topology.seed must be non-negative")
    if cfg.n > 1:
        if not 0 < cfg.topology.d < cfg.n:
            raise ConfigError("degree must satisfy 0 < d < n")
        if (cfg.n * cfg.topology.d) % 2 != 0:
            raise ConfigError("n * d must be even")
        if cfg.topology.d == 1 and cfg.n > 2:
            raise ConfigError("degree 1 connects no more than 2 nodes")
    if cfg.algo == Algo.CHOCO.value and cfg.topology.dynamic:
        # The error-compensation state assumes the neighborhood it was built
        # against; reject the combination up front rather than mid-run.
        raise ConfigError("choco does not support a dynamic topology")
    if cfg.model.kind not in ("logreg", "mlp"):
        raise ConfigError("unknown model kind %r" % cfg.model.kind)
    if cfg.model.kind == "mlp" and cfg.model.hidden < 1:
        raise ConfigError("model.hidden must be positive")
    if cfg.sgd.eta < 0:
        raise ConfigError("step size must be non-negative")
    if cfg.sgd.tau < 1:
        raise ConfigError("need at least one local step per round")
    if cfg.sgd.batch_size < 1:
        raise ConfigError("batch size must be positive")
    if cfg.partition.shards_per_node < 1:
        raise ConfigError("partition.shards_per_node must be positive")
    if cfg.data.kind not in ("synthetic", "idx"):
        raise ConfigError("unknown data kind %r" % cfg.data.kind)
    if cfg.data.kind == "idx":
        for attr in ("train_images", "train_labels", "test_images", "test_labels"):
            if getattr(cfg.data, attr) is None:
                raise ConfigError("idx data needs %s" % attr)
    else:
        d = cfg.data
        if d.classes < 2:
            raise ConfigError("synthetic data needs at least 2 classes")
        for attr in ("dims", "per_class", "test_per_class"):
            if getattr(d, attr) < 1:
                raise ConfigError("data.%s must be positive" % attr)
        # An idx file's sample count is known only once loaded, so for idx
        # data ``shard_partition`` makes this check in ``build_runtime``.
        shards = cfg.n * cfg.partition.shards_per_node
        if cfg.n > 1 and d.classes * d.per_class < shards:
            raise ConfigError("synthetic data has %d training samples, too few to cut %d shards"
                              % (d.classes * d.per_class, shards))
    if not 0.0 < cfg.random_alpha <= 1.0:
        raise ConfigError("random sampling fraction must lie in (0, 1]")
    if not 0.0 <= cfg.choco.gamma <= 1.0:
        raise ConfigError("consensus step size must lie in [0, 1]")
    if not 0.0 < cfg.choco.alpha <= 1.0:
        raise ConfigError("choco sparsity must lie in (0, 1]")
    if cfg.wavelet_levels < 1:
        raise ConfigError("wavelet levels must be >= 1")


def load_config(path, overrides=None) -> RunConfig:
    """Parse and validate a YAML config file; ``overrides`` entries replace
    its top-level keys before validation."""
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError("malformed YAML: %s" % " ".join(str(exc).split())) from exc
    if raw is None:
        raw = {}
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    return config_from_dict(raw)


def _load_data(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    d = cfg.data
    if d.kind == "idx":
        train = load_idx(d.train_images, d.train_labels)
        test = load_idx(d.test_images, d.test_labels)
        if train.num_classes < test.num_classes:
            train.num_classes = test.num_classes
        return train, test
    # One blob draw covers train and test so both share the class means.
    full = synth_blobs(d.classes, d.dims, d.per_class + d.test_per_class,
                       derived_seed(cfg.seed, _TAG_DATA), d.mean_scale, d.noise_scale)
    X = full.features.reshape(d.classes, -1, d.dims)
    y = full.labels.reshape(d.classes, -1)
    train = Dataset(X[:, : d.per_class].reshape(-1, d.dims), y[:, : d.per_class].ravel(),
                    d.classes)
    test = Dataset(X[:, d.per_class :].reshape(-1, d.dims), y[:, d.per_class :].ravel(),
                   d.classes)
    return train, test


@dataclass(eq=False)
class Runtime:
    cfg: RunConfig
    test: Dataset
    states: list
    groups: list
    topology: Topology


def build_runtime(cfg: RunConfig) -> Runtime:
    _validate(cfg)
    train, test = _load_data(cfg)
    mcfg = cfg.model
    features = train.features.shape[1]
    classes = max(train.num_classes, 2)
    init_rng = np.random.default_rng(seed_sequence(cfg.seed, _TAG_MODEL))
    reference = make_model(mcfg.kind, features, classes, hidden=mcfg.hidden,
                           rng=init_rng, init_scale=mcfg.init_scale)
    if cfg.n == 1:
        parts = [np.arange(train.labels.size)]
    else:
        parts = shard_partition(train.labels, cfg.n, cfg.partition.shards_per_node,
                                derived_seed(cfg.seed, _TAG_PARTITION))
    # One parameter row per node, and every node's samples back to back in
    # node order, so that consecutive nodes' rows and samples are contiguous.
    # A row is as long as the shared vector (a jwins transform lengthens
    # it); the models view its first P columns. Filled, not zeroed first:
    # np.zeros would add about 4% to set-up.
    plen = reference.param_count
    params = np.empty((cfg.n, coeff_length(plen, cfg.shared_levels)), np.float32)
    params[:, :plen] = reference.theta
    params[:, plen:] = 0
    order = np.concatenate(parts)
    X = train.features[order].astype(np.float32)
    y = train.labels[order]
    test = Dataset(test.features.astype(np.float32), test.labels, test.num_classes)
    bounds = np.cumsum([0] + [p.size for p in parts]).tolist()
    states = [
        NodeState(
            i, reference.on(params[i, :plen]), cfg,
            X[bounds[i] : bounds[i + 1]], y[bounds[i] : bounds[i + 1]],
            rng_data=np.random.default_rng(seed_sequence(cfg.seed, _TAG_NODE_DATA, i)),
            rng_alpha=np.random.default_rng(seed_sequence(cfg.seed, _TAG_NODE_ALPHA, i)),
            rng_misc=np.random.default_rng(seed_sequence(cfg.seed, _TAG_NODE_MISC, i)),
        )
        for i in range(cfg.n)
    ]
    size = max(1, POOL_MIN_PARAMS // reference.param_count)
    groups = []
    for a in range(0, cfg.n, size):
        b = min(a + size, cfg.n)
        groups.append(NodeGroup(states[a:b], params[a:b],
                                X[bounds[a] : bounds[b]], y[bounds[a] : bounds[b]]))
    topo_seed = cfg.topology.seed
    if topo_seed is None:
        topo_seed = derived_seed(cfg.seed, _TAG_TOPOLOGY)
    if cfg.n == 1:
        topology = Topology(1, 0, (np.empty(0, dtype=np.int64),), topo_seed)
    else:
        topology = generate_regular(cfg.n, cfg.topology.d, topo_seed)
    return Runtime(cfg, test, states, groups, topology)


def pool_size(workers: int | None, n: int, param_count: int, algo: str) -> int:
    """Threads that run a round's per-node work; 1 means no pool.

    An explicit ``workers`` is used as given. Unset, jwins runs serially, and
    for the other algorithms a model of at least ``POOL_MIN_PARAMS``
    parameters gets every usable CPU, up to one per node, while a smaller one
    runs serially. A pooled run's speed follows how much of the second CPU
    the machine's other load leaves free. jwins keeps the serial timing,
    which barely moves, because its wavelet and codec layers are the ones
    timed run against run (README).
    """
    if workers is not None:
        return workers
    if algo == Algo.JWINS.value or param_count < POOL_MIN_PARAMS:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.10g" % float(x)


def run(cfg: RunConfig, out_path=None, return_states=False):
    """Execute a full experiment; returns metric rows, optionally writes CSV.

    Row shape: (round, node_label, test_loss, test_acc, bytes_cum,
    bytes_meta_cum, alpha). After each evaluation the per-node rows are
    followed by an AGG row of column means. With ``return_states`` the final
    per-node states come back too, as (rows, states).
    """
    rt = build_runtime(cfg)
    n = cfg.n
    states = rt.states
    coeff_len = states[0].coeff_len
    topology = rt.topology
    weights = metropolis_hastings(topology)
    bytes_cum = np.zeros(n, dtype=np.int64)
    meta_cum = np.zeros(n, dtype=np.int64)
    rows: list[tuple] = []
    workers = pool_size(cfg.workers, n, states[0].model.param_count, cfg.algo)
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    dump_fh = open(cfg.message_dump, "wb") if cfg.message_dump else None

    def pool_map(fn, items):
        """``fn`` over ``items``, results in item order."""
        if pool is None:
            return [fn(x) for x in items]
        return list(pool.map(fn, items))

    # The seeded index sets the senders built this round, by (seed, entry
    # count, slot count).
    built = {}

    def prepare(group):
        updates = prepare_round(group, t, cfg)
        built.update(((u.seed, u.k, u.index_slots), u.indices)
                     for u in updates if u.index_slots is not None)
        return [codec.serialize(u) for u in updates]

    def decode(blob):
        # Decode once per broadcast message, before the fan-out; receivers
        # share the result. A seeded message takes the set a sender built
        # for the seed, entry count and slot count it carries; any other is
        # built by its first receiver's ``codec.resolve_indices``.
        update = codec.deserialize(blob)
        indices = built.get((update.seed, update.k, coeff_len))
        if indices is not None:
            update.indices, update.index_slots = indices, coeff_len
        return update

    try:
        for t in range(cfg.rounds):
            if cfg.topology.dynamic and n > 1:
                topology = reshuffle(topology, t, rt.topology.seed)
                weights = metropolis_hastings(topology)
            # Each update is serialized as soon as its group has built it:
            # from here on the round holds a message as its wire bytes, the
            # decoded index set and values that view those bytes.
            blobs = [blob for group_blobs in pool_map(prepare, rt.groups)
                     for blob in group_blobs]
            if dump_fh is not None:
                codec.write_message_dump(dump_fh, blobs)
            wire = pool_map(decode, blobs)
            inboxes = [[wire[j] for j in topology.neighbors[i]] for i in range(n)]
            outcomes = [oc for group_outcomes in pool_map(
                lambda g: finalize_group(g, [inboxes[s.node_id] for s in g.states],
                                         weights, t, cfg),
                rt.groups) for oc in group_outcomes]
            # Free the messages before evaluation and the next round's
            # training.
            del blobs, wire, inboxes
            built.clear()
            for i, oc in enumerate(outcomes):
                bytes_cum[i] += oc.bytes_sent
                meta_cum[i] += oc.meta_bytes
            if (t + 1) % cfg.eval_every == 0 or t == cfg.rounds - 1:
                scores = pool_map(lambda s: evaluate(s.model, rt.test.features,
                                                     rt.test.labels), states)
                alphas = [oc.alpha_used for oc in outcomes]
                for i in range(n):
                    rows.append((t + 1, str(i), scores[i][0], scores[i][1],
                                 int(bytes_cum[i]), int(meta_cum[i]), alphas[i]))
                rows.append((t + 1, "AGG",
                             float(np.mean([s[0] for s in scores])),
                             float(np.mean([s[1] for s in scores])),
                             float(bytes_cum.mean()),
                             float(meta_cum.mean()),
                             float(np.mean(alphas))))
    finally:
        if pool is not None:
            pool.shutdown()
        if dump_fh is not None:
            dump_fh.close()
    if out_path is not None:
        write_metrics(out_path, cfg, rows)
    if return_states:
        return rows, states
    return rows


def _write_csv(path, cfg: RunConfig, lines: list[str]) -> None:
    """Write ``lines`` below the run's ``# config:`` provenance line."""
    with open(path, "w") as fh:
        fh.write("\n".join(["# config: " + json.dumps(cfg.resolved(), sort_keys=True)]
                           + lines) + "\n")


def write_metrics(path, cfg: RunConfig, rows) -> None:
    lines = [METRICS_HEADER]
    for row in rows:
        rnd, node, loss, acc, b, m, alpha = row
        lines.append(",".join([str(int(rnd)), node, _fmt(loss), _fmt(acc),
                               _fmt(b), _fmt(m), _fmt(alpha)]))
    _write_csv(path, cfg, lines)


def read_metrics(path) -> tuple[dict | None, list[dict]]:
    """Parse a metrics CSV; returns (config echo or None, row dicts)."""
    config = None
    rows = []
    header_seen = False
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                if line.startswith("# config: "):
                    config = json.loads(line[len("# config: "):])
                continue
            if not header_seen:
                if line != METRICS_HEADER:
                    raise ValueError("schema mismatch in %s" % path)
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise ValueError("schema mismatch in %s" % path)
            rows.append({
                "round": int(parts[0]),
                "node": parts[1],
                "test_loss": float(parts[2]),
                "test_acc": float(parts[3]),
                "bytes_cum": float(parts[4]),
                "bytes_meta_cum": float(parts[5]),
                "alpha": float(parts[6]),
            })
    if not header_seen:
        raise ValueError("schema mismatch in %s" % path)
    return config, rows


def reconstruction_probe(cfg: RunConfig, budget: float, out_path=None) -> list[tuple]:
    """Single-node diagnostic: how well does each sharing rule track the model?

    One node trains normally. Two frozen snapshots chase it, each refreshed
    with the same per-round coefficient budget: one picks the wavelet
    coefficients that drifted most from the snapshot (``select_drift``, with
    the snapshot as the reference), the other picks uniformly random
    parameter slots. The ranking is always jwins's, whatever ``cfg.algo``
    says; with ``ablations.wavelet_on`` off it ranks raw parameters (0
    levels), as a jwins node would. Rows: (round, mse_wavelet, mse_random,
    cum_wavelet, cum_random).
    """
    if cfg.n != 1:
        raise ConfigError("the probe runs on a single node")
    if not 0.0 < budget <= 1.0:
        raise ConfigError("budget must lie in (0, 1]")
    rt = build_runtime(cfg)
    state = rt.states[0]
    levels = cfg.wavelet_levels if cfg.ablations.wavelet_on else 0
    plen = state.model.param_count
    k_rand = selection_size(budget, plen)
    x0 = state.model.get_flat().astype(np.float64)
    recon_coeffs = dwt(x0, levels)
    recon_params = x0.copy()
    cum_w = 0.0
    cum_r = 0.0
    rows = []
    for t in range(cfg.rounds):
        rt.groups[0].train(cfg.sgd)
        x = state.model.get_flat().astype(np.float64)
        select_drift(dwt(x, levels), recon_coeffs, budget)
        approx = idwt(recon_coeffs, plen, levels)
        mse_w = float(np.mean((x - approx) ** 2))
        seed = int(state.rng_misc.integers(0, 2**64, dtype=np.uint64))
        ridx = random_indices(plen, k_rand, seed)
        recon_params[ridx] = x[ridx]
        mse_r = float(np.mean((x - recon_params) ** 2))
        cum_w += mse_w
        cum_r += mse_r
        rows.append((t + 1, mse_w, mse_r, cum_w, cum_r))
    if out_path is not None:
        lines = ["# budget: %.10g" % budget, PROBE_HEADER]
        for row in rows:
            lines.append(",".join([str(row[0])] + ["%.10g" % v for v in row[1:]]))
        _write_csv(out_path, cfg, lines)
    return rows


def compare(paths, target_acc: float | None = None) -> str:
    """Summarize finished runs side by side; first file is the baseline.

    Reports final accuracy and loss, total bytes per node, metadata bytes,
    and traffic savings relative to the baseline. With a target accuracy it
    also reports the first evaluation round where the run's mean accuracy
    reached the target and the bytes spent by then.
    """
    if not paths:
        raise ValueError("nothing to compare")
    summaries = []
    for path in paths:
        config, rows = read_metrics(path)
        agg = [r for r in rows if r["node"] == "AGG"]
        if not agg:
            raise ValueError("no AGG rows in %s" % path)
        final = agg[-1]
        entry = {
            "path": str(path),
            "algo": (config or {}).get("algo", "?"),
            "rounds": final["round"],
            "acc": final["test_acc"],
            "loss": final["test_loss"],
            "bytes": final["bytes_cum"],
            "meta": final["bytes_meta_cum"],
        }
        if target_acc is not None:
            hit = next((r for r in agg if r["test_acc"] >= target_acc), None)
            entry["hit_round"] = hit["round"] if hit else None
            entry["hit_bytes"] = hit["bytes_cum"] if hit else None
        summaries.append(entry)
    base_bytes = summaries[0]["bytes"]
    lines = []
    head = "%-28s %-7s %7s %9s %9s %14s %12s %9s" % (
        "file", "algo", "rounds", "acc", "loss", "bytes/node", "meta/node", "savings")
    if target_acc is not None:
        head += " %11s %14s" % ("hit@%.3g" % target_acc, "bytes@target")
    lines.append(head)
    for s in summaries:
        save = 1.0 - s["bytes"] / base_bytes if base_bytes else 0.0
        line = "%-28s %-7s %7d %9.4f %9.4f %14.0f %12.0f %8.1f%%" % (
            _short(s["path"]), s["algo"], s["rounds"], s["acc"], s["loss"],
            s["bytes"], s["meta"], 100.0 * save)
        if target_acc is not None:
            if s["hit_round"] is None:
                line += " %11s %14s" % ("never", "-")
            else:
                line += " %11d %14.0f" % (s["hit_round"], s["hit_bytes"])
        lines.append(line)
    return "\n".join(lines)


def _short(path: str, limit: int = 28) -> str:
    return path if len(path) <= limit else "..." + path[-(limit - 3):]
