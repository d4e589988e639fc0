"""Per-node protocol logic for one synchronous gossip round.

A round has two phases so that every node trains and builds its outgoing
message before anyone averages:

* ``prepare_round`` takes a group of consecutive nodes (``NodeGroup``),
  runs tau local SGD steps for all of them as one stack, then selects what
  each member shares and returns the members' outgoing updates.
* ``finalize_group`` hands each member's inbox of neighbor updates to
  ``finalize_round``, which averages in the shared domain; the averaged
  values become the members' parameters.

Four algorithms share this skeleton: the wavelet protocol, full sharing,
seeded random sampling in parameter space, and a memory-efficient Choco-SGD
baseline with error compensation. The wavelet protocol transforms the
parameters once a round and shares the coefficients that drifted most since
the node last shared them (``sparsify.select_drift``), with a randomized
cut-off; averaging the sparse updates needs no score bookkeeping, because
the drift is read off the next round's transform. A group runs that
transform, the gamma encode of its members' index sets and the inverse
transform once for all its members; selection and averaging stay per node.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import codec
from .codec import CodecError, SparseUpdate
from .graph import MixingWeights
from .learner import SGDConfig, local_sgd
from .sparsify import (
    AlphaDistribution,
    draw_alpha,
    random_indices,
    select_drift,
    selection_size,
    top_indices,
)
from .wavelet import coeff_length, dwt, idwt

log = logging.getLogger(__name__)


class Algo(str, Enum):
    JWINS = "jwins"
    FULL = "full"
    RANDOM = "random"
    CHOCO = "choco"


@dataclass
class Ablations:
    """Feature switches for the wavelet protocol.

    wavelet_on=False ranks and shares raw parameter deltas: the transform
    runs at 0 levels, which is the identity; accumulation_on=False
    ranks by the change of the current round alone (the reference is the
    round's starting point, not each coefficient's last shared value);
    random_cutoff_on=False pins the cut-off fraction to the distribution
    mean; metadata_compression_on=False ships raw u32 indices instead of
    gamma-coded gaps.
    """

    wavelet_on: bool = True
    accumulation_on: bool = True
    random_cutoff_on: bool = True
    metadata_compression_on: bool = True


@dataclass
class ProtocolConfig:
    """Everything a node needs to run rounds, minus the graph."""

    algo: Algo = Algo.JWINS
    sgd: SGDConfig = field(default_factory=SGDConfig)
    alpha: AlphaDistribution = field(default_factory=AlphaDistribution)
    random_alpha: float = 0.37
    choco_gamma: float = 0.6
    choco_alpha: float = 0.2
    wavelet_levels: int = 4
    ablations: Ablations = field(default_factory=Ablations)

    def __post_init__(self):
        if not 0.0 < self.random_alpha <= 1.0:
            raise ValueError("random sampling fraction must lie in (0, 1]")
        if not 0.0 <= self.choco_gamma <= 1.0:
            raise ValueError("consensus step size must lie in [0, 1]")
        if not 0.0 < self.choco_alpha <= 1.0:
            raise ValueError("choco sparsity must lie in (0, 1]")
        if self.wavelet_levels < 1:
            raise ValueError("wavelet levels must be >= 1")


@dataclass(frozen=True)
class Outbound:
    """Entry count and wire sizes of the update a node sent. A round outcome
    keeps this, not the update, whose arrays are freed once it is
    serialized."""

    k: int
    meta_bytes: int
    byte_size: int

    @classmethod
    def of(cls, update: SparseUpdate) -> "Outbound":
        return cls(update.k, update.meta_bytes, update.byte_size)


@dataclass(eq=False)
class RoundOutcome:
    """What one node did in one round, for metrics and debugging:
    ``accepted`` and ``rejected`` count the inbox's updates it averaged in
    and dropped."""

    outbound: Outbound
    bytes_sent: int
    meta_bytes: int
    alpha_used: float
    rejected: int = 0
    accepted: int = 0


class NodeState:
    """Mutable per-node state: model, data slice, RNG streams, protocol
    memory (the jwins reference coefficients or Choco mirrors), and the
    scratch carried between the two phases of the current round.

    ``levels`` is the wavelet level count of the shared domain: the
    configured count for jwins, 0 (parameter space) when the wavelet is
    ablated and for every other algorithm. ``ref`` holds, per coefficient,
    its value when the node last shared it; the first ``prepare_round`` sets
    it to the transform of the starting parameters.
    """

    def __init__(self, node_id: int, model, cfg: ProtocolConfig,
                 X: np.ndarray, y: np.ndarray,
                 rng_data: np.random.Generator,
                 rng_alpha: np.random.Generator,
                 rng_misc: np.random.Generator):
        self.node_id = node_id
        self.model = model
        self.X = X
        self.y = y
        self.rng_data = rng_data
        self.rng_alpha = rng_alpha
        self.rng_misc = rng_misc
        self.algo = cfg.algo
        plen = model.param_count
        jwins = cfg.algo == Algo.JWINS
        self.levels = cfg.wavelet_levels if jwins and cfg.ablations.wavelet_on else 0
        self.coeff_len = coeff_length(plen, self.levels)
        self.ref = None
        if cfg.algo == Algo.CHOCO:
            self.choco_hat = np.zeros(plen)
            self.choco_agg = np.zeros(plen)
        self._pending = None


@dataclass(eq=False)
class NodeGroup:
    """Consecutive nodes that train, transform and encode as one stack.

    Row g of ``model.theta`` is ``states[g].model.theta``, and ``X``/``y``
    hold the members' local samples back to back, in member order. For
    jwins, ``coeffs`` holds the members' coefficients between the two
    phases of a round, one row each: x_tau's transform after
    ``prepare_round``, and after each member's ``finalize_round`` its
    averaged coefficients, which ``finalize_group`` inverts.
    """

    states: list
    model: object
    X: np.ndarray
    y: np.ndarray
    coeffs: np.ndarray | None = None

    @classmethod
    def single(cls, state: NodeState) -> "NodeGroup":
        """The group of one node, over its own parameters and data."""
        return cls([state], state.model.on(state.model.theta[None]), state.X, state.y)

    def train(self, sgd: SGDConfig) -> np.ndarray:
        """Local SGD for every member at once; each draws its batches from
        its own ``rng_data``. Returns each member's last batch loss."""
        return local_sgd(self.model, self.X, self.y, [s.X.shape[0] for s in self.states],
                         sgd, [s.rng_data for s in self.states])


def prepare_round(group: NodeGroup, round_no: int, cfg: ProtocolConfig) -> list[SparseUpdate]:
    """Phase one for a group: local training, then each member's outgoing
    update, in member order.

    The post-training parameters x_tau are kept as the model's own vector,
    not a copy: nothing writes the model until the finalize phase sets
    x_next.
    """
    if cfg.algo == Algo.JWINS:
        return _prepare_jwins(group, round_no, cfg)
    group.train(cfg.sgd)
    return [_outgoing(state, round_no, cfg) for state in group.states]


def _prepare_jwins(group: NodeGroup, round_no: int, cfg: ProtocolConfig) -> list[SparseUpdate]:
    """The wavelet protocol's phase one: one transform of the group's stack
    after training (and, for a member without a reference, one before it),
    then per member a cut-off and the coefficients that drifted most, and one
    gamma encode of every member's index set."""
    states = group.states
    levels = states[0].levels
    fresh = [s for s in states if s.ref is None or not cfg.ablations.accumulation_on]
    if fresh:
        refs = dwt(np.stack([s.model.theta for s in fresh]), levels)
        for state, ref in zip(fresh, refs):
            state.ref = ref
    group.train(cfg.sgd)
    group.coeffs = dwt(group.model.theta, levels)
    alphas = []
    index_sets = []
    for state, coeffs in zip(states, group.coeffs):
        if cfg.ablations.random_cutoff_on:
            alphas.append(draw_alpha(cfg.alpha, state.rng_alpha))
        else:
            alphas.append(cfg.alpha.mean())
        index_sets.append(select_drift(coeffs, state.ref, alphas[-1]))
    updates = codec.make_indexed_updates(
        round_no, [s.node_id for s in states], index_sets,
        [coeffs[idx].astype(np.float32) for coeffs, idx in zip(group.coeffs, index_sets)],
        compressed=cfg.ablations.metadata_compression_on,
    )
    for state, coeffs, alpha, update in zip(states, group.coeffs, alphas, updates):
        state._pending = (state.model.theta, coeffs, None, alpha, Outbound.of(update))
    return updates


def _outgoing(state: NodeState, round_no: int, cfg: ProtocolConfig) -> SparseUpdate:
    """Select what a trained node of full sharing, random sampling or Choco
    shares and build its update.

    ``_pending`` keeps what ``finalize_round`` reads: x_tau, the node's own
    values in the shared domain, the sent indices (Choco alone reads them),
    the cut-off and the update's sizes; not the update itself.
    """
    x_tau = state.model.theta

    if state.algo == Algo.FULL:
        update = codec.make_full_update(round_no, state.node_id, x_tau.astype(np.float32))
        state._pending = (x_tau, x_tau, None, 1.0, Outbound.of(update))
        return update

    if state.algo == Algo.RANDOM:
        k = selection_size(cfg.random_alpha, state.coeff_len)
        seed = int(state.rng_misc.integers(0, 2**64, dtype=np.uint64))
        idx = random_indices(state.coeff_len, k, seed)
        update = codec.make_seed_update(
            round_no, state.node_id, seed, x_tau[idx].astype(np.float32))
        state._pending = (x_tau, x_tau, None, cfg.random_alpha, Outbound.of(update))
        return update

    if state.algo == Algo.CHOCO:
        residual = x_tau - state.choco_hat
        idx = top_indices(residual, selection_size(cfg.choco_alpha, state.coeff_len))
        vals = residual[idx].astype(np.float32)
        state.choco_hat[idx] += vals.astype(np.float64)
        update = codec.make_indexed_update(round_no, state.node_id, idx, vals)
        state._pending = (x_tau, vals, idx, cfg.choco_alpha, Outbound.of(update))
        return update

    raise ValueError("unknown algorithm %r" % (state.algo,))


def _gather_contributions(state: NodeState, inbox, weights: MixingWeights,
                          round_no: int) -> tuple[list, int]:
    """Validate the inbox and resolve every update to (sender, indices, values).

    Bad messages (wrong round, unknown sender, out-of-range indices) are
    rejected with a log line and the node continues with the rest. A
    duplicate sender is a caller bug and raises.
    """
    contribs = []
    rejected = 0
    seen = set()
    neighbor_set = set(int(j) for j in weights.neighbors[state.node_id])
    for u in sorted(inbox, key=lambda m: m.sender):
        if u.sender in seen:
            raise ValueError("duplicate sender %d in inbox" % u.sender)
        seen.add(u.sender)
        if u.round_no != round_no:
            log.warning("node %d dropped update from %d: round %d != %d",
                        state.node_id, u.sender, u.round_no, round_no)
            rejected += 1
            continue
        if u.sender not in neighbor_set:
            log.warning("node %d dropped update from non-neighbor %d",
                        state.node_id, u.sender)
            rejected += 1
            continue
        try:
            idx = codec.resolve_indices(u, state.coeff_len)
        except CodecError as exc:
            log.warning("node %d dropped update from %d: %s",
                        state.node_id, u.sender, exc)
            rejected += 1
            continue
        contribs.append((u.sender, idx, u.values))
    return contribs, rejected


def sparse_average(own: np.ndarray, contributions, weights: MixingWeights,
                   self_id: int) -> np.ndarray:
    """Weighted average per slot over whoever actually contributed it.

    For slot k with contributor set S(k) (self always includes every slot),
    the result is sum_{j in S(k)} w_ij v_j[k] / sum_{j in S(k)} w_ij. Slots
    nobody else sent keep the node's own value bitwise unchanged.

    ``contributions`` is a list of (sender, indices, values); indices None
    means a dense contribution covering every slot.
    """
    if not contributions:
        return own.copy()
    w_self = float(weights.self_weight[self_id])
    acc = w_self * own
    norm = np.full(own.size, w_self)
    seen = set()
    for sender, idx, values in contributions:
        if sender in seen:
            raise ValueError("duplicate sender %d" % sender)
        seen.add(sender)
        w = weights.weight(self_id, sender)
        # Widen before the product: a float32 times a Python float stays
        # float32.
        wv = np.multiply(values, w, dtype=np.float64)
        if idx is None:
            if wv.size != own.size:
                raise ValueError("dense contribution with wrong length")
            acc += wv
            norm += w
        else:
            # Bitwise equal to fancy-index += for sorted unique indices,
            # and faster.
            np.add.at(acc, idx, wv)
            np.add.at(norm, idx, w)
    # Every slot is divided, then the untouched ones get their own value
    # back: cheaper than a masked divide. With a zero self weight an
    # untouched slot divides 0 by 0 before it is overwritten. A slot is
    # untouched exactly when its norm is still the self weight, because
    # every neighbor weight is positive (Metropolis-Hastings gives at least
    # 1 / n) and so moves the norm of each slot it covers.
    untouched = np.flatnonzero(norm == w_self)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(acc, norm, out=acc)
    acc[untouched] = own[untouched]
    return acc


def finalize_round(state: NodeState, inbox, weights: MixingWeights,
                   round_no: int, cfg: ProtocolConfig) -> RoundOutcome:
    """Phase two for one node: average with the inbox and settle per-round
    state. For jwins the averaged coefficients replace the node's row of its
    group's ``coeffs``, and ``finalize_group`` turns them into parameters."""
    if state._pending is None:
        raise RuntimeError("finalize_round called before prepare_round")
    x_tau, shared, sent, alpha, outbound = state._pending
    state._pending = None
    degree = int(weights.neighbors[state.node_id].size)
    contribs, rejected = _gather_contributions(state, inbox, weights, round_no)

    if state.algo == Algo.JWINS:
        # With nothing arrived the row is not inverted: the parameters stay
        # exactly at the post-training point.
        if contribs:
            shared[:] = sparse_average(shared, contribs, weights, state.node_id)
    elif state.algo in (Algo.FULL, Algo.RANDOM):
        x_next = sparse_average(shared, contribs, weights, state.node_id)
        state.model.set_flat(x_next)
    elif state.algo == Algo.CHOCO:
        # The aggregate tracks sum_j w_ij x_hat_j (self included); every
        # broadcast residual q_j advances x_hat_j, so folding w * q_j in
        # keeps it current without storing any neighbor mirror.
        w_self = float(weights.self_weight[state.node_id])
        if sent.size:
            state.choco_agg[sent] += w_self * shared.astype(np.float64)
        for sender, idx, values in contribs:
            w = weights.weight(state.node_id, sender)
            v = values.astype(np.float64)
            if idx is None:
                state.choco_agg += w * v
            else:
                state.choco_agg[idx] += w * v
        x_next = x_tau + cfg.choco_gamma * (state.choco_agg - state.choco_hat)
        state.model.set_flat(x_next)
    else:
        raise ValueError("unknown algorithm %r" % (state.algo,))

    return RoundOutcome(
        outbound=outbound,
        bytes_sent=outbound.byte_size * degree,
        meta_bytes=outbound.meta_bytes * degree,
        alpha_used=float(alpha),
        rejected=rejected,
        accepted=len(contribs),
    )


def finalize_group(group: NodeGroup, inboxes, weights: MixingWeights,
                   round_no: int, cfg: ProtocolConfig) -> list[RoundOutcome]:
    """Phase two for a group: each member's ``finalize_round`` with its
    inbox, in member order. For jwins, then one inverse transform of the
    coefficient rows of every member that averaged anything."""
    outcomes = [finalize_round(state, inbox, weights, round_no, cfg)
                for state, inbox in zip(group.states, inboxes, strict=True)]
    coeffs, group.coeffs = group.coeffs, None
    if coeffs is not None:
        rows = [g for g, oc in enumerate(outcomes) if oc.accepted]
        plen = group.model.param_count
        levels = group.states[0].levels
        if len(rows) == len(outcomes):
            group.model.theta[:] = idwt(coeffs, plen, levels)
        elif rows:
            group.model.theta[rows] = idwt(coeffs[rows], plen, levels)
    return outcomes
