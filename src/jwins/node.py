"""Protocol logic for one synchronous gossip round, per group of nodes.

A round has two phases so that every node trains and builds its outgoing
message before anyone averages:

* ``prepare_round`` takes a group of consecutive nodes (``NodeGroup``),
  runs tau local SGD steps for all of them as one stack, then selects what
  each member shares and returns the members' outgoing updates.
* ``finalize_group`` hands each member's inbox of neighbor updates to
  ``finalize_round``, which averages in the shared domain; the averaged
  values become the members' parameters.

Both phases read the run's ``sim.RunConfig``; ``sim`` checks its ranges.

Four algorithms share this skeleton, and each prepares and finalizes per
group: the wavelet protocol, full sharing, seeded random sampling in
parameter space, and a memory-efficient Choco-SGD baseline with error
compensation. A group keeps its members' protocol memory as stacks with one
row per member. The wavelet protocol transforms the group's parameters once
a round and shares the coefficients that drifted most since the node last
shared them (``sparsify.select_drift``), with a randomized cut-off;
averaging the sparse updates needs no score bookkeeping, because the drift
is read off the next round's transform. The other three share parameters.
Selection and averaging stay per node.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from . import codec
from .codec import CodecError, SparseUpdate
from .graph import MixingWeights
from .learner import SGDConfig, local_sgd
from .sparsify import (
    draw_alpha,
    random_indices,
    select_drift,
    selection_size,
    top_indices,
)
from .wavelet import coeff_length, dwt, idwt

if TYPE_CHECKING:
    from .sim import RunConfig

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
    """One node: its id, its parameter row, its local samples, its three RNG
    streams, and ``coeff_len``, the length of the vector it shares. Its
    protocol memory is a row of its group's stacks (``NodeGroup``); a state
    does not refer to its group."""

    def __init__(self, node_id: int, model, cfg: RunConfig,
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
        self.coeff_len = coeff_length(model.param_count, cfg.shared_levels)


@dataclass(eq=False)
class NodeGroup:
    """Consecutive nodes that train, transform and encode as one stack.

    Row g of ``model.theta`` is ``states[g].model.theta``, and ``X``/``y``
    hold the members' local samples back to back, in member order. Row g of
    every other stack belongs to member g too.

    Protocol memory, kept across rounds: for jwins, ``ref`` holds per
    coefficient its value when the member last shared it (the first
    ``prepare_round`` sets it to the transform of the starting parameters);
    for Choco, ``choco_hat`` holds the member's public copy and
    ``choco_agg`` the weighted sum of its neighborhood's. Each takes the
    parameters' dtype, float32 in a run.

    The current round, between the two phases: ``shared`` is the stack in
    the shared domain (x_tau's transform when ``cfg.shared_levels`` > 0,
    x_tau itself otherwise), into whose rows ``finalize_round`` averages; ``sent`` holds Choco's sent
    indices and values per member; ``alphas`` and ``outbound`` hold each
    member's cut-off and update sizes.
    """

    states: list
    model: object
    X: np.ndarray
    y: np.ndarray
    ref: np.ndarray | None = None
    choco_hat: np.ndarray | None = None
    choco_agg: np.ndarray | None = None
    shared: np.ndarray | None = None
    sent: list | None = None
    alphas: list | None = None
    outbound: list | None = None

    @classmethod
    def single(cls, state: NodeState) -> "NodeGroup":
        """The group of one node, over its own parameters and data."""
        return cls([state], state.model.on(state.model.theta[None]), state.X, state.y)

    def train(self, sgd: SGDConfig) -> np.ndarray:
        """Local SGD for every member at once; each draws its batches from
        its own ``rng_data``. Returns each member's last batch loss."""
        return local_sgd(self.model, self.X, self.y, [s.X.shape[0] for s in self.states],
                         sgd, [s.rng_data for s in self.states])


def prepare_round(group: NodeGroup, round_no: int, cfg: RunConfig) -> list[SparseUpdate]:
    """Phase one for a group: local training, then each member's outgoing
    update, in member order.

    Without a transform the shared stack is the model's own, not a copy:
    nothing writes the model until the finalize phase averages into it.
    """
    states = group.states
    theta = group.model.theta
    levels = cfg.shared_levels
    if cfg.algo == Algo.JWINS and (group.ref is None or not cfg.ablations.accumulation_on):
        group.ref = dwt(theta, levels).astype(theta.dtype, copy=False)
    if cfg.algo == Algo.CHOCO and group.choco_hat is None:
        group.choco_hat = np.zeros_like(theta)
        group.choco_agg = np.zeros_like(theta)
    group.train(cfg.sgd)
    shared = dwt(theta, levels).astype(theta.dtype, copy=False) if levels else theta
    senders = [s.node_id for s in states]
    if cfg.algo == Algo.FULL:
        alphas = [1.0] * len(states)
        updates = [codec.make_full_update(round_no, sender, row.astype(np.float32))
                   for sender, row in zip(senders, shared)]
    elif cfg.algo == Algo.RANDOM:
        alphas = [cfg.random_alpha] * len(states)
        k = selection_size(cfg.random_alpha, shared.shape[1])
        updates = []
        for state, row in zip(states, shared):
            seed = int(state.rng_misc.integers(0, 2**64, dtype=np.uint64))
            idx = random_indices(row.size, k, seed)
            updates.append(codec.make_seed_update(round_no, state.node_id, seed, row[idx]))
    else:
        if cfg.algo == Algo.JWINS:
            # The coefficients that drifted most since they were last shared.
            if cfg.ablations.random_cutoff_on:
                alphas = [draw_alpha(cfg.alpha, s.rng_alpha) for s in states]
            else:
                alphas = [cfg.alpha.mean()] * len(states)
            source = shared
            index_sets = [select_drift(row, ref, alpha)
                          for row, ref, alpha in zip(shared, group.ref, alphas)]
            compressed = cfg.ablations.metadata_compression_on
        else:
            # Choco: the largest entries of the residual against the
            # member's public copy, which moves by what was sent.
            alphas = [cfg.choco.alpha] * len(states)
            source = theta - group.choco_hat
            k = selection_size(cfg.choco.alpha, shared.shape[1])
            index_sets = [top_indices(row, k) for row in source]
            compressed = True
        updates = codec.make_indexed_updates(
            round_no, senders, index_sets, [row[idx] for row, idx in zip(source, index_sets)],
            compressed=compressed)
        if cfg.algo == Algo.CHOCO:
            # The public copy moves by the float32 values on the wire.
            group.sent = [(u.indices, u.values) for u in updates]
            for hat, (idx, vals) in zip(group.choco_hat, group.sent):
                hat[idx] += vals
    group.shared = shared
    group.alphas = alphas
    group.outbound = [Outbound.of(u) for u in updates]
    return updates


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
    # float64 whatever the row's width; for a float64 row, w_self * own.
    acc = np.multiply(own, w_self, dtype=np.float64)
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


def finalize_round(state: NodeState, inbox, weights: MixingWeights, round_no: int,
                   cfg: RunConfig, group: NodeGroup, row: int) -> RoundOutcome:
    """Phase two for ``state``, member ``row`` of ``group``: average with the
    inbox into its row of the group's ``shared`` stack. For jwins with the
    wavelet on ``finalize_group`` turns that row into parameters; otherwise
    the row is the parameters."""
    outbound = group.outbound[row] if group.outbound else None
    if outbound is None:
        raise RuntimeError("finalize_round called before prepare_round")
    group.outbound[row] = None
    degree = int(weights.neighbors[state.node_id].size)
    contribs, rejected = _gather_contributions(state, inbox, weights, round_no)
    own = group.shared[row]
    if cfg.algo != Algo.CHOCO:
        # With nothing arrived the row keeps x_tau exactly.
        if contribs:
            own[:] = sparse_average(own, contribs, weights, state.node_id)
    else:
        # The aggregate tracks sum_j w_ij x_hat_j (self included); every
        # broadcast residual q_j advances x_hat_j, so folding w * q_j in
        # keeps it current without storing any neighbor mirror.
        agg = group.choco_agg[row]
        sent, values = group.sent[row]
        agg[sent] += float(weights.self_weight[state.node_id]) * values.astype(np.float64)
        for sender, idx, vals in contribs:
            # A dense update's indices are None, and agg[None] views every slot.
            agg[idx] += weights.weight(state.node_id, sender) * vals.astype(np.float64)
        own += cfg.choco.gamma * (agg - group.choco_hat[row])

    return RoundOutcome(
        outbound=outbound,
        bytes_sent=outbound.byte_size * degree,
        meta_bytes=outbound.meta_bytes * degree,
        alpha_used=float(group.alphas[row]),
        rejected=rejected,
        accepted=len(contribs),
    )


def finalize_group(group: NodeGroup, inboxes, weights: MixingWeights,
                   round_no: int, cfg: RunConfig) -> list[RoundOutcome]:
    """Phase two for a group: each member's ``finalize_round`` with its
    inbox, in member order. For jwins with the wavelet on, then one inverse
    transform of the rows of every member that averaged anything; a member
    that received nothing stays exactly at x_tau."""
    outcomes = [finalize_round(state, inbox, weights, round_no, cfg, group, g)
                for g, (state, inbox) in enumerate(zip(group.states, inboxes, strict=True))]
    shared = group.shared
    group.shared = group.sent = group.alphas = group.outbound = None
    levels = cfg.shared_levels
    if levels:
        rows = [g for g, oc in enumerate(outcomes) if oc.accepted]
        plen = group.model.param_count
        if len(rows) == len(outcomes):
            group.model.theta[:] = idwt(shared, plen, levels)
        elif rows:
            group.model.theta[rows] = idwt(shared[rows], plen, levels)
    return outcomes
