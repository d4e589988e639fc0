"""Random regular communication graphs and their gossip mixing weights.

Graphs come from the configuration model: pair up n*d stubs uniformly at
random and start over whenever the pairing produces a self-loop, a parallel
edge, or a disconnected graph. A full restart keeps the distribution uniform
over simple connected d-regular graphs. The complete graph, the only
(n-1)-regular one, is built without a draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ATTEMPTS = 10_000
_SEED_MASK = 2**64 - 1


@dataclass(eq=False)
class Topology:
    """Undirected graph as per-node sorted neighbor arrays."""

    n: int
    d: int
    neighbors: tuple[np.ndarray, ...]
    seed: int


@dataclass(eq=False)
class MixingWeights:
    """Symmetric doubly-stochastic gossip weights aligned with a topology.

    ``edge_weights[i][k]`` is the weight for ``neighbors[i][k]``;
    ``self_weight[i]`` absorbs whatever keeps row i summing to one.
    """

    n: int
    neighbors: tuple[np.ndarray, ...]
    edge_weights: tuple[np.ndarray, ...]
    self_weight: np.ndarray

    def weight(self, i: int, j: int) -> float:
        """Weight node i assigns to neighbor j; KeyError when not adjacent."""
        if i == j:
            return float(self.self_weight[i])
        nb = self.neighbors[i]
        pos = int(np.searchsorted(nb, j))
        if pos >= nb.size or nb[pos] != j:
            raise KeyError("nodes %d and %d are not adjacent" % (i, j))
        return float(self.edge_weights[i][pos])

    def dense(self) -> np.ndarray:
        """Full n-by-n matrix, mostly for tests and small diagnostics."""
        W = np.zeros((self.n, self.n))
        for i in range(self.n):
            W[i, self.neighbors[i]] = self.edge_weights[i]
            W[i, i] = self.self_weight[i]
        return W


def _pairing_attempt(rng: np.random.Generator, n: int, d: int) -> np.ndarray | None:
    """One shuffle of the n*d stubs, paired in order. Returns the sorted
    (n, d) neighbor matrix, or None when the pairing has a self-loop or a
    repeated pair."""
    stubs = np.repeat(np.arange(n), d)
    rng.shuffle(stubs)
    a, b = stubs.reshape(-1, 2).T
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    if np.any(lo == hi):
        return None
    # Each unordered pair as one key; sorted, a repeat sits next to its twin.
    keys = np.sort(lo * n + hi)
    if np.any(keys[1:] == keys[:-1]):
        return None
    # Every node has d stubs, so sorting the directed edges by (node,
    # neighbor) leaves node i's neighbors, ascending, in row i.
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    return dst[np.lexsort((dst, src))].reshape(n, d)


def _connected(adj: np.ndarray) -> bool:
    """Breadth-first search from node 0 over the (n, d) neighbor matrix."""
    seen = np.zeros(len(adj), dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        fresh = np.zeros(len(adj), dtype=bool)
        fresh[adj[frontier]] = True
        fresh &= ~seen
        seen |= fresh
        frontier = np.flatnonzero(fresh)
    return bool(seen.all())


def generate_regular(n: int, d: int, seed: int) -> Topology:
    """Sample a simple connected d-regular graph on n nodes.

    Requires 0 < d < n and n * d even. At d = n - 1 the complete graph is
    the only such graph, and it is built without a draw. Otherwise gives up
    with RuntimeError ("generation stalled") after 10000 rejected pairings,
    which happens from d = 6 on: (n, d) = (8, 6), (9, 6), (10, 7) and
    (10, 8) stall on seeds 0-2, and n=10 stalls on 16 of seeds 0-19 at d=6.
    ROADMAP.md's open item on regular graphs asks for a sampler that does
    not.
    """
    if not 0 < d < n:
        raise ValueError("degree must satisfy 0 < d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if d == n - 1:
        # Row i is every node but i, ascending, as a pairing would sort it.
        others = np.broadcast_to(np.arange(n), (n, n))[~np.eye(n, dtype=bool)]
        return Topology(n, d, tuple(others.reshape(n, d)), int(seed))
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        adj = _pairing_attempt(rng, n, d)
        if adj is not None and _connected(adj):
            return Topology(n, d, tuple(adj), int(seed))
    raise RuntimeError("generation stalled")


def metropolis_hastings(topo: Topology) -> MixingWeights:
    """Metropolis-Hastings weights: w_ij = 1 / (1 + max(deg_i, deg_j)).

    Symmetric and doubly stochastic for any graph; on a d-regular graph every
    edge gets 1 / (d + 1).
    """
    degs = np.array([nb.size for nb in topo.neighbors])
    edge_weights = []
    self_weight = np.empty(topo.n)
    for i, nb in enumerate(topo.neighbors):
        w = 1.0 / (1.0 + np.maximum(degs[i], degs[nb]))
        edge_weights.append(w)
        self_weight[i] = 1.0 - w.sum()
    return MixingWeights(topo.n, topo.neighbors, tuple(edge_weights), self_weight)


def seed_sequence(seed: int, *tags: int) -> np.random.SeedSequence:
    """Independent stream named by ``tags`` under a run seed; stable across
    platforms. The seed is masked to 64 bits."""
    return np.random.SeedSequence([int(seed) & _SEED_MASK, *tags])


def derived_seed(seed: int, *tags: int) -> int:
    """First u64 of ``seed_sequence(seed, *tags)``, for APIs that take an int."""
    return int(seed_sequence(seed, *tags).generate_state(1, np.uint64)[0])


def round_seed(run_seed: int, round_no: int) -> int:
    """Derived seed for one round's topology draw."""
    return derived_seed(run_seed, int(round_no))


def reshuffle(n: int, d: int, round_no: int, run_seed: int) -> Topology:
    """Round ``round_no``'s graph of a dynamic topology."""
    return generate_regular(n, d, round_seed(run_seed, round_no))

