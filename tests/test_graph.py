"""Random regular graph and mixing weight tests."""

from collections import deque

import numpy as np
import pytest

from jwins.graph import (
    MAX_ATTEMPTS,
    Topology,
    derived_seed,
    generate_regular,
    metropolis_hastings,
    reshuffle,
    round_seed,
    seed_sequence,
)


def _reference_generate_regular(n, d, seed):
    """The pairing loop ``generate_regular`` used before its array form: pair
    the shuffled stubs in order, give up on the first self-loop or repeated
    pair, then breadth-first search for connectivity. Returns the neighbor
    lists, or None when every attempt failed."""
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        adj = [set() for _ in range(n)]
        for a, b in stubs.reshape(-1, 2):
            a, b = int(a), int(b)
            if a == b or b in adj[a]:
                adj = None
                break
            adj[a].add(b)
            adj[b].add(a)
        if adj is None:
            continue
        seen = {0}
        queue = deque([0])
        while queue:
            for j in adj[queue.popleft()]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        if len(seen) == n:
            return [sorted(s) for s in adj]
    return None


def _check_regular(topo, n, d):
    assert topo.n == n and topo.d == d
    for i, nb in enumerate(topo.neighbors):
        assert nb.size == d
        assert i not in nb
        assert np.all(np.diff(nb) > 0)
        for j in nb:
            assert i in topo.neighbors[j]


class TestGenerate:
    def test_k5_is_forced(self):
        """n=5, d=4 has exactly one 4-regular graph: the complete graph."""
        topo = generate_regular(5, 4, seed=0)
        for i, nb in enumerate(topo.neighbors):
            np.testing.assert_array_equal(nb, [j for j in range(5) if j != i])

    @pytest.mark.parametrize("n", range(2, 13))
    def test_complete_graph(self, n):
        """d = n - 1 has one simple graph, the complete one: every seed
        builds it, in the sorted int64 rows a pairing gives."""
        for seed in range(3):
            topo = generate_regular(n, n - 1, seed)
            _check_regular(topo, n, n - 1)
            assert topo.seed == seed
            for i, nb in enumerate(topo.neighbors):
                assert nb.dtype == np.int64
                np.testing.assert_array_equal(nb, [j for j in range(n) if j != i])

    def test_96_nodes_degree_4(self):
        topo = generate_regular(96, 4, seed=1)
        _check_regular(topo, 96, 4)

    def test_connected(self):
        for seed in range(5):
            topo = generate_regular(24, 2, seed=seed)
            # d=2 connected means a single cycle: walk it.
            seen = {0}
            prev, cur = None, 0
            while True:
                nxt = [j for j in topo.neighbors[cur] if j != prev]
                prev, cur = cur, int(nxt[0])
                if cur == 0:
                    break
                seen.add(cur)
            assert len(seen) == 24

    def test_deterministic(self):
        a = generate_regular(32, 4, seed=9)
        b = generate_regular(32, 4, seed=9)
        for x, y in zip(a.neighbors, b.neighbors):
            np.testing.assert_array_equal(x, y)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            generate_regular(4, 4, seed=0)  # d >= n
        with pytest.raises(ValueError):
            generate_regular(5, 3, seed=0)  # odd n*d
        with pytest.raises(ValueError):
            generate_regular(3, 0, seed=0)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_reference_loop(self, n):
        """Equal neighbor lists, and equal stalls, over a grid of degrees
        up to 5 and seeds."""
        for d in range(1, min(n, 6)):
            if (n * d) % 2 or (d == 1 and n > 2):
                continue
            for seed in range(8):
                want = _reference_generate_regular(n, d, seed)
                if want is None:
                    with pytest.raises(RuntimeError, match="generation stalled"):
                        generate_regular(n, d, seed)
                    continue
                got = generate_regular(n, d, seed)
                assert [nb.tolist() for nb in got.neighbors] == want, (n, d, seed)

    def test_matches_reference_loop_on_reshuffles(self):
        """The 64-node, degree-4 graphs a dynamic run redraws every round,
        for run seeds 1-3 over 24 rounds (topology seeds derived under tag
        4, as ``sim.build_runtime`` does)."""
        for run_seed in (1, 2, 3):
            base = generate_regular(64, 4, derived_seed(run_seed, 4))
            for r in range(24):
                got = reshuffle(base, r, base.seed)
                want = _reference_generate_regular(64, 4, round_seed(base.seed, r))
                assert [nb.tolist() for nb in got.neighbors] == want, (run_seed, r)

    def test_generation_stalled(self):
        """1-regular on 4 nodes is always two disjoint edges: never connected."""
        with pytest.raises(RuntimeError, match="generation stalled"):
            generate_regular(4, 1, seed=0)


class TestMetropolisHastings:
    def test_regular_graph_weights_exact(self):
        """d = 4 gives every edge and self weight exactly 1/5."""
        topo = generate_regular(20, 4, seed=2)
        w = metropolis_hastings(topo)
        for i in range(20):
            assert np.all(w.edge_weights[i] == 0.2)
            assert w.self_weight[i] == pytest.approx(0.2, abs=1e-15)

    def test_k5_uniform_matrix(self):
        w = metropolis_hastings(generate_regular(5, 4, seed=3)).dense()
        np.testing.assert_allclose(w, np.full((5, 5), 0.2), atol=1e-15)

    def test_path_graph_doubly_stochastic(self):
        """Irregular 3-node path: weights verified by direct summation."""
        topo = Topology(3, 0, (np.array([1]), np.array([0, 2]), np.array([1])), 0)
        w = metropolis_hastings(topo)
        W = w.dense()
        # Edge {0,1}: 1/(1+max(1,2)) = 1/3; ends keep 2/3, middle keeps 1/3.
        np.testing.assert_allclose(W, [[2 / 3, 1 / 3, 0],
                                       [1 / 3, 1 / 3, 1 / 3],
                                       [0, 1 / 3, 2 / 3]], atol=1e-15)
        np.testing.assert_allclose(W.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)

    def test_symmetric_doubly_stochastic_random(self):
        # d capped at 4: the configuration model's rejection rate blows up
        # around d = 6, which the 10^4-attempt budget does not always cover.
        rng = np.random.default_rng(4)
        for n, d_choices in [(16, (2, 4)), (17, (4,)), (25, (2, 4))]:
            for _ in range(4):
                topo = generate_regular(n, int(rng.choice(d_choices)),
                                        seed=int(rng.integers(1e6)))
                W = metropolis_hastings(topo).dense()
                np.testing.assert_allclose(W, W.T, atol=1e-15)
                np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)
                assert np.all(W >= 0)

    def test_mixing_contracts(self):
        """Spectral gap: W drives disagreement down on a connected graph."""
        topo = generate_regular(48, 4, seed=5)
        W = metropolis_hastings(topo).dense()
        dev = np.linalg.norm(W - 1.0 / 48, ord=2)
        assert dev < 1.0

    def test_weight_lookup(self):
        topo = generate_regular(10, 4, seed=6)
        w = metropolis_hastings(topo)
        i = 0
        j = int(topo.neighbors[0][0])
        assert w.weight(i, j) == pytest.approx(0.2)
        assert w.weight(i, i) == pytest.approx(0.2)
        non_neighbor = next(x for x in range(10) if x != i and x not in topo.neighbors[0])
        with pytest.raises(KeyError):
            w.weight(i, non_neighbor)

    def test_isolated_node_identity(self):
        topo = Topology(1, 0, (np.empty(0, dtype=np.int64),), 0)
        w = metropolis_hastings(topo)
        assert w.self_weight[0] == 1.0


class TestReshuffle:
    def test_same_round_same_topology(self):
        base = generate_regular(32, 4, seed=7)
        a = reshuffle(base, 5, run_seed=100)
        b = reshuffle(base, 5, run_seed=100)
        for x, y in zip(a.neighbors, b.neighbors):
            np.testing.assert_array_equal(x, y)

    def test_rounds_differ(self):
        """Across 100 rounds at n=32 essentially every draw is distinct."""
        base = generate_regular(32, 4, seed=8)
        seen = set()
        for r in range(100):
            t = reshuffle(base, r, run_seed=55)
            _check_regular(t, 32, 4)
            seen.add(tuple(tuple(nb) for nb in t.neighbors))
        assert len(seen) >= 99

    def test_round_seed_stable(self):
        assert round_seed(123, 7) == round_seed(123, 7)
        assert round_seed(123, 7) != round_seed(123, 8)
        # Literal values: a change to the derivation moves every metrics CSV.
        assert round_seed(123, 7) == 11002349382382457685
        assert round_seed(2**64 + 5, 3) == round_seed(5, 3) == 8065153966420768690
        assert derived_seed(1234, 2) == 13068095982739784978
        assert derived_seed(7, 5, 3) == 9266463690107369631
        np.testing.assert_array_equal(seed_sequence(7, 6, 1).generate_state(2, np.uint64),
                                      [9305545609454570415, 5100130952736462770])

