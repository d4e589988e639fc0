"""Per-node round logic tests.

The sparse averaging rule is pinned with hand-worked examples on tiny
graphs, then the four algorithms are exercised through full synchronous
rounds driven directly (no simulator) to check consensus behavior, byte
accounting, importance bookkeeping, and the documented equivalences.
"""

import numpy as np
import pytest

from jwins import codec
from jwins.graph import generate_regular, metropolis_hastings
from jwins.learner import SGDConfig, make_model, synth_blobs
from jwins.node import (
    Ablations,
    Algo,
    NodeGroup,
    NodeState,
    finalize_group,
    finalize_round,
    prepare_round,
    sparse_average,
)
from jwins.sim import ChocoCfg, RunConfig
from jwins.sparsify import random_indices, selection_size, top_indices
from jwins.wavelet import dwt, idwt


def _triangle_weights():
    """K3 with Metropolis-Hastings: every weight is exactly 1/3."""
    topo = generate_regular(3, 2, seed=0)
    return metropolis_hastings(topo)


def _pair_weights():
    """Two nodes, one edge: w_01 = self weight = 1/2."""
    topo = generate_regular(2, 1, seed=0)
    return metropolis_hastings(topo)


def _make_state(node_id, cfg, num_features=4, classes=2, samples=12,
                data_seed=0, init=None, hidden=None):
    data = synth_blobs(classes, num_features, samples, seed=data_seed + node_id)
    kw = {"hidden": hidden} if hidden else {}
    model = make_model("mlp" if hidden else "logreg", num_features, classes, **kw)
    if init is not None:
        model.set_flat(np.asarray(init, dtype=np.float64))
    return NodeState(
        node_id, model, cfg, data.features, data.labels,
        rng_data=np.random.default_rng([data_seed, node_id, 0]),
        rng_alpha=np.random.default_rng([data_seed, node_id, 1]),
        rng_misc=np.random.default_rng([data_seed, node_id, 2]),
    )


# Each node's group of one, kept across rounds: it holds the node's
# protocol memory. Each node's parameters right after its latest local
# training, x_tau. Both emptied after every test.
_GROUPS = {}
_TRAINED = {}


@pytest.fixture(autouse=True)
def _forget_groups():
    yield
    _GROUPS.clear()
    _TRAINED.clear()


def _recording(group):
    """``group``, recording in ``_TRAINED`` every member's x_tau as it
    trains: between the phases a jwins group's parameter rows hold the
    members' coefficients instead."""
    train = group.train

    def recorded(sgd):
        losses = train(sgd)
        for s in group.states:
            _TRAINED[s] = s.model.get_flat()
        return losses

    group.train = recorded
    return group


def _group(state):
    """The node's group of one."""
    if state not in _GROUPS:
        _GROUPS[state] = _recording(NodeGroup.single(state))
    return _GROUPS[state]


def _rounded_trip(x, levels):
    """Where a jwins node that averages nothing in ends its round from x:
    the inverse transform of x's coefficients rounded to x's dtype."""
    return idwt(dwt(x, levels).astype(x.dtype), x.size, levels).astype(x.dtype)


def _prepare(state, round_no, cfg):
    """Phase one for one node, as the group of one."""
    [update] = prepare_round(_group(state), round_no, cfg)
    return update


def _finalize(state, inbox, weights, round_no, cfg):
    """Phase two for the node's group of one: ``finalize_round``, then, for
    jwins, the inverse transform of its averaged coefficients."""
    [outcome] = finalize_group(_group(state), [inbox], weights, round_no, cfg)
    return outcome


def _sync_round(states, weights, round_no, cfg):
    """Drive one barrier-synchronized round over already-built states."""
    updates = [_prepare(s, round_no, cfg) for s in states]
    outcomes = []
    for s in states:
        inbox = [updates[j] for j in weights.neighbors[s.node_id]]
        outcomes.append(_finalize(s, inbox, weights, round_no, cfg))
    return outcomes


def _reference_sparse_average(own, contributions, weights, self_id):
    """Boolean-mask formulation: the oracle of ``node.sparse_average``."""
    result = own.copy()
    if not contributions:
        return result
    w_self = float(weights.self_weight[self_id])
    acc = w_self * own
    norm = np.full(own.size, w_self)
    touched = np.zeros(own.size, dtype=bool)
    for sender, idx, values in contributions:
        w = weights.weight(self_id, sender)
        v = values.astype(np.float64)
        if idx is None:
            acc += w * v
            norm += w
            touched[:] = True
        else:
            acc[idx] += w * v
            norm[idx] += w
            touched[idx] = True
    result[touched] = acc[touched] / norm[touched]
    return result


def _average(own, contributions, weights, self_id):
    """``node.sparse_average`` over (sender, indices, values) contributions,
    each weighed as ``_gather_contributions`` weighs it."""
    weighed = [(weights.weight(self_id, sender), idx, values)
               for sender, idx, values in contributions]
    return sparse_average(own, weighed, weights.self_weight[self_id])


class TestSparseAverage:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_masked_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        W = metropolis_hastings(generate_regular(10, int(rng.integers(1, 3)) * 2, seed=seed))
        size = int(rng.integers(1, 400))
        own = rng.normal(size=size)
        own[rng.random(size) < 0.2] = -0.0
        contribs = []
        for j in W.neighbors[0]:
            if rng.random() < 0.15:
                idx = None
                vals = rng.normal(size=size).astype(np.float32)
            else:
                idx = np.sort(rng.choice(size, size=int(rng.integers(0, size + 1)),
                                         replace=False))
                vals = rng.normal(size=idx.size).astype(np.float32)
            vals[rng.random(vals.size) < 0.2] = -0.0
            contribs.append((int(j), idx, vals))
        got = _average(own, contribs, W, 0)
        want = _reference_sparse_average(own, contribs, W, 0)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_float32_row_averages_in_float64(self):
        """A float32 parameter row is averaged in float64: the result is
        the average of its widened values, bit for bit."""
        W = _triangle_weights()
        rng = np.random.default_rng(11)
        own = rng.normal(size=50).astype(np.float32)
        contribs = [(1, np.array([0, 4, 9, 30]), rng.normal(size=4).astype(np.float32)),
                    (2, None, rng.normal(size=50).astype(np.float32))]
        got = _average(own, contribs, W, 0)
        assert got.dtype == np.float64
        want = _average(own.astype(np.float64), contribs, W, 0)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_zero_self_weight_matches_reference_without_warning(self):
        """A zero self weight leaves 0/0 in the untouched slots before they
        get the node's own value back; that divide must not warn."""
        W = _triangle_weights()
        W.self_weight = np.zeros(3)
        W.edge_weights = tuple(np.full(2, 0.5) for _ in range(3))
        rng = np.random.default_rng(3)
        own = rng.normal(size=50)
        contribs = [(1, np.array([0, 4, 9, 30]), rng.normal(size=4).astype(np.float32)),
                    (2, np.array([4, 5, 49]), rng.normal(size=3).astype(np.float32))]
        with np.errstate(all="raise"):
            got = _average(own, contribs, W, 0)
        want = _reference_sparse_average(own, contribs, W, 0)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_hand_worked_triangle(self):
        """Per-slot renormalization over who actually sent that slot."""
        W = _triangle_weights()
        own = np.array([0.0, 3.0, 6.0])
        contribs = [
            (1, np.array([0]), np.array([9.0], dtype=np.float32)),
            (2, np.array([0, 2]), np.array([3.0, 3.0], dtype=np.float32)),
        ]
        out = _average(own, contribs, W, 0)
        # Slot 0: all three at weight 1/3 each -> plain mean (0+9+3)/3.
        # Slot 1: nobody else sent it -> own value untouched.
        # Slot 2: self and node 2 -> (6+3)/3 divided by 2/3 = 4.5.
        np.testing.assert_allclose(out, [4.0, 3.0, 4.5], rtol=1e-15)

    def test_untouched_slots_bitwise(self):
        W = _triangle_weights()
        own = np.array([0.1 + 0.2, 1e-300, -0.0])
        out = _average(own, [(1, np.array([1]), np.array([5.0], dtype=np.float32))], W, 0)
        assert out[0] == own[0] and str(out[2]) == str(own[2])

    def test_empty_contributions_copy(self):
        W = _pair_weights()
        own = np.array([1.0, 2.0])
        out = _average(own, [], W, 0)
        np.testing.assert_array_equal(out, own)
        assert out is not own

    def test_dense_two_node_oracle(self):
        W = _pair_weights()
        out = _average(np.array([1.0, 2.0]), [(1, None, np.array([3.0, 4.0]))], W, 0)
        np.testing.assert_allclose(out, [2.0, 3.0], rtol=1e-15)

    def test_dense_equals_full_index_set(self):
        """idx=None and idx=arange(n) follow the same code effect bitwise."""
        rng = np.random.default_rng(1)
        W = _triangle_weights()
        own = rng.normal(size=50)
        vals = rng.normal(size=50).astype(np.float32)
        dense = _average(own, [(1, None, vals)], W, 0)
        indexed = _average(own, [(1, np.arange(50), vals)], W, 0)
        np.testing.assert_array_equal(dense, indexed)

    def test_convex_combination_property(self):
        """Every averaged slot lies inside the hull of its contributors."""
        rng = np.random.default_rng(2)
        W = metropolis_hastings(generate_regular(8, 4, seed=3))
        for _ in range(20):
            own = rng.normal(size=30)
            contribs = []
            lo, hi = own.copy(), own.copy()
            for j in W.neighbors[0]:
                idx = np.sort(rng.choice(30, size=rng.integers(1, 30),
                                         replace=False))
                vals = rng.normal(size=idx.size).astype(np.float32)
                contribs.append((int(j), idx, vals))
                v64 = vals.astype(np.float64)
                lo[idx] = np.minimum(lo[idx], v64)
                hi[idx] = np.maximum(hi[idx], v64)
            out = _average(own, contribs, W, 0)
            assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_dense_wrong_length_raises(self):
        W = _pair_weights()
        with pytest.raises(ValueError, match="wrong length"):
            _average(np.zeros(3), [(1, None, np.zeros(2))], W, 0)


class TestFullSharing:
    def test_two_node_average_oracle(self):
        """With eta=0 one round leaves both nodes at the f32 midpoint."""
        cfg = RunConfig(algo="full", sgd=SGDConfig(eta=0.0, tau=1))
        W = _pair_weights()
        a = np.linspace(-1, 1, 10)
        b = np.linspace(3, 5, 10)
        states = [_make_state(0, cfg, init=a), _make_state(1, cfg, init=b)]
        _sync_round(states, W, 0, cfg)
        # Own side stays float64, the neighbor's values ride as float32.
        want0 = 0.5 * a + 0.5 * b.astype(np.float32).astype(np.float64)
        np.testing.assert_allclose(states[0].model.get_flat(), want0, rtol=1e-15)

    def test_consensus_preserves_mean(self):
        """Doubly stochastic mixing drives spread down, holds the mean."""
        cfg = RunConfig(algo="full", sgd=SGDConfig(eta=0.0, tau=1))
        W = metropolis_hastings(generate_regular(5, 4, seed=4))
        rng = np.random.default_rng(5)
        inits = [rng.normal(size=10).astype(np.float32).astype(np.float64)
                 for _ in range(5)]
        states = [_make_state(i, cfg, init=inits[i]) for i in range(5)]
        mean0 = np.mean(inits, axis=0)
        for r in range(200):
            _sync_round(states, W, r, cfg)
        flats = np.array([s.model.get_flat() for s in states])
        assert np.max(np.abs(flats - flats.mean(axis=0))) < 1e-6
        np.testing.assert_allclose(flats.mean(axis=0), mean0, atol=1e-5)

    def test_bytes_accounting(self):
        cfg = RunConfig(algo="full", sgd=SGDConfig(eta=0.0, tau=1))
        W = _triangle_weights()
        states = [_make_state(i, cfg) for i in range(3)]
        outcomes = _sync_round(states, W, 0, cfg)
        plen = states[0].model.param_count
        for oc in outcomes:
            assert oc.outbound.byte_size == 13 + 4 * plen
            assert oc.bytes_sent == 2 * (13 + 4 * plen)
            assert oc.meta_bytes == 0
            assert oc.alpha_used == 1.0


class TestRandomSampling:
    def test_byte_size_pin(self):
        """10000 parameters at fraction 0.37: 13 + 8 + 4 * 3700 bytes."""
        cfg = RunConfig(algo="random", random_alpha=0.37,
                        sgd=SGDConfig(eta=0.0, tau=1))
        state = _make_state(0, cfg, num_features=999, classes=10, samples=2)
        assert state.model.param_count == 10000
        update = _prepare(state, 0, cfg)
        assert update.k == 3700
        assert update.byte_size == 14821
        assert update.meta_bytes == 8

    def test_receiver_regenerates_same_indices(self):
        """Only the seed crosses; the receiver rebuilds the index set from
        it, and its average matches a by-hand sparse average over that set."""
        cfg = RunConfig(algo="random", random_alpha=0.3,
                        sgd=SGDConfig(eta=0.0, tau=1))
        W = _pair_weights()
        a = np.arange(20.0)
        b = np.arange(20.0) + 100.0
        states = [_make_state(0, cfg, num_features=9, init=a),
                  _make_state(1, cfg, num_features=9, init=b)]
        updates = [_prepare(s, 0, cfg) for s in states]
        wire = codec.deserialize(codec.serialize(updates[1]))
        assert wire.indices is None and wire.index_slots is None
        finalize_round(states[0], [wire], W, 0, cfg, _group(states[0]), 0)
        idx = random_indices(20, selection_size(0.3, 20), updates[1].seed)
        assert wire.index_slots == 20 and wire.indices is not updates[1].indices
        np.testing.assert_array_equal(wire.indices, idx)
        want = a.copy()
        want[idx] = 0.5 * a[idx] + 0.5 * b[idx].astype(np.float32)
        np.testing.assert_allclose(states[0].model.get_flat(), want, rtol=1e-15)

    def test_alpha_one_matches_full_bitwise(self):
        """Fraction 1.0 covers every slot, so it must equal full sharing."""
        W = _triangle_weights()
        results = {}
        for algo, kw in [("full", {}), ("random", {"random_alpha": 1.0})]:
            cfg = RunConfig(algo=algo, sgd=SGDConfig(eta=0.03, tau=3), **kw)
            states = [_make_state(i, cfg, data_seed=40) for i in range(3)]
            for r in range(5):
                _sync_round(states, W, r, cfg)
            results[algo] = [s.model.get_flat() for s in states]
        for x, y in zip(results["full"], results["random"]):
            np.testing.assert_array_equal(x, y)


class TestJwinsRound:
    CFG = dict(algo="jwins", sgd=SGDConfig(eta=0.05, tau=2))

    def test_outbound_shape_and_bytes(self):
        cfg = RunConfig(**self.CFG)
        state = _make_state(0, cfg)
        update = _prepare(state, 3, cfg)
        assert update.kind == codec.UpdateKind.JWINS_INDICES
        sizes = {selection_size(a, state.coeff_len) for a in cfg.alpha.support}
        assert update.k in sizes
        assert update.values.dtype == np.float32
        assert update.byte_size == 13 + len(update.index_payload) + 4 * update.k
        assert update.meta_bytes == len(update.index_payload)

    def test_alpha_drawn_from_support(self):
        cfg = RunConfig(**self.CFG)
        W = _triangle_weights()
        states = [_make_state(i, cfg) for i in range(3)]
        seen = set()
        for r in range(30):
            outcomes = _sync_round(states, W, r, cfg)
            seen.update(oc.alpha_used for oc in outcomes)
        assert seen <= set(cfg.alpha.support)
        assert len(seen) >= 4

    def test_empty_inbox_keeps_post_training_point(self):
        """No arrivals: parameters land on the inverse transform of x_tau's
        coefficients in the parameters' dtype, bitwise, and within a few
        rounding errors of x_tau; the attempted selection's reference moves
        to its coefficients at x_tau, and every other reference stays at the
        starting point's transform."""
        cfg = RunConfig(**self.CFG)
        W = _pair_weights()
        state = _make_state(0, cfg)
        x0 = state.model.get_flat()
        update = _prepare(state, 0, cfg)
        x_tau = _TRAINED[state]
        _finalize(state, [], W, 0, cfg)
        x = state.model.get_flat()
        assert x.tobytes() == _rounded_trip(x_tau, cfg.shared_levels).tobytes()
        assert np.max(np.abs(x - x_tau)) <= 16 * np.finfo(x.dtype).eps * np.max(np.abs(x_tau))
        coeffs = dwt(x_tau, cfg.shared_levels)
        want = dwt(x0, cfg.shared_levels)
        want[update.indices] = coeffs[update.indices]
        np.testing.assert_array_equal(_group(state).ref[0], want)
        np.testing.assert_array_equal(update.values, coeffs[update.indices].astype(np.float32))

    def test_score_bookkeeping_after_real_round(self):
        """After averaging, the drift equals the pre-round drift plus the
        transform of the training move, with the sent slots zeroed, plus the
        transform of the averaging correction."""
        cfg = RunConfig(**self.CFG)
        W = _pair_weights()
        states = [_make_state(i, cfg, data_seed=50) for i in range(2)]
        _sync_round(states, W, 0, cfg)  # warm up so the drift is nonzero
        s = states[0]
        x_start = s.model.get_flat()
        levels = cfg.shared_levels
        pre_drift = dwt(x_start, levels) - _group(s).ref[0]
        updates = [_prepare(st, 1, cfg) for st in states]
        x_tau = _TRAINED[s]
        _finalize(s, [updates[1]], W, 1, cfg)
        x_next = s.model.get_flat()
        want = pre_drift + dwt(x_tau - x_start, levels)
        want[updates[0].indices] = 0.0
        want += dwt(x_next - x_tau, levels)
        np.testing.assert_allclose(dwt(x_next, levels) - _group(s).ref[0], want,
                                   rtol=0, atol=1e-12)
        assert np.any(pre_drift != 0.0)

    def test_round_trip_changes_all_nodes(self):
        cfg = RunConfig(**self.CFG)
        W = _triangle_weights()
        states = [_make_state(i, cfg) for i in range(3)]
        before = [s.model.get_flat() for s in states]
        _sync_round(states, W, 0, cfg)
        for s, b in zip(states, before):
            assert not np.array_equal(s.model.get_flat(), b)

    def test_consensus_with_eta_zero(self):
        """Pure gossip (no training drift) still contracts the spread."""
        cfg = RunConfig(algo="jwins", sgd=SGDConfig(eta=0.0, tau=1))
        W = _triangle_weights()
        rng = np.random.default_rng(6)
        inits = [rng.normal(size=10) for _ in range(3)]
        states = [_make_state(i, cfg, init=inits[i]) for i in range(3)]
        spread0 = np.ptp([i[0] for i in inits])
        for r in range(60):
            _sync_round(states, W, r, cfg)
        flats = np.array([s.model.get_flat() for s in states])
        assert np.max(np.abs(flats - flats.mean(axis=0))) < 1e-3 * max(spread0, 1)

    def test_wavelet_off_shares_raw_slots(self):
        cfg = RunConfig(algo="jwins", sgd=SGDConfig(eta=0.0, tau=1),
                        ablations=Ablations(wavelet_on=False))
        init = np.zeros(10)
        init[4] = 7.0
        state = _make_state(0, cfg, init=init)
        update = _prepare(state, 0, cfg)
        assert state.coeff_len == state.model.param_count
        # eta=0 means the only nonzero score slot is... none (no movement),
        # but the shared values are the raw parameters at the chosen slots.
        got = dict(zip(update.indices.tolist(), update.values.tolist()))
        for i, v in got.items():
            assert v == np.float32(init[i])

    def test_metadata_compression_off_uses_raw_indices(self):
        cfg = RunConfig(algo="jwins", sgd=SGDConfig(eta=0.01, tau=1),
                        ablations=Ablations(metadata_compression_on=False))
        state = _make_state(0, cfg)
        update = _prepare(state, 0, cfg)
        assert update.kind == codec.UpdateKind.RAW_INDICES
        assert update.meta_bytes == 4 * update.k

    def test_fixed_cutoff_ablation(self):
        cfg = RunConfig(algo="jwins", sgd=SGDConfig(eta=0.01, tau=1),
                        ablations=Ablations(random_cutoff_on=False))
        W = _triangle_weights()
        states = [_make_state(i, cfg) for i in range(3)]
        for r in range(5):
            for oc in _sync_round(states, W, r, cfg):
                assert oc.alpha_used == pytest.approx(cfg.alpha.mean())


class _AccumulatedScores:
    """The score bookkeeping the drift form replaced: add the transform of
    each training move, zero the sent slots, add the transform of each
    averaging shift."""

    def __init__(self, coeff_len, levels, accumulate):
        self.scores = np.zeros(coeff_len)
        self.levels = levels
        self.accumulate = accumulate

    def add_training(self, before, after):
        delta = dwt(after - before, self.levels)
        if self.accumulate:
            self.scores += delta
        else:
            self.scores[:] = delta

    def add_averaging(self, pre_avg, post_avg):
        self.scores += dwt(post_avg - pre_avg, self.levels)


class TestDriftMatchesAccumulatedScores:
    @pytest.mark.parametrize("accumulation_on", [True, False])
    @pytest.mark.parametrize("wavelet_on", [True, False])
    def test_selection_and_scores_each_round(self, accumulation_on, wavelet_on):
        """Eight rounds on a 4-node ring: every node's selection equals the
        top entries of the accumulated scores, and ``dwt(x) - ref`` equals
        those scores after the share and after averaging."""
        cfg = RunConfig(algo="jwins", sgd=SGDConfig(eta=0.1, tau=2),
                        ablations=Ablations(wavelet_on=wavelet_on,
                                            accumulation_on=accumulation_on))
        W = metropolis_hastings(generate_regular(4, 2, seed=3))
        states = [_make_state(i, cfg, num_features=16, classes=4, samples=20, data_seed=60)
                  for i in range(4)]
        levels = cfg.shared_levels
        oracles = [_AccumulatedScores(s.coeff_len, levels, accumulation_on) for s in states]
        assert levels == (4 if wavelet_on else 0)
        for r in range(8):
            before = [s.model.get_flat() for s in states]
            updates = [_prepare(s, r, cfg) for s in states]
            x_tau = [_TRAINED[s] for s in states]
            for s, o, u, x0, x1 in zip(states, oracles, updates, before, x_tau):
                o.add_training(x0, x1)
                np.testing.assert_array_equal(u.indices, top_indices(o.scores, u.k))
                o.scores[u.indices] = 0.0
                np.testing.assert_allclose(dwt(x1, levels) - _group(s).ref[0], o.scores,
                                           rtol=0, atol=1e-12)
            for s, o, x1 in zip(states, oracles, x_tau):
                inbox = [updates[j] for j in W.neighbors[s.node_id]]
                _finalize(s, inbox, W, r, cfg)
                x_next = s.model.get_flat()
                o.add_averaging(x1, x_next)
                np.testing.assert_allclose(dwt(x_next, levels) - _group(s).ref[0], o.scores,
                                           rtol=0, atol=1e-12)


class TestGroupRound:
    def _group(self, cfg, hidden=None):
        """Three nodes whose parameters are rows of one matrix, as
        ``sim.build_runtime`` lays them out, and their group."""
        states = [_make_state(i, cfg, num_features=6, classes=3, samples=15, data_seed=70,
                              hidden=hidden) for i in range(3)]
        plen = states[0].model.param_count
        params = np.zeros((len(states), states[0].coeff_len))
        for i, s in enumerate(states):
            params[i, :plen] = s.model.theta
            s.model = s.model.on(params[i, :plen])
        group = NodeGroup(states, params,
                          np.concatenate([s.X for s in states]),
                          np.concatenate([s.y for s in states]))
        return states, _recording(group)

    @pytest.mark.parametrize("hidden", [None, 8])
    @pytest.mark.parametrize("algo", [a.value for a in Algo])
    def test_group_equals_single_nodes_with_an_empty_inbox(self, algo, hidden):
        """One group of three against three groups of one, for three
        rounds in which node 1 receives nothing: the messages, every
        member's parameters and its rows of the group's protocol memory
        equal its single-node run. For full and random sharing node 1 stays
        exactly at its post-training point x_tau; for jwins it lands on the
        inverse transform of x_tau's coefficients in the parameters' dtype,
        bitwise, within a few rounding errors of x_tau."""
        cfg = RunConfig(algo=algo, sgd=SGDConfig(eta=0.1, tau=2))
        W = _triangle_weights()
        states, group = self._group(cfg, hidden)
        singles, _ = self._group(cfg, hidden)
        for r in range(3):
            updates = prepare_round(group, r, cfg)
            x_tau = _TRAINED[states[1]]
            inboxes = [[updates[j] for j in W.neighbors[i]] for i in range(3)]
            inboxes[1] = []
            outcomes = finalize_group(group, inboxes, W, r, cfg)
            assert [oc.accepted for oc in outcomes] == [2, 0, 2]
            x = states[1].model.get_flat()
            if algo == "jwins":
                assert x.tobytes() == _rounded_trip(x_tau, cfg.shared_levels).tobytes()
                assert (np.max(np.abs(x - x_tau))
                        <= 16 * np.finfo(x.dtype).eps * np.max(np.abs(x_tau)))
            elif algo != "choco":
                np.testing.assert_array_equal(x, x_tau)
            single_updates = [_prepare(s, r, cfg) for s in singles]
            for i, s in enumerate(singles):
                inbox = [single_updates[j] for j in W.neighbors[i]] if i != 1 else []
                _finalize(s, inbox, W, r, cfg)
            assert [codec.serialize(u) for u in updates] == [
                codec.serialize(u) for u in single_updates]
            for i, s in enumerate(singles):
                np.testing.assert_array_equal(states[i].model.theta, s.model.theta)
                for name in ("ref", "choco_hat", "choco_agg"):
                    memory = getattr(group, name)
                    assert (memory is None) == (getattr(_group(s), name) is None), name
                    if memory is not None:
                        np.testing.assert_array_equal(memory[i], getattr(_group(s), name)[0])
        assert (group.ref is not None) == (algo == "jwins")
        assert (group.choco_hat is not None) == (algo == "choco")


class TestInboxValidation:
    def _jwins_pair(self):
        cfg = RunConfig(algo="jwins", sgd=SGDConfig(eta=0.0, tau=1))
        W = _pair_weights()
        states = [_make_state(i, cfg, init=np.full(10, float(i))) for i in range(2)]
        return cfg, W, states

    def test_wrong_round_rejected(self):
        cfg, W, states = self._jwins_pair()
        _prepare(states[0], 5, cfg)
        stale = codec.make_indexed_update(4, 1, np.array([0]),
                                          np.array([9.0], dtype=np.float32))
        x_tau = states[0].model.get_flat()
        oc = finalize_round(states[0], [stale], W, 5, cfg, _group(states[0]), 0)
        assert oc.rejected == 1
        np.testing.assert_array_equal(states[0].model.get_flat(), x_tau)

    def test_non_neighbor_rejected(self):
        cfg, W, states = self._jwins_pair()
        _prepare(states[0], 0, cfg)
        alien = codec.make_indexed_update(0, 7, np.array([0]),
                                          np.array([9.0], dtype=np.float32))
        oc = finalize_round(states[0], [alien], W, 0, cfg, _group(states[0]), 0)
        assert oc.rejected == 1

    def test_out_of_range_indices_rejected(self):
        cfg, W, states = self._jwins_pair()
        _prepare(states[0], 0, cfg)
        bad = codec.make_indexed_update(0, 1, np.array([10_000]),
                                        np.array([9.0], dtype=np.float32))
        oc = finalize_round(states[0], [bad], W, 0, cfg, _group(states[0]), 0)
        assert oc.rejected == 1

    def test_seed_update_longer_than_slots_rejected(self):
        """A seeded update no set of the receiver's length can hold is a
        rejection, and no set is built for it."""
        cfg = RunConfig(algo="random", sgd=SGDConfig(eta=0.0, tau=1))
        W = _pair_weights()
        state = _make_state(0, cfg, init=np.zeros(10))
        _prepare(state, 0, cfg)
        long = codec.deserialize(codec.serialize(codec.make_seed_update(
            0, 1, 42, np.ones(11, dtype=np.float32))))
        oc = finalize_round(state, [long], W, 0, cfg, _group(state), 0)
        assert oc.rejected == 1
        assert long.indices is None and long.index_slots is None
        np.testing.assert_array_equal(state.model.get_flat(), np.zeros(10))

    def test_duplicate_sender_raises(self):
        cfg, W, states = self._jwins_pair()
        _prepare(states[0], 0, cfg)
        u = codec.make_indexed_update(0, 1, np.array([0]),
                                      np.array([1.0], dtype=np.float32))
        with pytest.raises(ValueError, match="duplicate sender"):
            finalize_round(states[0], [u, u], W, 0, cfg, _group(states[0]), 0)

    def test_finalize_before_prepare(self):
        cfg, W, states = self._jwins_pair()
        with pytest.raises(RuntimeError, match="before prepare_round"):
            finalize_round(states[0], [], W, 0, cfg, _group(states[0]), 0)
        _prepare(states[0], 0, cfg)
        finalize_round(states[0], [], W, 0, cfg, _group(states[0]), 0)
        with pytest.raises(RuntimeError, match="before prepare_round"):
            finalize_round(states[0], [], W, 0, cfg, _group(states[0]), 0)


class TestChoco:
    def test_gamma_zero_is_local_sgd(self):
        """gamma=0 must reproduce isolated local SGD bit for bit."""
        cfg = RunConfig(algo="choco", choco=ChocoCfg(gamma=0.0, alpha=0.2),
                        sgd=SGDConfig(eta=0.05, tau=3, batch_size=4))
        W = _pair_weights()
        states = [_make_state(i, cfg, data_seed=60) for i in range(2)]
        refs = [_make_state(i, cfg, data_seed=60) for i in range(2)]
        for r in range(4):
            _sync_round(states, W, r, cfg)
            for ref in refs:
                NodeGroup.single(ref).train(cfg.sgd)
        for s, ref in zip(states, refs):
            np.testing.assert_array_equal(s.model.get_flat(), ref.model.get_flat())

    def test_full_quantizer_consensus(self):
        """alpha=1 with eta=0 contracts geometrically at rate 1 - gamma."""
        cfg = RunConfig(algo="choco", choco=ChocoCfg(gamma=0.6, alpha=1.0),
                        sgd=SGDConfig(eta=0.0, tau=1))
        W = _pair_weights()
        a = np.full(8, 1.0)
        b = np.full(8, 3.0)
        states = [_make_state(0, cfg, num_features=3, init=a),
                  _make_state(1, cfg, num_features=3, init=b)]
        for r in range(60):
            _sync_round(states, W, r, cfg)
        flats = np.array([s.model.get_flat() for s in states])
        np.testing.assert_allclose(flats, 2.0, atol=1e-7)

    def test_sparse_choco_still_converges_to_consensus(self):
        cfg = RunConfig(algo="choco", choco=ChocoCfg(gamma=0.3, alpha=0.25),
                        sgd=SGDConfig(eta=0.0, tau=1))
        W = _triangle_weights()
        rng = np.random.default_rng(7)
        inits = [rng.normal(size=12) for _ in range(3)]
        states = [_make_state(i, cfg, num_features=5, init=inits[i])
                  for i in range(3)]
        for r in range(300):
            _sync_round(states, W, r, cfg)
        flats = np.array([s.model.get_flat() for s in states])
        spread = np.max(np.abs(flats - flats.mean(axis=0)))
        assert spread < 1e-4

    def test_bytes_use_indexed_format(self):
        cfg = RunConfig(algo="choco", choco=ChocoCfg(alpha=0.2),
                        sgd=SGDConfig(eta=0.05, tau=1))
        state = _make_state(0, cfg)
        update = _prepare(state, 0, cfg)
        assert update.kind == codec.UpdateKind.JWINS_INDICES
        assert update.k == selection_size(0.2, state.model.param_count)
