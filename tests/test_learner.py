"""Model, SGD, data loading, and partitioning tests.

Gradients are checked against central finite differences; evaluation against
by-hand softmax arithmetic; the IDX loader against files written in the test.
"""

import struct

import numpy as np
import pytest

from jwins.learner import (
    SGDConfig,
    SoftmaxRegression,
    TwoLayerMLP,
    evaluate,
    load_idx,
    local_sgd,
    make_model,
    shard_partition,
    synth_blobs,
)


def _fd_gradient_check(model, X, y, coords, h=1e-5):
    """Central finite differences on selected coordinates."""
    _, grad = model.loss_and_grad(X, y)
    base = model.get_flat()
    for c in coords:
        bumped = base.copy()
        bumped[c] = base[c] + h
        model.set_flat(bumped)
        up, _ = model.loss_and_grad(X, y)
        bumped[c] = base[c] - h
        model.set_flat(bumped)
        down, _ = model.loss_and_grad(X, y)
        model.set_flat(base)
        fd = (up - down) / (2 * h)
        scale = max(1.0, abs(fd))
        assert abs(grad[c] - fd) / scale < 1e-5, "coord %d: %g vs %g" % (c, grad[c], fd)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _reference_logits(model, X):
    """Out-of-place MLP forward pass: the oracle of ``TwoLayerMLP.logits``."""
    h = np.maximum(X @ model.W1.T + model.b1, 0.0)
    return h @ model.W2.T + model.b2


def _reference_loss_and_grad(model, X, y):
    """Out-of-place backprop of one node's batch, with a boolean-mask ReLU
    gradient and a concatenated gradient: the oracle of ``loss_and_grad``
    for both models."""
    batch = X.shape[0]
    mlp = isinstance(model, TwoLayerMLP)
    if mlp:
        pre = X @ model.W1.T + model.b1
        h = np.maximum(pre, 0.0)
        z = h @ model.W2.T + model.b2
    else:
        z = X @ model.W.T + model.b
    logp = z - z.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    loss = -float(logp[np.arange(batch), y].mean())
    dz = np.exp(logp)
    dz[np.arange(batch), y] -= 1.0
    dz /= batch
    if not mlp:
        return loss, np.concatenate([(dz.T @ X).ravel(), dz.sum(axis=0)])
    dh = dz @ model.W2
    dh[pre <= 0.0] = 0.0
    grad = np.concatenate([(dh.T @ X).ravel(), dh.sum(axis=0),
                           (dz.T @ h).ravel(), dz.sum(axis=0)])
    return loss, grad


def _sgd_one(model, X, y, cfg, rng):
    """Local SGD on one node, as the stack of one."""
    return local_sgd(model.on(model.theta[None]), X, y, [X.shape[0]], cfg, [rng])


def _edge_case_mlp(seed):
    """MLP and batch with exact-zero and negative pre-activations and -0.0
    entries in the weights, biases and inputs."""
    rng = np.random.default_rng(seed)
    model = TwoLayerMLP(6, 3, hidden=16, rng=rng)
    model.b1[:] = rng.normal(size=16)
    model.W1[:4] = 0.0
    model.b1[:2] = 0.0
    model.b1[2:4] = -0.0
    model.W1[4, :3] = -0.0
    model.W2[0, :3] = -0.0
    X = rng.normal(size=(12, 6))
    X[0] = -0.0
    X[1, :3] = 0.0
    y = rng.integers(0, 3, 12)
    pre = X @ model.W1.T + model.b1
    assert (pre == 0.0).any() and (pre < 0.0).any() and (pre > 0.0).any()
    return model, X, y


class TestInPlaceOracle:
    """The in-place forward and backward passes keep every output bit of the
    out-of-place formulation."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_logits_bitwise(self, seed):
        model, X, _ = _edge_case_mlp(seed)
        np.testing.assert_array_equal(_bits(model.logits(X)),
                                      _bits(_reference_logits(model, X)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loss_and_grad_bitwise(self, seed):
        model, X, y = _edge_case_mlp(seed)
        loss, grad = model.loss_and_grad(X, y)
        want_loss, want_grad = _reference_loss_and_grad(model, X, y)
        assert _bits(loss) == _bits(want_loss)
        np.testing.assert_array_equal(_bits(grad), _bits(want_grad))

    def test_local_sgd_bitwise(self):
        model, X, y = _edge_case_mlp(3)
        ref = TwoLayerMLP(6, 3, hidden=16)
        ref.set_flat(model.get_flat())
        cfg = SGDConfig(eta=0.3, tau=4, batch_size=5)
        _sgd_one(model, X, y, cfg, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for _ in range(cfg.tau):
            idx = rng.choice(X.shape[0], size=cfg.batch_size, replace=False)
            ref.theta -= cfg.eta * _reference_loss_and_grad(ref, X[idx], y[idx])[1]
        np.testing.assert_array_equal(_bits(model.theta), _bits(ref.theta))


def _float32_copy(model, X):
    """The same MLP over a float32 buffer, and X in float32."""
    m32 = TwoLayerMLP(model.features, model.classes, model.hidden,
                      theta=np.zeros(model.param_count, np.float32))
    m32.set_flat(model.get_flat())
    return m32, X.astype(np.float32)


class TestFloat32:
    """A model over a float32 buffer computes in float32, as a simulator
    run's nodes do."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_bitwise_against_masked_form(self, seed):
        """The bit-mask ReLU gradient at float32 width equals the masked
        assignment ``dh[pre <= 0] = 0`` bit for bit."""
        model, X, y = _edge_case_mlp(seed)
        model, X = _float32_copy(model, X)
        logp, grad = model.logp_and_grad(X, y)
        assert logp.dtype == grad.dtype == np.float32
        _, want = _reference_loss_and_grad(model, X, y)
        assert want.dtype == np.float32
        np.testing.assert_array_equal(grad.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_agrees_with_float64(self, seed):
        """On float32-representable parameters and inputs the float32
        gradient is the float64 one to a few float32 roundings."""
        model, X, y = _edge_case_mlp(seed)
        m32, X32 = _float32_copy(model, X)
        m64 = TwoLayerMLP(6, 3, hidden=16)
        m64.set_flat(m32.get_flat())
        _, g32 = m32.logp_and_grad(X32, y)
        _, g64 = m64.logp_and_grad(X32.astype(np.float64), y)
        tol = 16 * np.finfo(np.float32).eps
        np.testing.assert_allclose(g32, g64, rtol=tol, atol=tol * np.abs(g64).max())


class TestStackedSGD:
    """A stack of nodes trained with one forward and backward pass per step
    keeps every bit of a per-node loop over the out-of-place oracle."""

    # Per-node sample counts against batch 8: fewer (drawn with replacement),
    # as many, and more (without replacement).
    COUNTS = [5, 12, 8, 1, 20]

    @pytest.mark.parametrize("kind", ["logreg", "mlp"])
    @pytest.mark.parametrize("rows", [1, 3, 5])
    def test_rows_match_per_node_oracle(self, kind, rows):
        rng = np.random.default_rng(rows)
        counts = self.COUNTS[:rows]
        arch = make_model(kind, 6, 3, hidden=16)
        theta0 = rng.normal(0.0, 0.5, (rows, arch.param_count))
        X = rng.normal(size=(sum(counts), 6))
        y = rng.integers(0, 3, sum(counts))
        cfg = SGDConfig(eta=0.3, tau=3, batch_size=8)
        stack = arch.on(theta0.copy())
        losses = local_sgd(stack, X, y, counts, cfg,
                           [np.random.default_rng([rows, g]) for g in range(rows)])
        assert losses.shape == (rows,)
        start = 0
        for g, m in enumerate(counts):
            Xg, yg = X[start : start + m], y[start : start + m]
            start += m
            ref = make_model(kind, 6, 3, hidden=16)
            ref.set_flat(theta0[g])
            node_rng = np.random.default_rng([rows, g])
            for _ in range(cfg.tau):
                idx = node_rng.choice(m, size=cfg.batch_size, replace=cfg.batch_size > m)
                loss, grad = _reference_loss_and_grad(ref, Xg[idx], yg[idx])
                ref.theta -= cfg.eta * grad
            np.testing.assert_array_equal(_bits(stack.theta[g]), _bits(ref.theta))
            assert _bits(losses[g]) == _bits(loss)

    @pytest.mark.parametrize("m", [1, 5, 16, 63])
    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_replacement_draws_equal_choice(self, m, batch):
        """``local_sgd`` draws with-replacement batches with ``integers``:
        the values ``choice`` gives and the generator state after them."""
        a = np.random.default_rng([m, batch])
        b = np.random.default_rng([m, batch])
        np.testing.assert_array_equal(a.choice(m, size=batch, replace=True),
                                      b.integers(0, m, size=batch, dtype=np.int64))
        assert a.random() == b.random()


class TestModels:
    def test_flat_roundtrip_identity(self):
        model = make_model("logreg", 6, 3, rng=np.random.default_rng(0))
        X = np.random.default_rng(1).normal(size=(4, 6))
        before = model.logits(X)
        model.set_flat(model.get_flat())
        np.testing.assert_array_equal(model.logits(X), before)

    def test_param_count(self):
        assert make_model("logreg", 999, 10).param_count == 10000
        mlp = make_model("mlp", 8, 3, hidden=5)
        assert mlp.param_count == 5 * 8 + 5 + 3 * 5 + 3

    def test_flat_layout_logreg(self):
        """Weights row-major first, then biases."""
        m = SoftmaxRegression(3, 2)
        m.W[:] = [[1, 2, 3], [4, 5, 6]]
        m.b[:] = [7, 8]
        np.testing.assert_array_equal(m.get_flat(), [1, 2, 3, 4, 5, 6, 7, 8])

    def test_flat_layout_mlp(self):
        m = TwoLayerMLP(2, 2, hidden=2)
        m.W1[:] = [[1, 2], [3, 4]]
        m.b1[:] = [5, 6]
        m.W2[:] = [[7, 8], [9, 10]]
        m.b2[:] = [11, 12]
        np.testing.assert_array_equal(m.get_flat(), np.arange(1.0, 13.0))

    def test_set_flat_length_checked(self):
        m = make_model("logreg", 4, 2)
        with pytest.raises(ValueError):
            m.set_flat(np.zeros(11))

    def test_gradient_check_logreg(self):
        rng = np.random.default_rng(2)
        model = make_model("logreg", 7, 4, rng=rng, init_scale=0.5)
        X = rng.normal(size=(12, 7))
        y = rng.integers(0, 4, size=12)
        coords = rng.choice(model.param_count, size=min(100, model.param_count),
                            replace=False)
        _fd_gradient_check(model, X, y, coords)

    def test_gradient_check_mlp(self):
        rng = np.random.default_rng(3)
        model = make_model("mlp", 5, 3, hidden=6, rng=rng)
        X = rng.normal(size=(10, 5))
        y = rng.integers(0, 3, size=10)
        coords = rng.choice(model.param_count, size=min(60, model.param_count),
                            replace=False)
        _fd_gradient_check(model, X, y, coords)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_model("transformer", 4, 2)


class TestLocalSGD:
    def test_eta_zero_leaves_model(self):
        model = make_model("logreg", 4, 2, rng=np.random.default_rng(4))
        before = model.get_flat()
        data = synth_blobs(2, 4, 20, seed=5)
        _sgd_one(model, data.features, data.labels, SGDConfig(eta=0.0, tau=5),
                 np.random.default_rng(6))
        np.testing.assert_array_equal(model.get_flat(), before)

    def test_one_full_batch_step_matches_hand_gradient(self):
        """tau=1 with batch = everything equals x - eta * grad exactly."""
        rng = np.random.default_rng(7)
        model = make_model("logreg", 3, 2, rng=rng, init_scale=0.3)
        X = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)
        x0 = model.get_flat()
        _, grad = model.loss_and_grad(X, y)
        model.set_flat(x0)
        _sgd_one(model, X, y, SGDConfig(eta=0.1, tau=1, batch_size=6),
                 np.random.default_rng(8))
        np.testing.assert_allclose(model.get_flat(), x0 - 0.1 * grad, atol=1e-12)

    def test_deterministic_given_stream(self):
        data = synth_blobs(3, 5, 30, seed=9)
        outs = []
        for _ in range(2):
            model = make_model("logreg", 5, 3, rng=np.random.default_rng(10))
            _sgd_one(model, data.features, data.labels,
                     SGDConfig(eta=0.05, tau=7, batch_size=4),
                     np.random.default_rng(11))
            outs.append(model.get_flat())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_loss_decreases_on_separable_task(self):
        """Full-batch SGD on easy blobs strictly reduces loss, most seeds."""
        wins = 0
        for seed in range(20):
            data = synth_blobs(3, 6, 30, seed=seed, mean_scale=3.0, noise_scale=0.5)
            model = make_model("logreg", 6, 3, rng=np.random.default_rng(seed))
            before, _ = model.loss_and_grad(data.features, data.labels)
            for _ in range(100):
                _sgd_one(model, data.features, data.labels,
                         SGDConfig(eta=0.1, tau=1, batch_size=90),
                         np.random.default_rng(seed))
            after, _ = model.loss_and_grad(data.features, data.labels)
            wins += after < before
        assert wins >= 19

    def test_empty_partition_rejected(self):
        model = make_model("logreg", 4, 2)
        with pytest.raises(ValueError, match="no local data"):
            _sgd_one(model, np.empty((0, 4)), np.empty(0, dtype=np.int64),
                     SGDConfig(), np.random.default_rng(0))
        # An empty member of a stack is rejected too.
        stack = model.on(np.zeros((2, model.param_count)))
        with pytest.raises(ValueError, match="no local data"):
            local_sgd(stack, np.zeros((3, 4)), np.zeros(3, dtype=np.int64), [3, 0],
                      SGDConfig(), [np.random.default_rng(0), np.random.default_rng(1)])


class TestEvaluate:
    def test_uniform_logits_baseline(self):
        """Zero model on balanced data: accuracy 1/C, loss ln C."""
        data = synth_blobs(4, 5, 25, seed=12)
        model = make_model("logreg", 5, 4)  # zero init
        loss, acc = evaluate(model, data.features, data.labels)
        assert loss == pytest.approx(np.log(4), abs=1e-12)
        assert acc == pytest.approx(0.25, abs=1e-12)

    def test_memorized_single_sample(self):
        model = SoftmaxRegression(2, 2)
        model.b[:] = [10.0, -10.0]
        loss, acc = evaluate(model, np.zeros((1, 2)), np.array([0]))
        assert acc == 1.0
        assert loss < 1e-8

    def test_hand_computed_softmax(self):
        """Fixed logits cross-checked against by-hand arithmetic."""
        model = SoftmaxRegression(1, 3)
        model.W[:] = [[1.0], [0.0], [-1.0]]
        X = np.array([[1.0], [2.0]])
        y = np.array([0, 2])
        # Sample 1: logits (1,0,-1); p0 = e/ (e + 1 + 1/e)
        # Sample 2: logits (2,0,-2); p2 = e^-2 / (e^2 + 1 + e^-2)
        p1 = np.exp(1) / (np.exp(1) + 1 + np.exp(-1))
        p2 = np.exp(-2) / (np.exp(2) + 1 + np.exp(-2))
        want = -(np.log(p1) + np.log(p2)) / 2
        loss, acc = evaluate(model, X, y)
        assert loss == pytest.approx(want, rel=1e-12)
        assert acc == 0.5  # first right, second wrong


class TestPartition:
    def test_disjoint_cover_and_label_bound(self):
        data = synth_blobs(10, 4, 100, seed=13)
        parts = shard_partition(data.labels, 10, 2, seed=14)
        seen = np.concatenate(parts)
        assert seen.size == np.unique(seen).size == 1000
        for p in parts:
            assert p.size == 100
            # 20 shards of 50 align with the 100-per-class blocks, so every
            # shard is label-pure and nodes see at most 2 classes.
            assert np.unique(data.labels[p]).size <= 2

    def test_single_node_gets_everything(self):
        labels = np.array([0, 1, 1, 0, 2])
        parts = shard_partition(labels, 1, 1, seed=15)
        np.testing.assert_array_equal(np.sort(parts[0]), np.arange(5))

    def test_seed_controls_assignment(self):
        labels = np.repeat(np.arange(5), 20)
        a = shard_partition(labels, 5, 2, seed=16)
        b = shard_partition(labels, 5, 2, seed=16)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = shard_partition(labels, 5, 2, seed=17)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="too few samples"):
            shard_partition(np.array([0, 1]), 4, 2, seed=0)


class TestSynthBlobs:
    def test_shape_and_balance(self):
        data = synth_blobs(10, 32, 100, seed=18)
        assert data.features.shape == (1000, 32)
        assert data.num_classes == 10
        counts = np.bincount(data.labels)
        np.testing.assert_array_equal(counts, 100)

    def test_deterministic(self):
        a = synth_blobs(3, 4, 10, seed=19)
        b = synth_blobs(3, 4, 10, seed=19)
        np.testing.assert_array_equal(a.features, b.features)

    def test_classes_are_separated_with_wide_means(self):
        data = synth_blobs(4, 8, 50, seed=20, mean_scale=5.0, noise_scale=0.3)
        centroids = np.array([data.features[data.labels == c].mean(axis=0)
                              for c in range(4)])
        dists = np.linalg.norm(centroids[:, None] - centroids[None], axis=-1)
        assert dists[~np.eye(4, dtype=bool)].min() > 1.0


def _write_idx_pair(tmp_path, images, labels):
    count, rows, cols = images.shape
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labels.idx"
    with open(ip, "wb") as fh:
        fh.write(struct.pack(">llll", 0x803, count, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lp, "wb") as fh:
        fh.write(struct.pack(">ll", 0x801, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())
    return ip, lp


class TestIdxLoader:
    def test_small_pair(self, tmp_path):
        rng = np.random.default_rng(21)
        images = rng.integers(0, 256, size=(10, 28, 28))
        labels = rng.integers(0, 10, size=10)
        ip, lp = _write_idx_pair(tmp_path, images, labels)
        data = load_idx(ip, lp)
        assert data.features.shape == (10, 784)
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0
        np.testing.assert_allclose(data.features[0], images[0].ravel() / 255.0)
        np.testing.assert_array_equal(data.labels, labels)

    def test_bad_magic(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        data = bytearray(ip.read_bytes())
        data[3] = 0x99
        ip.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="bad magic"):
            load_idx(ip, lp)

    def test_truncated_images(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, np.zeros((4, 3, 3)), [0, 1, 2, 3])
        ip.write_bytes(ip.read_bytes()[:-5])
        with pytest.raises(ValueError, match="length mismatch"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, _ = _write_idx_pair(tmp_path, np.zeros((3, 2, 2)), [0, 1, 2])
        lp = tmp_path / "short.idx"
        with open(lp, "wb") as fh:
            fh.write(struct.pack(">ll", 0x801, 2))
            fh.write(bytes([0, 1]))
        with pytest.raises(ValueError, match="counts differ"):
            load_idx(ip, lp)
