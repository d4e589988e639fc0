"""Models, local SGD, data loading, and non-IID partitioning.

Two small classifiers are provided, both trained with plain mini-batch SGD
on softmax cross-entropy. Parameters live in one flat float64 vector; the
weight matrices and bias vectors are views into it, laid out layer by layer
as row-major weights followed by biases. That flat vector is exactly what
the communication layer transforms and shares.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(eq=False)
class Dataset:
    features: np.ndarray  # (N, F) float64
    labels: np.ndarray  # (N,) int64
    num_classes: int


@dataclass
class SGDConfig:
    """Local training knobs: step size, steps per round, batch size."""

    eta: float = 0.05
    tau: int = 1
    batch_size: int = 8

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("step size must be non-negative")
        if self.tau < 1:
            raise ValueError("need at least one local step per round")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")


def _log_softmax(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class SoftmaxRegression:
    """Multinomial logistic regression on flat parameters.

    Layout: W (classes x features, row-major), then b (classes).
    """

    def __init__(self, features: int, classes: int, rng: np.random.Generator | None = None,
                 init_scale: float = 0.01):
        if features < 1 or classes < 2:
            raise ValueError("need at least one feature and two classes")
        self.features = features
        self.classes = classes
        self.theta = np.zeros(classes * features + classes)
        self.W = self.theta[: classes * features].reshape(classes, features)
        self.b = self.theta[classes * features :]
        if rng is not None and init_scale > 0:
            self.theta[:] = rng.normal(0.0, init_scale, self.theta.size)

    @property
    def param_count(self) -> int:
        return self.theta.size

    def get_flat(self) -> np.ndarray:
        return self.theta.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.theta.shape:
            raise ValueError("flat vector length does not match model")
        self.theta[:] = flat

    def logits(self, X: np.ndarray) -> np.ndarray:
        return X @ self.W.T + self.b

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        batch = X.shape[0]
        logp = _log_softmax(self.logits(X))
        loss = -float(logp[np.arange(batch), y].mean())
        P = np.exp(logp)
        P[np.arange(batch), y] -= 1.0
        P /= batch
        grad = np.concatenate([(P.T @ X).ravel(), P.sum(axis=0)])
        return loss, grad


class TwoLayerMLP:
    """One ReLU hidden layer then softmax output, hand-written backprop.

    Layout: W1 (hidden x features), b1, W2 (classes x hidden), b2.
    """

    def __init__(self, features: int, classes: int, hidden: int = 64,
                 rng: np.random.Generator | None = None):
        if features < 1 or classes < 2 or hidden < 1:
            raise ValueError("bad layer sizes")
        self.features = features
        self.classes = classes
        self.hidden = hidden
        self.theta = np.zeros(hidden * features + hidden + classes * hidden + classes)
        self.W1, self.b1, self.W2, self.b2 = self._layers(self.theta)
        if rng is not None:
            self.W1[:] = rng.normal(0.0, np.sqrt(2.0 / features), self.W1.shape)
            self.W2[:] = rng.normal(0.0, np.sqrt(2.0 / hidden), self.W2.shape)

    def _layers(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """W1, b1, W2, b2 as views into a flat vector of this layout."""
        n1 = self.hidden * self.features
        n2 = self.classes * self.hidden
        return (flat[:n1].reshape(self.hidden, self.features),
                flat[n1 : n1 + self.hidden],
                flat[n1 + self.hidden : n1 + self.hidden + n2].reshape(self.classes, self.hidden),
                flat[n1 + self.hidden + n2 :])

    @property
    def param_count(self) -> int:
        return self.theta.size

    def get_flat(self) -> np.ndarray:
        return self.theta.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.theta.shape:
            raise ValueError("flat vector length does not match model")
        self.theta[:] = flat

    def _hidden(self, X: np.ndarray) -> np.ndarray:
        # In place on the one (batch, hidden) product; same bits as
        # np.maximum(X @ W1.T + b1, 0.0).
        h = X @ self.W1.T
        h += self.b1
        np.maximum(h, 0.0, out=h)
        return h

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self._hidden(X) @ self.W2.T + self.b2

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        batch = X.shape[0]
        h = self._hidden(X)
        logp = _log_softmax(h @ self.W2.T + self.b2)
        loss = -float(logp[np.arange(batch), y].mean())
        dz = np.exp(logp)
        dz[np.arange(batch), y] -= 1.0
        dz /= batch
        grad = np.empty_like(self.theta)
        gW1, gb1, gW2, gb2 = self._layers(grad)
        np.matmul(dz.T, h, out=gW2)
        np.sum(dz, axis=0, out=gb2)
        dh = dz @ self.W2
        # Zero dh where the pre-activation was <= 0, which is where h <= 0
        # (NaN in neither). ANDing each entry's bits with all zeros or all
        # ones stores the same bits as a masked assignment, without its
        # per-entry branch on a mask that is about half true.
        keep = (h <= 0.0).astype(np.uint64)
        keep -= 1
        bits = dh.view(np.uint64)
        bits &= keep
        np.matmul(dh.T, X, out=gW1)
        np.sum(dh, axis=0, out=gb1)
        return loss, grad


def make_model(kind: str, features: int, classes: int, hidden: int = 64,
               rng: np.random.Generator | None = None, init_scale: float = 0.01):
    """Construct one of the supported models by name."""
    if kind == "logreg":
        return SoftmaxRegression(features, classes, rng=rng, init_scale=init_scale)
    if kind == "mlp":
        return TwoLayerMLP(features, classes, hidden=hidden, rng=rng)
    raise ValueError("unknown model kind %r" % kind)


def local_sgd(model, X: np.ndarray, y: np.ndarray, cfg: SGDConfig,
              rng: np.random.Generator) -> float:
    """Run tau mini-batch SGD steps in place; returns the last batch loss.

    Batches are drawn without replacement when the local set is big enough,
    with replacement otherwise.
    """
    if X.shape[0] == 0:
        raise ValueError("node has no local data")
    loss = 0.0
    replace = cfg.batch_size > X.shape[0]
    for _ in range(cfg.tau):
        idx = rng.choice(X.shape[0], size=cfg.batch_size, replace=replace)
        loss, grad = model.loss_and_grad(X[idx], y[idx])
        grad *= cfg.eta
        model.theta -= grad
    return loss


def evaluate(model, X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy (natural log) and accuracy on a held-out set."""
    logp = _log_softmax(model.logits(X))
    loss = -float(logp[np.arange(X.shape[0]), y].mean())
    acc = float((logp.argmax(axis=1) == y).mean())
    return loss, acc


def shard_partition(labels: np.ndarray, n: int, shards_per_node: int, seed: int) -> list[np.ndarray]:
    """Label-sorted shard deal: non-IID splits in the FedAvg style.

    Samples are sorted by label, cut into n * shards_per_node contiguous
    shards, and each node receives shards_per_node of them by a seeded
    permutation. When shards_per_node is small relative to the class count,
    each node sees only a couple of classes.
    """
    labels = np.asarray(labels)
    total_shards = n * shards_per_node
    if labels.size < total_shards:
        raise ValueError("too few samples to cut %d shards" % total_shards)
    order = np.argsort(labels, kind="stable")
    shards = np.array_split(order, total_shards)
    perm = np.random.default_rng(seed).permutation(total_shards)
    parts = []
    for i in range(n):
        mine = perm[i * shards_per_node : (i + 1) * shards_per_node]
        parts.append(np.sort(np.concatenate([shards[s] for s in mine])))
    return parts


def synth_blobs(classes: int, dims: int, per_class: int, seed: int,
                mean_scale: float = 1.0, noise_scale: float = 1.0) -> Dataset:
    """Class-conditional Gaussian blobs with seeded means."""
    if classes < 2 or dims < 1 or per_class < 1:
        raise ValueError("bad blob shape")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, mean_scale, (classes, dims))
    X = np.empty((classes * per_class, dims))
    y = np.empty(classes * per_class, dtype=np.int64)
    for c in range(classes):
        block = slice(c * per_class, (c + 1) * per_class)
        X[block] = means[c] + rng.normal(0.0, noise_scale, (per_class, dims))
        y[block] = c
    return Dataset(X, y, classes)


def _read_exact(fh, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError("length mismatch in IDX file")
    return data


def load_idx(images_path, labels_path) -> Dataset:
    """IDX image/label pair -> flat features in [0, 1] and int labels.

    Big-endian headers; magic 0x803 for images (count, rows, cols) and 0x801
    for labels (count). Counts must agree between the two files.
    """
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(">llll", _read_exact(fh, 16))
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError("bad magic %#x in image file" % magic)
        raw = _read_exact(fh, count * rows * cols)
        if fh.read(1):
            raise ValueError("length mismatch in IDX file")
    with open(labels_path, "rb") as fh:
        magic, label_count = struct.unpack(">ll", _read_exact(fh, 8))
        if magic != IDX_LABELS_MAGIC:
            raise ValueError("bad magic %#x in label file" % magic)
        raw_labels = _read_exact(fh, label_count)
        if fh.read(1):
            raise ValueError("length mismatch in IDX file")
    if count != label_count:
        raise ValueError("image and label counts differ")
    X = np.frombuffer(raw, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols) / 255.0
    y = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    return Dataset(X, y, int(y.max()) + 1 if y.size else 0)
