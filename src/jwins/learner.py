"""Models, local SGD, data loading, and non-IID partitioning.

Two small classifiers are provided, both trained with plain mini-batch SGD
on softmax cross-entropy. Parameters live in one flat vector, whose dtype
rules: float32 in a run, float64 by default. The weight matrices and bias
vectors are views into it, laid out layer by layer as row-major weights
followed by biases. That flat vector is exactly what the communication
layer transforms and shares. A model can also hold a stack of such vectors,
one row per node, and ``local_sgd`` trains a stack with one forward and
backward pass per step.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(eq=False)
class Dataset:
    features: np.ndarray  # (N, F) float; float32 in a run
    labels: np.ndarray  # (N,) int64
    num_classes: int


@dataclass
class SGDConfig:
    """Local training knobs: step size, steps per round, batch size.
    ``sim._validate`` checks their ranges."""

    eta: float = 0.05
    tau: int = 1
    batch_size: int = 8


def _log_softmax(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=-1, keepdims=True)
    shifted = z - zmax
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _label_slots(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (row, label) indices of each sample's own class in a
    ``(..., batch, classes)`` array reshaped to ``(-1, classes)``."""
    return np.arange(y.size), y.ravel()


def _nll(logp: np.ndarray, y: np.ndarray):
    """Mean negative log-likelihood over the batch axis: a float for one
    batch, one per node for a stack of them."""
    picked = logp.reshape(-1, logp.shape[-1])[_label_slots(y)].reshape(y.shape)
    return -picked.mean(axis=-1)


class _FlatModel:
    """Parameters in one flat buffer; subclasses lay out the layers.

    ``theta`` is one node's vector (P,) or a stack of nodes' vectors (G, P),
    and every layer view keeps its leading axes, so one forward and backward
    pass serves a whole stack. The buffer may be a caller's (a row, or rows,
    of a larger matrix); the model then computes in its dtype and writes it
    in place. Without one the buffer is float64.
    """

    def _bind(self, theta: np.ndarray | None, size: int) -> None:
        if theta is None:
            theta = np.zeros(size)
        elif theta.shape[-1] != size:
            raise ValueError("flat vector length does not match model")
        self.theta = theta

    @property
    def param_count(self) -> int:
        return self.theta.shape[-1]

    def get_flat(self) -> np.ndarray:
        return self.theta.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=self.theta.dtype)
        if flat.shape != self.theta.shape:
            raise ValueError("flat vector length does not match model")
        self.theta[:] = flat

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray):
        """Batch loss and its gradient; X is (..., batch, features) with
        the leading axes of ``theta``."""
        logp, grad = self.logp_and_grad(X, y)
        return _nll(logp, y), grad


class SoftmaxRegression(_FlatModel):
    """Multinomial logistic regression on flat parameters.

    Layout: W (classes x features, row-major), then b (classes).
    """

    def __init__(self, features: int, classes: int, rng: np.random.Generator | None = None,
                 init_scale: float = 0.01, theta: np.ndarray | None = None):
        if features < 1 or classes < 2:
            raise ValueError("need at least one feature and two classes")
        self.features = features
        self.classes = classes
        self._bind(theta, classes * features + classes)
        self.W, self.b = self._layers(self.theta)
        if rng is not None and init_scale > 0:
            self.theta[:] = rng.normal(0.0, init_scale, self.theta.shape)

    def on(self, theta: np.ndarray) -> "SoftmaxRegression":
        """The same model over another parameter buffer, not copied."""
        return SoftmaxRegression(self.features, self.classes, theta=theta)

    def _layers(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """W, b as views into a flat buffer of this layout."""
        n = self.classes * self.features
        return (flat[..., :n].reshape(flat.shape[:-1] + (self.classes, self.features)),
                flat[..., n:])

    def logits(self, X: np.ndarray) -> np.ndarray:
        z = np.matmul(X, self.W.swapaxes(-1, -2))
        z += self.b[..., None, :]
        return z

    def logp_and_grad(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log-probabilities and the gradient of the mean batch loss."""
        logp = _log_softmax(self.logits(X))
        P = np.exp(logp)
        P.reshape(-1, self.classes)[_label_slots(y)] -= 1.0
        P /= X.shape[-2]
        grad = np.empty(self.theta.shape, self.theta.dtype)
        gW, gb = self._layers(grad)
        np.matmul(P.swapaxes(-1, -2), X, out=gW)
        np.sum(P, axis=-2, out=gb)
        return logp, grad


class TwoLayerMLP(_FlatModel):
    """One ReLU hidden layer then softmax output, hand-written backprop.

    Layout: W1 (hidden x features), b1, W2 (classes x hidden), b2.
    """

    def __init__(self, features: int, classes: int, hidden: int = 64,
                 rng: np.random.Generator | None = None, theta: np.ndarray | None = None):
        if features < 1 or classes < 2 or hidden < 1:
            raise ValueError("bad layer sizes")
        self.features = features
        self.classes = classes
        self.hidden = hidden
        self._bind(theta, hidden * features + hidden + classes * hidden + classes)
        self.W1, self.b1, self.W2, self.b2 = self._layers(self.theta)
        if rng is not None:
            self.W1[:] = rng.normal(0.0, np.sqrt(2.0 / features), self.W1.shape)
            self.W2[:] = rng.normal(0.0, np.sqrt(2.0 / hidden), self.W2.shape)

    def on(self, theta: np.ndarray) -> "TwoLayerMLP":
        """The same model over another parameter buffer, not copied."""
        return TwoLayerMLP(self.features, self.classes, self.hidden, theta=theta)

    def _layers(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """W1, b1, W2, b2 as views into a flat buffer of this layout."""
        lead = flat.shape[:-1]
        n1 = self.hidden * self.features
        n2 = self.classes * self.hidden
        return (flat[..., :n1].reshape(lead + (self.hidden, self.features)),
                flat[..., n1 : n1 + self.hidden],
                flat[..., n1 + self.hidden : n1 + self.hidden + n2].reshape(
                    lead + (self.classes, self.hidden)),
                flat[..., n1 + self.hidden + n2 :])

    def _hidden(self, X: np.ndarray) -> np.ndarray:
        # In place on the one (batch, hidden) product; same bits as
        # np.maximum(X @ W1.T + b1, 0.0).
        h = np.matmul(X, self.W1.swapaxes(-1, -2))
        h += self.b1[..., None, :]
        np.maximum(h, 0.0, out=h)
        return h

    def logits(self, X: np.ndarray) -> np.ndarray:
        z = np.matmul(self._hidden(X), self.W2.swapaxes(-1, -2))
        z += self.b2[..., None, :]
        return z

    def logp_and_grad(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log-probabilities and the gradient of the mean batch loss."""
        h = self._hidden(X)
        z = np.matmul(h, self.W2.swapaxes(-1, -2))
        z += self.b2[..., None, :]
        logp = _log_softmax(z)
        dz = np.exp(logp)
        dz.reshape(-1, self.classes)[_label_slots(y)] -= 1.0
        dz /= X.shape[-2]
        grad = np.empty(self.theta.shape, self.theta.dtype)
        gW1, gb1, gW2, gb2 = self._layers(grad)
        np.matmul(dz.swapaxes(-1, -2), h, out=gW2)
        np.sum(dz, axis=-2, out=gb2)
        dh = np.matmul(dz, self.W2)
        # Zero dh where the pre-activation was <= 0, which is where h <= 0
        # (NaN in neither). ANDing each entry's bits with all zeros or all
        # ones stores the same bits as a masked assignment, without its
        # per-entry branch on a mask that is about half true. The mask is
        # the unsigned integer of dh's width, so one path serves any float.
        keep = (h <= 0.0).astype("u%d" % dh.itemsize)
        keep -= 1
        bits = dh.view(keep.dtype)
        bits &= keep
        np.matmul(dh.swapaxes(-1, -2), X, out=gW1)
        np.sum(dh, axis=-2, out=gb1)
        return logp, grad


def make_model(kind: str, features: int, classes: int, hidden: int = 64,
               rng: np.random.Generator | None = None, init_scale: float = 0.01):
    """Construct one of the supported models by name."""
    if kind == "logreg":
        return SoftmaxRegression(features, classes, rng=rng, init_scale=init_scale)
    if kind == "mlp":
        return TwoLayerMLP(features, classes, hidden=hidden, rng=rng)
    raise ValueError("unknown model kind %r" % kind)


def local_sgd(model, X: np.ndarray, y: np.ndarray, counts, cfg: SGDConfig, rngs) -> np.ndarray:
    """Run tau mini-batch SGD steps in place on a stack of nodes; returns
    each node's loss on its last batch.

    Row g of ``model.theta`` (G, P) is node g's parameters, ``X`` and ``y``
    hold the nodes' local samples back to back, ``counts[g]`` of them for
    node g, and node g draws its batches from ``rngs[g]``: without
    replacement when it holds at least a batch, with replacement otherwise.
    Each step gathers every node's batch at once and makes one forward and
    backward pass over the stack; one node is the stack of one.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 1).any():
        raise ValueError("node has no local data")
    starts = (np.cumsum(counts) - counts)[:, None]
    batch = cfg.batch_size
    idx = np.empty((counts.size, batch), dtype=np.int64)
    for _ in range(cfg.tau):
        for g, (m, rng) in enumerate(zip(counts.tolist(), rngs)):
            if batch > m:
                # The same draws as rng.choice(m, batch, replace=True), and
                # the same generator state after them.
                idx[g] = rng.integers(0, m, size=batch, dtype=np.int64)
            else:
                idx[g] = rng.choice(m, size=batch, replace=False)
        idx += starts
        yb = y[idx]
        logp, grad = model.logp_and_grad(X[idx], yb)
        grad *= cfg.eta
        model.theta -= grad
        # Free the gradient before the next step allocates its temporaries.
        # Held over, it can push them above itself on the heap, which the
        # allocator then hands back to the OS at the end of the step, so that
        # every step faults the memory in again: training one 60,426-parameter
        # node over and over took 110 minor faults a step that way, a third of
        # the step's time.
        del grad
    return _nll(logp, yb)


def evaluate(model, X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy (natural log) and accuracy on a held-out set."""
    logp = _log_softmax(model.logits(X))
    loss = float(_nll(logp, y))
    acc = float((logp.argmax(axis=-1) == y).mean())
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
