"""Importance accumulation and index selection for sparsified sharing.

Each node keeps a per-coefficient score vector V, a plain float64 array,
that sums the transform of every parameter change it has seen (its own
training steps and the shift applied by averaging). The transform is the
``levels``-level wavelet of ``wavelet.dwt``; 0 levels scores raw parameter
deltas. The top coefficients of |V| are the ones shared in a round, returned
as a sorted index array; shared entries are reset so unsent changes keep
accumulating until they win a slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wavelet import dwt

# Cut-off fractions and probabilities used when a round draws how much to
# send. Mean is 0.342857...; roughly a third of the coefficient vector.
DEFAULT_ALPHA_SUPPORT = (0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 1.0)
DEFAULT_ALPHA_PROBS = (1 / 7, 1 / 7, 1 / 7, 1 / 7, 1 / 7, 1 / 7, 1 / 7)


def _delta_scores(before: np.ndarray, after: np.ndarray, levels: int) -> np.ndarray:
    if before.shape != after.shape:
        raise ValueError("parameter vectors differ in length")
    delta = np.asarray(after, dtype=np.float64) - np.asarray(before, dtype=np.float64)
    return dwt(delta, levels)


def accumulate_training_delta(
    scores: np.ndarray,
    before: np.ndarray,
    after: np.ndarray,
    levels: int,
    accumulate: bool = True,
) -> None:
    """Fold one local-training parameter change into the scores, in place.

    ``levels`` is the wavelet level count of the scoring domain; 0 scores
    raw parameter deltas (the transform-off ablation). With ``accumulate``
    False the delta overwrites the scores instead of adding to them, which
    reduces ranking to "largest change this round".
    """
    delta = _delta_scores(before, after, levels)
    if delta.shape != scores.shape:
        raise ValueError("delta length does not match the scores")
    if accumulate:
        scores += delta
    else:
        scores[:] = delta


def accumulate_averaging_delta(
    scores: np.ndarray,
    pre_avg: np.ndarray,
    post_avg: np.ndarray,
    levels: int,
) -> None:
    """Fold the parameter shift applied by one averaging step into the scores."""
    delta = _delta_scores(pre_avg, post_avg, levels)
    if delta.shape != scores.shape:
        raise ValueError("delta length does not match the scores")
    scores += delta


@dataclass(frozen=True, eq=False)
class AlphaDistribution:
    """Discrete distribution of cut-off fractions in (0, 1]."""

    support: tuple[float, ...] = DEFAULT_ALPHA_SUPPORT
    probs: tuple[float, ...] = DEFAULT_ALPHA_PROBS

    def __post_init__(self):
        if len(self.support) == 0 or len(self.support) != len(self.probs):
            raise ValueError("support and probs must be non-empty and equal length")
        if any(not 0.0 < a <= 1.0 for a in self.support):
            raise ValueError("cut-off fractions must lie in (0, 1]")
        if any(p < 0.0 for p in self.probs):
            raise ValueError("probabilities must be non-negative")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")

    @classmethod
    def uniform(cls, support) -> "AlphaDistribution":
        support = tuple(float(a) for a in support)
        return cls(support, tuple(1.0 / len(support) for _ in support))

    def mean(self) -> float:
        return float(sum(a * p for a, p in zip(self.support, self.probs)))


def draw_alpha(dist: AlphaDistribution, rng: np.random.Generator) -> float:
    """Sample one cut-off fraction, consuming exactly one uniform draw."""
    u = rng.random()
    cum = 0.0
    for a, p in zip(dist.support, dist.probs):
        cum += p
        if u < cum:
            return a
    return dist.support[-1]


def selection_size(alpha: float, coeff_len: int) -> int:
    """Entry count for a cut-off fraction: round-half-up, clamped to [0, n]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("cut-off fraction must lie in [0, 1]")
    k = int(np.floor(alpha * coeff_len + 0.5))
    return min(max(k, 0), coeff_len)


def top_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest |scores|, sorted; ties go to the lowest index.

    Partition-based, so O(n) rather than O(n log n) for a full sort: the
    k-th largest magnitude is the threshold, every entry above it is kept,
    and the lowest-index entries equal to it fill the remaining slots. A
    mask read in order is already sorted.
    """
    n = scores.size
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= n:
        return np.arange(n, dtype=np.int64)
    mag = np.abs(scores)
    threshold = np.partition(mag, n - k)[n - k]
    keep = mag > threshold
    keep[np.flatnonzero(mag == threshold)[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def select_topk(scores: np.ndarray, alpha: float) -> np.ndarray:
    """Sorted indices of the top-|scores| entries for a cut-off fraction."""
    return top_indices(scores, selection_size(alpha, scores.size))


def random_indices(coeff_len: int, k: int, seed: int) -> np.ndarray:
    """Sorted k-subset of [0, coeff_len) fully determined by the seed.

    Sender and receiver both call this, so only the seed crosses the wire.
    """
    if not 0 <= k <= coeff_len:
        raise ValueError("selection size out of range")
    if k == coeff_len:
        return np.arange(coeff_len, dtype=np.int64)
    rng = np.random.default_rng(seed)
    # Unshuffled draw, sorted through a mask: the same set as the shuffled
    # draw (the shuffle only reorders it) without a sort.
    idx = rng.choice(coeff_len, size=k, replace=False, shuffle=False)
    mask = np.zeros(coeff_len, dtype=bool)
    mask[idx] = True
    return np.flatnonzero(mask).astype(np.int64, copy=False)


def reset_selected(scores: np.ndarray, indices: np.ndarray) -> None:
    """Zero the scores of shared entries; unshared scores keep accumulating."""
    if indices.size and int(indices.max()) >= scores.size:
        raise ValueError("selection index out of range")
    scores[indices] = 0.0
