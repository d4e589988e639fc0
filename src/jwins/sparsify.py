"""Importance ranking and index selection for sparsified sharing.

A coefficient's score is the sum of every signed change it has gone through
since the node last shared it: its own training steps and the shifts that
averaging applied. The transform (``wavelet.dwt`` at the node's level count;
0 levels is raw parameter space) is linear, so that sum telescopes to the
drift ``coeffs - ref``, where ``ref`` holds each coefficient's value when it
was last shared. ``select_drift`` ranks that drift, returns the top entries as
a sorted index array and moves their ``ref`` to the current value; unshared
slots keep drifting until they win a slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Cut-off fractions and probabilities used when a round draws how much to
# send. Mean is 0.342857...; roughly a third of the coefficient vector.
DEFAULT_ALPHA_SUPPORT = (0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 1.0)
DEFAULT_ALPHA_PROBS = (1 / 7, 1 / 7, 1 / 7, 1 / 7, 1 / 7, 1 / 7, 1 / 7)


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


def select_drift(coeffs: np.ndarray, ref: np.ndarray, alpha: float) -> np.ndarray:
    """Sorted indices of the top-|coeffs - ref| entries for a cut-off
    fraction; their ``ref`` entries become ``coeffs``, in place, so the
    shared slots drift from the value they were sent at."""
    if coeffs.shape != ref.shape:
        raise ValueError("coefficients and reference differ in length")
    idx = select_topk(coeffs - ref, alpha)
    ref[idx] = coeffs[idx]
    return idx


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
