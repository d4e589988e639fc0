"""Drift ranking, alpha draws, and TopK / random selection tests."""

import numpy as np
import pytest

from jwins.sparsify import (
    AlphaDistribution,
    draw_alpha,
    random_indices,
    select_drift,
    select_topk,
    selection_size,
    top_indices,
)
from jwins.wavelet import dwt


class TestAccumulator:
    """The score of a coefficient accumulates every change since it was last
    shared. ``select_drift`` reads it as ``coeffs - ref``; these tests hold
    it to the sum of transformed parameter deltas that defines it."""

    def test_zero_delta_leaves_scores(self):
        x = np.arange(50.0)
        ref = dwt(x, 4)
        before = ref.copy()
        idx = select_drift(dwt(x, 4), ref, 0.5)
        assert idx.size == selection_size(0.5, ref.size)
        np.testing.assert_array_equal(ref, before)

    def test_from_zero_vector_gives_dwt(self):
        x = np.random.default_rng(0).normal(size=64)
        ref = dwt(np.zeros(64), 4)
        coeffs = dwt(x, 4)
        idx = select_drift(coeffs, ref, 0.25)
        np.testing.assert_array_equal(idx, select_topk(coeffs, 0.25))
        np.testing.assert_array_equal(ref[idx], coeffs[idx])

    def test_two_deltas_sum_linearly(self):
        """dwt(c) - dwt(a) = dwt(b - a) + dwt(c - b): the drift telescopes."""
        rng = np.random.default_rng(1)
        a, b, c = rng.normal(size=(3, 100))
        ref = dwt(a, 4)
        summed = dwt(b - a, 4) + dwt(c - b, 4)
        np.testing.assert_allclose(dwt(c, 4) - ref, summed, rtol=1e-9, atol=1e-12)
        idx = select_drift(dwt(c, 4), ref, 0.3)
        np.testing.assert_array_equal(idx, select_topk(summed, 0.3))

    def test_disabled_overwrites(self):
        """A reference taken at the round's start ranks that round's change
        alone, as the accumulation-off ablation does."""
        rng = np.random.default_rng(2)
        a, b, c = rng.normal(size=(3, 30))
        ref = dwt(a, 4)
        select_drift(dwt(b, 4), ref, 0.4)
        ref = dwt(b, 4)
        np.testing.assert_allclose(dwt(c, 4) - ref, dwt(c - b, 4), atol=1e-12)

    def test_averaging_delta_adds(self):
        """A shared slot drifts from its shared value, an unshared one from
        its older reference, and a later shift adds to both."""
        rng = np.random.default_rng(3)
        a, b, c = rng.normal(size=(3, 40))
        ref = dwt(a, 4)
        idx = select_drift(dwt(b, 4), ref, 0.25)
        sent = np.zeros(ref.size, dtype=bool)
        sent[idx] = True
        drift = dwt(c, 4) - ref
        np.testing.assert_allclose(drift[sent], dwt(c - b, 4)[sent], atol=1e-12)
        np.testing.assert_allclose(drift[~sent], dwt(c - a, 4)[~sent], atol=1e-12)

    def test_localized_change_scores_locally(self):
        """Moving one parameter gives drift only where its dwt lives, and
        only those coefficients are picked."""
        n = 256
        pre = np.zeros(n)
        post = np.zeros(n)
        post[130] = 1.0
        ref = dwt(pre, 4)
        drift = dwt(post, 4) - ref
        np.testing.assert_allclose(drift, dwt(post - pre, 4), atol=1e-14)
        live = np.flatnonzero(np.abs(drift) > 1e-12)
        assert live.size < drift.size // 4
        idx = select_drift(dwt(post, 4), ref, live.size / drift.size)
        np.testing.assert_array_equal(idx, live)

    def test_raw_space_at_zero_levels(self):
        ref = dwt(np.zeros(10), 0)
        coeffs = dwt(np.arange(10.0), 0)
        np.testing.assert_array_equal(coeffs - ref, np.arange(10.0))
        np.testing.assert_array_equal(select_drift(coeffs, ref, 0.3), [7, 8, 9])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            select_drift(np.zeros(5), np.zeros(6), 0.5)


class TestAlpha:
    def test_default_mean_matches_support(self):
        dist = AlphaDistribution()
        assert dist.mean() == pytest.approx(2.4 / 7, abs=1e-12)

    def test_sample_mean_over_1e5_draws(self):
        """Mean of the default cut-off list is 0.342857 within 0.005."""
        dist = AlphaDistribution()
        rng = np.random.default_rng(4)
        draws = [draw_alpha(dist, rng) for _ in range(100_000)]
        assert np.mean(draws) == pytest.approx(0.342857, abs=0.005)

    def test_budget_20_percent_config(self):
        """support {1.0, 0.1} with probs {0.1, 0.9} has expected value 0.19."""
        dist = AlphaDistribution((1.0, 0.1), (0.1, 0.9))
        assert dist.mean() == pytest.approx(0.19, abs=1e-12)
        rng = np.random.default_rng(5)
        draws = [draw_alpha(dist, rng) for _ in range(50_000)]
        assert np.mean(draws) == pytest.approx(0.19, abs=0.01)

    def test_draw_consumes_one_uniform(self):
        dist = AlphaDistribution()
        rng1 = np.random.default_rng(6)
        rng2 = np.random.default_rng(6)
        draw_alpha(dist, rng1)
        rng2.random()
        assert rng1.random() == rng2.random()

    def test_deterministic_sequence(self):
        dist = AlphaDistribution()
        seq1 = [draw_alpha(dist, np.random.default_rng(7)) for _ in range(1)]
        seq2 = [draw_alpha(dist, np.random.default_rng(7)) for _ in range(1)]
        assert seq1 == seq2
        a = np.random.default_rng(8)
        b = np.random.default_rng(8)
        assert [draw_alpha(dist, a) for _ in range(50)] == \
               [draw_alpha(dist, b) for _ in range(50)]

    def test_only_support_values_drawn(self):
        dist = AlphaDistribution()
        rng = np.random.default_rng(9)
        support = set(dist.support)
        assert all(draw_alpha(dist, rng) in support for _ in range(1000))


class TestSelectionSize:
    def test_round_half_up(self):
        assert selection_size(0.25, 10) == 3  # 2.5 rounds up
        assert selection_size(0.05, 10) == 1
        assert selection_size(0.24, 10) == 2
        assert selection_size(1.0, 10) == 10
        assert selection_size(0.37, 100) == 37
        assert selection_size(0.37, 10**4) == 3700
        assert selection_size(0.1, 10009) == 1001

    def test_clamped(self):
        assert selection_size(0.0, 10) == 0
        with pytest.raises(ValueError):
            selection_size(1.5, 10)


def _sorted_top(v: np.ndarray, k: int) -> np.ndarray:
    """Top-k oracle: a full sort by descending |v|, ties to the lower index."""
    order = np.lexsort((np.arange(v.size), -np.abs(v)))
    return np.sort(order[:k])


class TestTopK:
    def test_two_largest_magnitudes(self):
        sel = select_topk(np.array([3.0, -5.0, 2.0, 0.0]), 0.5)
        np.testing.assert_array_equal(sel, [0, 1])
        assert sel.size == 2

    def test_alpha_one_takes_everything(self):
        sel = select_topk(np.array([3.0, -5.0, 2.0, 0.0]), 1.0)
        np.testing.assert_array_equal(sel, [0, 1, 2, 3])

    def test_tie_break_lower_index(self):
        sel = top_indices(np.array([1.0, -1.0, 1.0, 0.0]), 2)
        np.testing.assert_array_equal(sel, [0, 1])

    def test_matches_full_sort(self):
        """Selection-based result equals sort-then-take under the tie rule."""
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 400))
            k = int(rng.integers(0, n + 1))
            v = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0, 3.5], size=n)
            np.testing.assert_array_equal(top_indices(v, k), _sorted_top(v, k))

    def test_matches_full_sort_at_scale(self):
        """60,438 scores on a coarse grid, so the threshold lands on a value
        shared by many slots, with the exact zeros a shared slot's drift
        starts from; k also reaches into the zeros."""
        rng = np.random.default_rng(15)
        n = 60438
        for round_no in range(4):
            v = np.round(rng.normal(size=n), 1)
            v[select_topk(v, 0.1 * (round_no + 1))] = 0.0
            zeros = int(np.count_nonzero(v == 0.0))
            assert zeros > n // 10
            for k in (1, 6044, 15110, n - zeros - 1, n - zeros + 7, n - 1):
                np.testing.assert_array_equal(top_indices(v, k), _sorted_top(v, k))

    def test_permutation_consistency(self):
        """Permuting scores permutes the selection (no hidden position bias)."""
        rng = np.random.default_rng(11)
        v = rng.normal(size=200)  # continuous, so ties have measure zero
        perm = rng.permutation(200)
        k = 40
        base = top_indices(v, k)
        permuted = top_indices(v[perm], k)
        np.testing.assert_array_equal(np.sort(perm[permuted]), base)

    def test_after_reset_zeroed_not_reselected(self):
        rng = np.random.default_rng(12)
        coeffs = np.abs(rng.normal(size=100)) + 0.1
        ref = np.zeros(100)
        first = select_drift(coeffs, ref, 0.2)
        second = select_drift(coeffs, ref, 0.2)
        assert not set(first.tolist()) & set(second.tolist())


class TestReset:
    """Sharing a slot moves its reference to the shared value."""

    def test_reset_all(self):
        coeffs = np.arange(1.0, 6.0)
        ref = np.zeros(5)
        select_drift(coeffs, ref, 1.0)
        np.testing.assert_array_equal(ref, coeffs)

    def test_reset_none(self):
        ref = np.zeros(5)
        assert select_drift(np.arange(1.0, 6.0), ref, 0.0).size == 0
        np.testing.assert_array_equal(ref, 0.0)

    def test_reset_subset(self):
        ref = np.array([1.0, 1.0, 1.0])
        idx = select_drift(np.array([3.0, -5.0, 2.0]), ref, 0.3)
        np.testing.assert_array_equal(idx, [1])
        np.testing.assert_array_equal(ref, [1.0, -5.0, 1.0])

    def test_out_of_range(self):
        """A cut-off outside [0, 1] raises and leaves the reference alone."""
        ref = np.zeros(3)
        with pytest.raises(ValueError):
            select_drift(np.ones(3), ref, 1.5)
        np.testing.assert_array_equal(ref, 0.0)


def _reference_random_indices(coeff_len, k, seed):
    """Shuffled draw plus a sort: the oracle of ``random_indices``."""
    if k == coeff_len:
        return np.arange(coeff_len, dtype=np.int64)
    idx = np.random.default_rng(seed).choice(coeff_len, size=k, replace=False)
    idx.sort()
    return idx.astype(np.int64)


class TestRandomSelection:
    # Lengths on both sides of numpy's switch from Floyd's algorithm to a
    # tail shuffle (more than 10,000 slots and k above 1/50 of them).
    @pytest.mark.parametrize("coeff_len", [1, 2, 10, 500, 60_426])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
    def test_matches_sorted_shuffled_draw(self, coeff_len, seed):
        ks = {0, 1, coeff_len // 3, int(0.37 * coeff_len), coeff_len - 1, coeff_len}
        for k in sorted(ks):
            got = random_indices(coeff_len, k, seed)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, _reference_random_indices(coeff_len, k, seed))

    def test_alpha_one_all_indices(self):
        sel = random_indices(10, selection_size(1.0, 10), seed=123)
        np.testing.assert_array_equal(sel, np.arange(10))

    def test_same_seed_same_set(self):
        k = selection_size(0.37, 1000)
        a = random_indices(1000, k, seed=42)
        b = random_indices(1000, k, seed=42)
        np.testing.assert_array_equal(a, b)
        c = random_indices(1000, k, seed=43)
        assert not np.array_equal(a, c)

    def test_regenerable_from_k(self):
        """Receivers rebuild the set from (seed, K, len) without alpha."""
        k = selection_size(0.37, 10**4)
        assert k == 3700
        sent = random_indices(10**4, k, seed=7)
        np.testing.assert_array_equal(sent, random_indices(10**4, sent.size, 7))

    def test_sorted_distinct(self):
        sel = random_indices(500, selection_size(0.25, 500), seed=1)
        assert np.all(np.diff(sel) > 0)
        assert sel.min() >= 0 and sel.max() < 500
