"""Wavelet transform tests.

The reference oracle here is a naive direct-definition implementation
(explicit index reflection and a double loop straight from the filter-bank
equations), written independently of the package code. Closed-form Sym2
identities (published filter table, vanishing moments, orthogonality) pin
the convention.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jwins.wavelet import FILTER_HI, FILTER_LO, coeff_layout, coeff_length, dwt, idwt

# Published 4-tap Sym2 (= db2) decomposition low-pass filter, frozen from the
# closed form (1-sqrt3, 3-sqrt3, 3+sqrt3, 1+sqrt3) / (4*sqrt2).
SYM2_LO = [
    -0.12940952255092145,
    0.22414386804185735,
    0.8365163037378079,
    0.48296291314469025,
]


def _reflect(i: int, n: int) -> int:
    """Half-sample symmetric index reflection into [0, n)."""
    while i < 0 or i >= n:
        i = -1 - i if i < 0 else 2 * n - 1 - i
    return i


def naive_level(x, lo, hi):
    """One analysis level from the definition: y[k] = sum_j f[j] x(2k+1-j)."""
    n = len(x)
    out_len = (n + 3) // 2
    a = np.zeros(out_len)
    d = np.zeros(out_len)
    for k in range(out_len):
        sa = sd = 0.0
        for j in range(4):
            v = x[_reflect(2 * k + 1 - j, n)]
            sa += lo[j] * v
            sd += hi[j] * v
        a[k] = sa
        d[k] = sd
    return a, d


def naive_dwt(x, levels):
    """Multi-level cascade of naive_level, concatenated coarse to fine."""
    a = np.asarray(x, dtype=np.float64)
    details = []
    for _ in range(levels):
        if len(a) < 4:
            break
        a, d = naive_level(a, FILTER_LO, FILTER_HI)
        details.append(d)
    return np.concatenate([a] + details[::-1]) if details else a.copy()


def band(coeffs, source_len, levels, name):
    """One named band of a flat coefficient array, located by coeff_layout."""
    start = 0
    for b, length in coeff_layout(source_len, levels):
        if b == name:
            return coeffs[start : start + length]
        start += length
    raise KeyError(name)


class TestFilters:
    def test_low_pass_matches_published_table(self):
        """The closed form reproduces the standard Sym2 table."""
        np.testing.assert_allclose(FILTER_LO, SYM2_LO, rtol=0, atol=1e-12)

    def test_low_pass_sums_to_sqrt2(self):
        assert FILTER_LO.sum() == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_high_pass_sums_to_zero(self):
        assert FILTER_HI.sum() == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_mirror_relation(self):
        for k in range(4):
            assert FILTER_HI[k] == pytest.approx(
                (-1.0) ** k * FILTER_LO[3 - k], abs=1e-15)

    def test_unit_l2_norm(self):
        """Orthogonal filter banks have unit-energy taps."""
        assert np.sum(FILTER_LO**2) == pytest.approx(1.0, abs=1e-12)

    def test_impulse_response_reproduces_taps(self):
        """Detail band of a unit impulse contains the high-pass taps.

        An impulse at an even interior position hits the odd taps, an odd
        position hits the even taps (stride-2 sampling).
        """
        g = FILTER_HI
        for pos, expected in [(10, {1, 3}), (11, {0, 2})]:
            x = np.zeros(32)
            x[pos] = 1.0
            detail = band(dwt(x, 1), 32, 1, "D1")
            nonzero = sorted(float(v) for v in detail[np.abs(detail) > 1e-14])
            want = sorted(float(g[j]) for j in expected)
            np.testing.assert_allclose(nonzero, want, atol=1e-14)


class TestLayout:
    def test_length_recurrence_10000(self):
        """Frozen pyramid for a 10^4-parameter model at 4 levels."""
        layout = coeff_layout(10000, 4)
        assert layout == (("A4", 627), ("D4", 627), ("D3", 1252),
                          ("D2", 2502), ("D1", 5001))
        assert coeff_length(10000, 4) == 10009

    def test_layout_100(self):
        layout = coeff_layout(100, 4)
        assert layout == (("A4", 9), ("D4", 9), ("D3", 15), ("D2", 27), ("D1", 51))
        assert coeff_length(100, 4) == 111

    def test_truncation_short_inputs(self):
        """Levels stop once the running length drops under the filter."""
        assert coeff_layout(5, 4) == (("A2", 3), ("D2", 3), ("D1", 4))
        assert coeff_layout(3, 4) == (("A0", 3),)
        assert coeff_layout(1, 4) == (("A0", 1),)

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError, match="levels must be >= 0"):
            coeff_length(10, -1)
        with pytest.raises(ValueError, match="levels must be >= 0"):
            dwt(np.ones(10), -1)

    def test_layout_only_depends_on_length_and_levels(self):
        rng = np.random.default_rng(0)
        for n in [1, 2, 7, 64, 1000]:
            c = dwt(rng.normal(size=n), 4)
            assert sum(length for _, length in coeff_layout(n, 4)) == c.size


class TestForward:
    def test_matches_naive_reference(self):
        """Package transform equals the direct-definition implementation."""
        rng = np.random.default_rng(1)
        for n in [1, 2, 3, 4, 5, 6, 7, 8, 13, 33, 64, 100, 257]:
            x = rng.normal(size=n)
            got = dwt(x, 4)
            want = naive_dwt(x, 4)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_constant_vector(self):
        """Constants: details vanish, approximation is c * sqrt(2)^levels."""
        c = dwt(np.full(64, 3.0), 4)
        for name in ["D4", "D3", "D2", "D1"]:
            np.testing.assert_allclose(band(c, 64, 4, name), 0.0, atol=1e-10)
        np.testing.assert_allclose(band(c, 64, 4, "A4"), 3.0 * np.sqrt(2.0) ** 4, atol=1e-10)

    def test_ramp_interior_details_vanish(self):
        """Two vanishing moments annihilate linear signals away from edges."""
        x = np.arange(1.0, 65.0)
        detail = band(dwt(x, 1), 64, 1, "D1")
        np.testing.assert_allclose(detail[1:-1], 0.0, atol=1e-10)
        assert abs(detail[0]) > 1e-3
        assert abs(detail[-1]) > 1e-3

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2, 333))
        lhs = dwt(2.5 * x - 1.25 * y, 4)
        rhs = 2.5 * dwt(x, 4) - 1.25 * dwt(y, 4)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_energy_preserved_away_from_boundaries(self):
        """Interior-supported signals keep their l2 norm through the cascade."""
        rng = np.random.default_rng(3)
        x = np.zeros(1024)
        x[200:800] = rng.normal(size=600)
        c = dwt(x, 4)
        assert np.linalg.norm(c) == pytest.approx(np.linalg.norm(x), rel=1e-6)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="empty vector"):
            dwt(np.array([]), 4)

    def test_float32_input_promoted(self):
        x32 = np.random.default_rng(4).normal(size=500).astype(np.float32)
        c = dwt(x32, 4)
        assert c.dtype == np.float64
        np.testing.assert_allclose(idwt(c, 500, 4), x32, atol=1e-4 * np.abs(x32).max())


class TestInverse:
    def test_perfect_reconstruction(self):
        """idwt(dwt(x)) = x to 1e-10 across many lengths."""
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 4097))
            x = rng.normal(size=n)
            err = np.max(np.abs(idwt(dwt(x, 4), n, 4) - x))
            worst = max(worst, err)
        assert worst <= 1e-10

    def test_zero_coefficients_give_zero_output(self):
        c = dwt(np.zeros(77), 4)
        np.testing.assert_allclose(idwt(c, 77, 4), 0.0, atol=0.0)

    def test_zeroed_approx_coefficient_energy(self):
        """Dropping one interior approx coefficient costs coef^2/n of MSE."""
        x = np.random.default_rng(6).normal(size=4096)
        c = dwt(x, 4)
        k = 100  # interior coefficient of the A4 band (length 259)
        coef = c[k]
        trimmed = c.copy()
        trimmed[k] = 0.0
        mse = float(np.mean((idwt(trimmed, 4096, 4) - x) ** 2))
        assert mse == pytest.approx(coef**2 / x.size, rel=1e-9)

    def test_zeroed_coefficient_changes_contiguous_region(self):
        """A single coarse coefficient only affects a local parameter block."""
        x = np.random.default_rng(7).normal(size=4096)
        trimmed = dwt(x, 4)
        trimmed[100] = 0.0
        diff = np.abs(idwt(trimmed, 4096, 4) - x)
        affected = np.flatnonzero(diff > 1e-12)
        assert affected.size > 0
        span = affected[-1] - affected[0] + 1
        assert span == affected.size  # contiguous
        assert span < 128  # localized: ~ filter support * 2^levels

    def test_corrupt_layout_rejected(self):
        """A coefficient count that (source_len, levels) does not give is
        rejected: a length-50 vector's coefficients read as a length-51
        one's, and an array with one coefficient too many."""
        c = dwt(np.arange(50.0), 4)
        with pytest.raises(ValueError, match="corrupt layout"):
            idwt(c, 51, 4)
        with pytest.raises(ValueError, match="corrupt layout"):
            idwt(np.append(c, 0.0), 50, 4)

    def test_no_level_case(self):
        """Inputs shorter than the filter pass through untouched."""
        x = np.array([1.0, -2.0, 3.0])
        c = dwt(x, 4)
        assert coeff_layout(3, 4) == (("A0", 3),)
        np.testing.assert_array_equal(c, x)
        np.testing.assert_array_equal(idwt(c, 3, 4), x)



class TestRoundTripProperty:
    """Size, reconstruction and size checking for any length and level count."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 5000), levels=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_dwt_idwt(self, n, levels, seed):
        x = np.random.default_rng(seed).normal(size=n)
        c = dwt(x, levels)
        assert c.size == coeff_length(n, levels)
        back = idwt(c, n, levels)
        assert np.max(np.abs(back - x)) <= 1e-10
        if levels == 0:
            assert back.tobytes() == x.tobytes() and c.tobytes() == x.tobytes()
        with pytest.raises(ValueError):
            idwt(np.append(c, 0.0), n, levels)
        with pytest.raises(ValueError):
            idwt(c[:-1], n, levels)


def _row_dwt(x, levels):
    """One vector's transform as it was computed before stacks: one
    ``np.convolve`` per band and level over the extended vector."""
    a = np.asarray(x, dtype=np.float64)
    details = []
    for _ in range(levels):
        if a.size < 4:
            break
        ext = np.concatenate([a[2::-1], a, a[:-4:-1]])
        a, d = (np.convolve(ext, f, mode="valid")[1::2] for f in (FILTER_LO, FILTER_HI))
        details.append(d)
    return np.concatenate([a] + details[::-1]) if details else a.copy()


def _row_idwt(coeffs, source_len, levels):
    """One vector's inverse as it was computed before stacks."""
    lens = [source_len]
    for _ in range(levels):
        if lens[-1] < 4:
            break
        lens.append((lens[-1] + 3) // 2)
    a = np.asarray(coeffs, dtype=np.float64)[: lens[-1]]
    start = lens[-1]
    for j in range(len(lens) - 1, 0, -1):
        up_a = np.zeros(2 * lens[j])
        up_d = np.zeros(2 * lens[j])
        up_a[0::2] = a
        up_d[0::2] = coeffs[start : start + lens[j]]
        y = np.convolve(up_a, FILTER_LO[::-1]) + np.convolve(up_d, FILTER_HI[::-1])
        a = y[2 : 2 + lens[j - 1]]
        start += lens[j]
    return a.copy()


def _rows(draw_seed, rows, n, zero_share):
    """A (rows, n) stack of normals with a share of its entries set to +0.0
    or -0.0, so that signed zeros reach every tap."""
    rng = np.random.default_rng(draw_seed)
    x = rng.normal(size=(rows, n))
    zeros = rng.random((rows, n)) < zero_share
    x[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return x


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestStacks:
    """A (G, P) stack transforms row by row, bit for bit: every row equals
    that row transformed alone, by the per-vector code the stacks
    replaced, signed zeros included."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 13),
           n=st.one_of(st.integers(1, 12), st.integers(1, 5000)),
           levels=st.integers(0, 5),
           zero_share=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_per_row_transforms(self, rows, n, levels, zero_share, seed):
        x = _rows(seed, rows, n, zero_share)
        c = dwt(x, levels)
        assert c.shape == (rows, coeff_length(n, levels))
        for g in range(rows):
            np.testing.assert_array_equal(_bits(c[g]), _bits(_row_dwt(x[g], levels)))
            np.testing.assert_array_equal(_bits(dwt(x[g], levels)), _bits(c[g]))
        coeffs = _rows(seed + 1, rows, coeff_length(n, levels), zero_share)
        y = idwt(coeffs, n, levels)
        assert y.shape == (rows, n)
        for g in range(rows):
            np.testing.assert_array_equal(_bits(y[g]), _bits(_row_idwt(coeffs[g], n, levels)))
            np.testing.assert_array_equal(_bits(idwt(coeffs[g], n, levels)), _bits(y[g]))

    def test_signed_zero_rows(self):
        """All-zero rows of either sign after a nonzero row: each keeps the
        signs its own transform gives."""
        x = np.zeros((3, 40))
        x[0] = 1.0
        x[2] = -0.0
        c = dwt(x, 3)
        coeffs = np.zeros_like(c)
        coeffs[1] = -0.0
        coeffs[2, ::2] = -0.0
        y = idwt(coeffs, 40, 3)
        for g in range(3):
            np.testing.assert_array_equal(_bits(c[g]), _bits(_row_dwt(x[g], 3)))
            np.testing.assert_array_equal(_bits(y[g]), _bits(_row_idwt(coeffs[g], 40, 3)))

    @pytest.mark.parametrize("n, levels", [(2842, 4), (1001, 6), (9, 3), (3, 4), (40, 0)])
    @pytest.mark.parametrize("pick", [[0], [0, 1, 2], [0, 2, 3]],
                             ids=["one-row", "three-rows", "ragged"])
    def test_float32_stack_equals_widened(self, n, levels, pick):
        """A float32 coefficient stack inverts bitwise as the same stack
        widened to float64, and the result is float64: for one row, three
        rows, and the rows of a group that averaged anything (a fancy-indexed
        pick, as ``node.finalize_group`` takes). Zero levels is a float64
        copy too."""
        stack = _rows(n + levels, 4, coeff_length(n, levels), 0.3).astype(np.float32)[pick]
        for coeffs in (stack, stack[0]):
            y = idwt(coeffs, n, levels)
            assert y.dtype == np.float64
            np.testing.assert_array_equal(_bits(y), _bits(idwt(coeffs.astype(np.float64), n, levels)))

    def test_shapes_rejected(self):
        with pytest.raises(ValueError, match="expected a vector or a stack"):
            dwt(np.ones((2, 3, 8)), 2)
        with pytest.raises(ValueError, match="corrupt layout"):
            idwt(np.ones((2, coeff_length(50, 4) + 1)), 50, 4)
