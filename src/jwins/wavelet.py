"""Multi-level 1-D discrete wavelet transform over flat parameter vectors.

The transform is the 4-tap Symlet-2 filter bank with half-sample symmetric
boundary extension. Coefficients live in one flat vector with the
approximation band first, then detail bands from coarsest to finest:
``[A_J, D_J, D_{J-1}, ..., D_1]``. One analysis level maps a length-n signal
to ``floor((n + 3) / 2)`` coefficients per band. Decomposition stops early
when a level's input is shorter than the filter, so very short vectors get
fewer levels than requested (possibly zero, in which case the coefficient
vector is the input itself).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FILTER_LEN = 4


@dataclass(frozen=True, eq=False)
class WaveletSpec:
    """Decomposition filter pair plus the requested number of levels."""

    filter_lo: np.ndarray
    filter_hi: np.ndarray
    levels: int = 4

    def __post_init__(self):
        lo = np.asarray(self.filter_lo, dtype=np.float64)
        hi = np.asarray(self.filter_hi, dtype=np.float64)
        object.__setattr__(self, "filter_lo", lo)
        object.__setattr__(self, "filter_hi", hi)
        if lo.shape != (FILTER_LEN,) or hi.shape != (FILTER_LEN,):
            raise ValueError("filters must have exactly %d taps" % FILTER_LEN)
        if abs(float(lo.sum()) - np.sqrt(2.0)) > 1e-12:
            raise ValueError("low-pass filter must sum to sqrt(2)")
        mirror = lo[::-1] * np.array([1.0, -1.0, 1.0, -1.0])
        if float(np.max(np.abs(hi - mirror))) > 1e-12:
            raise ValueError("high-pass filter is not the quadrature mirror of the low-pass")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")


@dataclass(eq=False)
class WaveletCoeffs:
    """Flat coefficient vector with its band layout and original length.

    ``layout`` is a tuple of ``(band_name, length)`` pairs in storage order,
    e.g. ``(("A3", 5), ("D3", 5), ("D2", 7), ("D1", 12))``. The layout plus
    ``source_len`` is everything the inverse transform needs.
    """

    data: np.ndarray
    layout: tuple[tuple[str, int], ...]
    source_len: int

    def band_range(self, name: str) -> tuple[int, int]:
        """Half-open [start, stop) range of a named band in ``data``."""
        start = 0
        for band, length in self.layout:
            if band == name:
                return start, start + length
            start += length
        raise KeyError("no band named %r" % name)

    def band(self, name: str) -> np.ndarray:
        """View of one band's coefficients."""
        start, stop = self.band_range(name)
        return self.data[start:stop]


def sym2_filters(levels: int = 4) -> WaveletSpec:
    """Symlet-2 decomposition filters in closed form.

    The low-pass taps are (1 - sqrt(3), 3 - sqrt(3), 3 + sqrt(3), 1 + sqrt(3))
    divided by 4*sqrt(2); the high-pass filter is its quadrature mirror
    ``g[k] = (-1)^k * h[3 - k]``.
    """
    r3 = np.sqrt(3.0)
    den = 4.0 * np.sqrt(2.0)
    lo = np.array([1.0 - r3, 3.0 - r3, 3.0 + r3, 1.0 + r3]) / den
    hi = lo[::-1] * np.array([1.0, -1.0, 1.0, -1.0])
    return WaveletSpec(lo, hi, levels)


def _level_lengths(source_len: int, levels: int) -> list[int]:
    """Per-level input lengths [n, n_1, ..., n_J] after early stopping."""
    lens = [source_len]
    for _ in range(levels):
        if lens[-1] < FILTER_LEN:
            break
        lens.append((lens[-1] + 3) // 2)
    return lens


def coeff_layout(source_len: int, levels: int) -> tuple[tuple[str, int], ...]:
    """Band layout produced by ``dwt`` for a given input length.

    Returns ``(("A_J", c_J), ("D_J", c_J), ..., ("D1", c_1))`` where J is the
    achieved level count. When the input is shorter than the filter no level
    is applied and the layout is the single band ``("A0", source_len)``.
    """
    if source_len < 1:
        raise ValueError("empty vector")
    lens = _level_lengths(source_len, levels)
    achieved = len(lens) - 1
    if achieved == 0:
        return (("A0", source_len),)
    bands = [("A%d" % achieved, lens[-1])]
    for j in range(achieved, 0, -1):
        bands.append(("D%d" % j, lens[j]))
    return tuple(bands)


def coeff_length(source_len: int, levels: int) -> int:
    """Total coefficient count for a given input length and level budget."""
    return sum(length for _, length in coeff_layout(source_len, levels))


def _analyze(a: np.ndarray, spec: WaveletSpec) -> tuple[np.ndarray, np.ndarray]:
    # Half-sample symmetric extension by 3 on both ends, dense correlation,
    # then keep outputs at odd phase. Yields floor((n + 3) / 2) per band.
    # Slicing builds the extension; a level only runs when n >= FILTER_LEN.
    ext = np.concatenate([a[2::-1], a, a[:-4:-1]])
    lo = np.convolve(ext, spec.filter_lo, mode="valid")[1::2]
    hi = np.convolve(ext, spec.filter_hi, mode="valid")[1::2]
    return lo, hi


def _synthesize(ca: np.ndarray, cd: np.ndarray, out_len: int, spec: WaveletSpec) -> np.ndarray:
    # Adjoint of the analysis step restricted to the kept coefficient range:
    # upsample each band at even phase, filter with the time-reversed pair,
    # sum, and crop the transient introduced by the boundary extension.
    up_a = np.zeros(2 * len(ca))
    up_d = np.zeros(2 * len(cd))
    up_a[0::2] = ca
    up_d[0::2] = cd
    y = np.convolve(up_a, spec.filter_lo[::-1]) + np.convolve(up_d, spec.filter_hi[::-1])
    return y[FILTER_LEN - 2 : FILTER_LEN - 2 + out_len]


def dwt(x: np.ndarray, spec: WaveletSpec) -> WaveletCoeffs:
    """Forward multi-level transform of a flat vector.

    Args:
        x: 1-D array of parameters (any float dtype; promoted to float64).
        spec: filter pair and level budget.

    Returns:
        WaveletCoeffs whose ``data`` holds all bands concatenated in layout
        order. Raises ValueError on an empty input.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("expected a 1-D vector")
    if a.size < 1:
        raise ValueError("empty vector")
    layout = coeff_layout(a.size, spec.levels)
    details = []
    achieved = len([b for b, _ in layout if b.startswith("D")])
    for _ in range(achieved):
        a, d = _analyze(a, spec)
        details.append(d)
    data = np.concatenate([a] + details[::-1]) if details else a.copy()
    return WaveletCoeffs(data, layout, int(np.asarray(x).size))


def idwt(coeffs: WaveletCoeffs, spec: WaveletSpec) -> np.ndarray:
    """Inverse multi-level transform back to a flat parameter vector.

    The band layout is re-derived from ``source_len`` and checked against the
    stored one; any disagreement (wrong band names, lengths, or total size)
    raises ValueError("corrupt layout").
    """
    data = np.asarray(coeffs.data, dtype=np.float64)
    achieved = len([b for b, _ in coeffs.layout if b.startswith("D")])
    expected = coeff_layout(coeffs.source_len, achieved if achieved else spec.levels)
    if tuple(coeffs.layout) != expected or data.size != sum(n for _, n in expected):
        raise ValueError("corrupt layout")
    lens = _level_lengths(coeffs.source_len, achieved)
    if achieved == 0:
        return data.copy()
    bands = []
    start = 0
    for _, length in coeffs.layout:
        bands.append(data[start : start + length])
        start += length
    a = bands[0]
    for j in range(achieved, 0, -1):
        # bands[1] is D_J, bands[achieved] is D_1; output length is the input
        # length of the level that produced this band.
        d = bands[1 + (achieved - j)]
        a = _synthesize(a, d, lens[j - 1], spec)
    return a
