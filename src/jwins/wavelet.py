"""Multi-level 1-D discrete wavelet transform over flat parameter vectors.

The transform is the 4-tap Symlet-2 filter bank with half-sample symmetric
boundary extension; its taps are the module constants ``FILTER_LO`` and
``FILTER_HI``, and the level count is the transform's only setting.
Coefficients live in one flat array with the approximation band first, then
detail bands from coarsest to finest: ``[A_J, D_J, D_{J-1}, ..., D_1]``. One
analysis level maps a length-n signal to ``floor((n + 3) / 2)`` coefficients
per band, so the band layout follows from the input length and the level
count alone (``coeff_layout``). Decomposition stops early when a level's
input is shorter than the filter, so very short vectors get fewer levels
than requested. Zero levels, asked for or reached that way, is the identity:
the coefficient array is a copy of the input.
"""

from __future__ import annotations

import numpy as np

FILTER_LEN = 4

# Symlet-2 decomposition low-pass taps in closed form,
# (1 - sqrt(3), 3 - sqrt(3), 3 + sqrt(3), 1 + sqrt(3)) / (4 * sqrt(2)), and
# the high-pass quadrature mirror g[k] = (-1)^k * h[3 - k].
_R3 = np.sqrt(3.0)
FILTER_LO = np.array([1.0 - _R3, 3.0 - _R3, 3.0 + _R3, 1.0 + _R3]) / (4.0 * np.sqrt(2.0))
FILTER_HI = FILTER_LO[::-1] * np.array([1.0, -1.0, 1.0, -1.0])
FILTER_LO.flags.writeable = False
FILTER_HI.flags.writeable = False


def _level_lengths(source_len: int, levels: int) -> list[int]:
    """Per-level input lengths [n, n_1, ..., n_J] after early stopping."""
    if source_len < 1:
        raise ValueError("empty vector")
    if levels < 0:
        raise ValueError("levels must be >= 0")
    lens = [source_len]
    for _ in range(levels):
        if lens[-1] < FILTER_LEN:
            break
        lens.append((lens[-1] + 3) // 2)
    return lens


def coeff_layout(source_len: int, levels: int) -> tuple[tuple[str, int], ...]:
    """Band names and lengths, in storage order, of ``dwt``'s output.

    Returns ``(("A_J", c_J), ("D_J", c_J), ..., ("D1", c_1))`` where J is the
    achieved level count. When no level is applied the layout is the single
    band ``("A0", source_len)``.
    """
    lens = _level_lengths(source_len, levels)
    achieved = len(lens) - 1
    bands = [("A%d" % achieved, lens[-1])]
    for j in range(achieved, 0, -1):
        bands.append(("D%d" % j, lens[j]))
    return tuple(bands)


def coeff_length(source_len: int, levels: int) -> int:
    """Total coefficient count for a given input length and level budget."""
    lens = _level_lengths(source_len, levels)
    return lens[-1] + sum(lens[1:])


def _analyze(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Half-sample symmetric extension by 3 on both ends, dense correlation,
    # then keep outputs at odd phase. Yields floor((n + 3) / 2) per band.
    # Slicing builds the extension; a level only runs when n >= FILTER_LEN.
    ext = np.concatenate([a[2::-1], a, a[:-4:-1]])
    lo = np.convolve(ext, FILTER_LO, mode="valid")[1::2]
    hi = np.convolve(ext, FILTER_HI, mode="valid")[1::2]
    return lo, hi


def _synthesize(ca: np.ndarray, cd: np.ndarray, out_len: int) -> np.ndarray:
    # Adjoint of the analysis step restricted to the kept coefficient range:
    # upsample each band at even phase, filter with the time-reversed pair,
    # sum, and crop the transient introduced by the boundary extension.
    up_a = np.zeros(2 * len(ca))
    up_d = np.zeros(2 * len(cd))
    up_a[0::2] = ca
    up_d[0::2] = cd
    y = np.convolve(up_a, FILTER_LO[::-1]) + np.convolve(up_d, FILTER_HI[::-1])
    return y[FILTER_LEN - 2 : FILTER_LEN - 2 + out_len]


def dwt(x: np.ndarray, levels: int) -> np.ndarray:
    """Forward multi-level transform of a flat vector.

    Args:
        x: 1-D array of parameters (any float dtype; promoted to float64).
        levels: requested level count; 0 returns a float64 copy of ``x``.

    Returns:
        The ``coeff_length(x.size, levels)`` coefficients, all bands
        concatenated in ``coeff_layout`` order. Raises ValueError on an
        empty input.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("expected a 1-D vector")
    details = []
    for _ in range(len(_level_lengths(a.size, levels)) - 1):
        a, d = _analyze(a)
        details.append(d)
    return np.concatenate([a] + details[::-1]) if details else a.copy()


def idwt(coeffs: np.ndarray, source_len: int, levels: int) -> np.ndarray:
    """Inverse multi-level transform back to a flat parameter vector.

    ``source_len`` and ``levels`` are the arguments the forward transform
    saw. A coefficient array whose size is not ``coeff_length(source_len,
    levels)`` raises ValueError("corrupt layout ...").
    """
    data = np.asarray(coeffs, dtype=np.float64)
    lens = _level_lengths(source_len, levels)
    want = coeff_length(source_len, levels)
    if data.ndim != 1 or data.size != want:
        raise ValueError("corrupt layout: %d coefficients, expected %d for length %d at %d levels"
                         % (data.size, want, source_len, levels))
    if len(lens) == 1:
        return data.copy()
    a = data[: lens[-1]]
    start = lens[-1]
    for j in range(len(lens) - 1, 0, -1):
        # D_J comes first after the approximation, D_1 last; each level
        # synthesizes back to the input length of the level that made it.
        a = _synthesize(a, data[start : start + lens[j]], lens[j - 1])
        start += lens[j]
    return a
