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

``dwt`` and ``idwt`` also take a (G, P) stack of parameter rows or a (G, C)
stack of coefficient rows, and a vector is the one-row stack. A level runs
over the rows laid end to end: analysis as one ``np.correlate`` per band over
the rows' own boundary extensions, synthesis by output phase (even outputs
take taps 1 and 3, odd ones taps 0 and 2) as one 2-tap ``np.correlate`` per
band and phase. Every row is bit-identical to that row transformed alone.
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


def _analyze(a: np.ndarray, detail: np.ndarray) -> np.ndarray:
    # Each row gets its own half-sample symmetric extension by 3 on both
    # ends; the extended rows, laid end to end, are correlated densely in
    # one call per band, and each row keeps its own outputs at odd phase,
    # floor((n + 3) / 2) per band. Every kept output is a full 4-tap product
    # inside its own row, so it equals the row's transform alone. A level
    # only runs when n >= FILTER_LEN. The detail band is written into
    # ``detail`` before the approximation is correlated, so the two dense
    # correlation buffers never coexist; the approximation is returned.
    rows, n = a.shape
    ext = np.concatenate([a[:, 2::-1], a, a[:, :-4:-1]], axis=1,
                         dtype=np.float64).ravel()
    # Row g's outputs start at g * (n + 6); its kept ones are every other
    # output from the second on. Correlating with the reversed taps is the
    # convolution, computed by the same kernel without np.convolve's
    # argument handling.
    shape = (rows, (n + 3) // 2)
    strides = (8 * (n + 6), 16)
    detail[:] = np.ndarray(shape, np.float64, np.correlate(ext, FILTER_HI[::-1], "valid"), 8, strides)
    return np.ndarray(shape, np.float64, np.correlate(ext, FILTER_LO[::-1], "valid"), 8, strides)


def _synthesize(ca: np.ndarray, cd: np.ndarray, out_len: int) -> np.ndarray:
    # Adjoint of the analysis step on the kept coefficient range, by output
    # phase: output 2m + 1 is b[m] f[0] + b[m + 1] f[2] and output 2m is
    # b[m] f[1] + b[m + 1] f[3], the LO band's term first and the HI band's
    # added. Each phase is one 2-tap np.correlate per band over the rows,
    # widened once and laid end to end: row g's m-th output of a phase is
    # entry g * c + m, and the even phase is kept from output 2 on.
    rows, c = ca.shape
    a, d = (np.ascontiguousarray(b, np.float64).ravel() for b in (ca, cd))
    out = np.empty((rows, out_len))
    for start, taps in ((1, slice(0, 3, 2)), (2, slice(1, 4, 2))):
        y = np.correlate(a, FILTER_LO[taps], "valid")
        y += np.correlate(d, FILTER_HI[taps], "valid")
        kept = out[:, start::2]
        kept[:] = np.ndarray(kept.shape, np.float64, y, 8 * (start // 2), (8 * c, 8))
    # Output 0 overlaps only taps 1 to 3, over b[0], a zero and b[1]; the
    # per-vector definition takes it with the BLAS dot, whose rounding
    # differs from the 2-tap kernel's, so every row takes it from a stack of
    # (1, 3) @ (3, 1) products, one BLAS dot each. (A (G, 3) @ (3,) product
    # runs a matrix-vector kernel, whose rounding BLAS does not tie to it.)
    head = np.zeros((2, rows, 1, 3))
    head[:, :, 0, ::2] = ca[:, :2], cd[:, :2]
    out[:, 0] = (head[0] @ FILTER_LO[1:, None] + head[1] @ FILTER_HI[1:, None])[:, 0, 0]
    return out


def dwt(x: np.ndarray, levels: int) -> np.ndarray:
    """Forward multi-level transform of a flat vector or of each row of a
    stack.

    Args:
        x: 1-D array of parameters, or a (G, P) stack of G such rows (any
            float dtype; promoted to float64).
        levels: requested level count; 0 returns a float64 copy of ``x``.

    Returns:
        Per row, the ``coeff_length(P, levels)`` coefficients, all bands
        concatenated in ``coeff_layout`` order: a vector for a vector, a
        (G, C) stack for a stack. Each row is bit-identical to that row
        transformed alone. Raises ValueError on an empty row.
    """
    # A float32 input is widened by the first level's extension, not copied.
    a = np.asarray(x)
    if a.ndim not in (1, 2):
        raise ValueError("expected a vector or a stack of rows")
    rows = a[None] if a.ndim == 1 else a
    lens = _level_lengths(rows.shape[1], levels)
    if len(lens) == 1:
        return a.astype(np.float64)
    # Each level writes its detail band into its slot, from D_1 at the end
    # backwards, so no band outlives the level that made it.
    out = np.empty((rows.shape[0], coeff_length(rows.shape[1], levels)))
    end = out.shape[1]
    for band_len in lens[1:]:
        rows = _analyze(rows, out[:, end - band_len : end])
        end -= band_len
    out[:, :end] = rows
    return out.reshape(a.shape[:-1] + out.shape[1:])


def idwt(coeffs: np.ndarray, source_len: int, levels: int) -> np.ndarray:
    """Inverse multi-level transform back to a flat parameter vector, or to a
    (G, P) stack from a (G, C) stack of coefficient rows.

    ``source_len`` and ``levels`` are the arguments the forward transform
    saw. Any float dtype gives a float64 result, bitwise the one of the
    coefficients widened to float64. Each row is bit-identical to that row
    inverted alone. A row whose size is not ``coeff_length(source_len,
    levels)`` raises ValueError("corrupt layout ...").
    """
    # Not copied: ``_synthesize`` widens each band to float64 once.
    data = np.asarray(coeffs)
    lens = _level_lengths(source_len, levels)
    want = coeff_length(source_len, levels)
    if data.ndim not in (1, 2) or data.shape[-1] != want:
        raise ValueError("corrupt layout: shape %s, expected %d coefficients a row for length %d"
                         " at %d levels" % (data.shape, want, source_len, levels))
    if len(lens) == 1:
        return data.astype(np.float64)
    stack = data[None] if data.ndim == 1 else data
    a = stack[:, : lens[-1]]
    start = lens[-1]
    for j in range(len(lens) - 1, 0, -1):
        # D_J comes first after the approximation, D_1 last; each level
        # synthesizes back to the input length of the level that made it.
        a = _synthesize(a, stack[:, start : start + lens[j]], lens[j - 1])
        start += lens[j]
    return a.reshape(data.shape[:-1] + (source_len,))
