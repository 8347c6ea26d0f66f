"""p-biased Fourier-Walsh transform and tail weights.

The orthonormal basis character of a subset S at bias p is
prod over i in S of (x_i - p) / sqrt(p(1-p)); a function expands as
f = sum over S of coeff(S) * character_S, with coeff(S) the p-biased inner
product of f with the character.  The transform runs one 2x2 butterfly per
coordinate, O(n*2^n) time over a scratch copy of the table.
"""

from __future__ import annotations

import math

import numpy as np

from .core import AnyFunction, _check_open_unit
from .lattice import apply_kernel, popcounts, working_copy


def analysis_kernel(p: float) -> np.ndarray:
    """Per-coordinate map (a, b) -> ((1-p)a + pb, sqrt(p(1-p))(b-a))."""
    s = math.sqrt(p * (1.0 - p))
    return np.array([[1.0 - p, p], [-s, s]])


def synthesis_kernel(p: float) -> np.ndarray:
    """Inverse of :func:`analysis_kernel`."""
    s = math.sqrt(p * (1.0 - p))
    return np.array([[1.0, -p / s], [1.0, (1.0 - p) / s]])


class Spectrum:
    """Fourier coefficients of one function at one fixed bias.

    The bias is stored alongside the coefficients so tail queries cannot
    silently mix spectra taken at different measures.
    """

    __slots__ = ("n", "p", "coeffs")

    def __init__(self, n: int, p: float, coeffs):
        _check_open_unit("bias p", p)
        arr = np.asarray(coeffs, dtype=np.float64)
        if arr.shape != (1 << n,):
            raise ValueError(f"coeffs shape {arr.shape}, expected ({1 << n},)")
        self.n = n
        self.p = p
        self.coeffs = arr
        self.coeffs.flags.writeable = False

    def tail_weight(self, k: int) -> float:
        """Total squared coefficient mass on sets of size >= k."""
        if not 0 <= k <= self.n + 1:
            raise ValueError(f"level {k} outside [0, {self.n + 1}]")
        mask = popcounts(self.n) >= k
        return float(np.sum(self.coeffs[mask] ** 2))


def transform_table(table: np.ndarray, n: int, p: float) -> np.ndarray:
    """Fourier coefficients of a raw table (supports leading batch axes)."""
    _check_open_unit("bias p", p)
    return apply_kernel(working_copy(table), n, analysis_kernel(p))


def synthesize_table(coeffs: np.ndarray, n: int, p: float) -> np.ndarray:
    """Inverse transform of raw coefficients (supports leading batch axes)."""
    _check_open_unit("bias p", p)
    return apply_kernel(working_copy(coeffs), n, synthesis_kernel(p))


def fourier_transform(f: AnyFunction, p: float) -> Spectrum:
    return Spectrum(f.n, p, transform_table(f.table, f.n, p))

