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
    """Fourier coefficients of a raw table (supports leading batch axes).

    Each stage runs in difference form (see :mod:`polyspec.lattice`):
    a + p*(b - a) and s*(b - a).  On a table with entries in [0, 1] every
    coefficient is within 3n * 2^-53 of the exact result of the same
    float64 kernel, to first order: the values at every stage are partial
    coefficients of restrictions of the table, so they and b - a lie in
    [-1, 1]; a stage is a convex combination and a difference scaled by
    s <= 1/2, so it does not enlarge an earlier error, and it adds at most
    three rounding errors of 2^-53.  :func:`synthesize_table` of a spectrum
    c is within 5n * 2^-53 * ||c||_2 / sqrt(1 - p) in the mu_p-weighted
    root mean square, since each of its stages maps the plain 2-norm onto
    the weighted one isometrically.  Measured against a longdouble run at
    n = 12, 16, 20 and p = 0.123, 0.3, 0.9, the errors were at most
    0.1n * 2^-53 and 0.13n * 2^-53.  At p = 1/2 every value of a 0/1 table
    is dyadic, and both directions are exact.
    """
    _check_open_unit("bias p", p)
    return apply_kernel(working_copy(table), n, analysis_kernel(p))


def synthesize_table(coeffs: np.ndarray, n: int, p: float) -> np.ndarray:
    """Inverse transform of raw coefficients (supports leading batch axes)."""
    _check_open_unit("bias p", p)
    return apply_kernel(working_copy(coeffs), n, synthesis_kernel(p))


def fourier_transform(f: AnyFunction, p: float) -> Spectrum:
    return Spectrum(f.n, p, transform_table(f.table, f.n, p))

