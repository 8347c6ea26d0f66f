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

    The stages run four at a time (see :mod:`polyspec.lattice`): a group
    of g <= 4 coordinates multiplies each vector of 2^g values by
    M = K(x)...(x)K, K = analysis_kernel(p).  An entry of M is a product of
    g kernel entries (g - 1 roundings), and BLAS sums the 2^g products m*x
    of a coefficient in an order of its own, so each product passes
    through at most 2^g - 1 additions.  On a table with entries in [0, 1]
    the values entering a group are partial coefficients of restrictions of
    the table, in [-1, 1], and each row of |M| sums to at most 1 (the rows
    of |K| sum to 1 and 2s <= 1, s = sqrt(p(1-p))).  So to first order a
    group adds at most 2^g + g - 1 <= 19g/4 rounding errors of 2^-53 and
    does not enlarge an earlier error, and every coefficient is within
    19n/4 * 2^-53 of the exact result of the same float64 kernel.
    :func:`synthesize_table` of a spectrum c is within
    (19/4)(1 + 2s)^2 n * 2^-53 * ||c||_2 <= 19n * 2^-53 * ||c||_2 in the
    mu_p-weighted root mean square: its exact stages map the plain 2-norm
    onto the weighted one isometrically, and |K|(x)...(x)|K| maps it with
    norm at most (1 + 2s)^(g/2).  At p = 1/2 every value of a 0/1 table is
    dyadic, and both directions are exact.  Where the 16 x 16 matrix has an
    entry that is not a normal number, below about p = 1.2e-77 for this
    kernel (p^4 underflows) and 1.5e-154 for the synthesis kernel
    ((p/(1 - p))^2 underflows), the groups shrink to the largest g whose
    matrix is normal, down to g = 1, K itself, with 2 roundings per stage.
    Every g stays within the bounds derived above, plus the underflow that
    a stagewise run in float64 meets as well.
    """
    _check_open_unit("bias p", p)
    return apply_kernel(working_copy(table), n, analysis_kernel(p))


def synthesize_table(coeffs: np.ndarray, n: int, p: float) -> np.ndarray:
    """Inverse transform of raw coefficients (supports leading batch axes)."""
    _check_open_unit("bias p", p)
    return apply_kernel(working_copy(coeffs), n, synthesis_kernel(p))


def fourier_transform(f: AnyFunction, p: float) -> Spectrum:
    return Spectrum(f.n, p, transform_table(f.table, f.n, p))

