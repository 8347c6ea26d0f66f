"""Influence measures, sensitivity, degree, shifting and junta projection.

Conventions.  The influence of coordinate i is the mu_p mean of the squared
change under flipping x_i; the negative influence is the mu_p mean of
max(0, f at x_i = 0 minus f at x_i = 1).  In both the integrand does not
depend on x_i itself, so the weight of an i-edge is the product measure of
the remaining n-1 coordinates (the value on the resampled coordinate is
immaterial; this pins down the convention left implicit by the definition
in terms of a full-point expectation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (AnyFunction, BooleanFunction, BoundedFunction, _check_open_unit,
                   average_out)
from .lattice import (coordinate_pairs, measure_weights, mobius_subsets, popcounts,
                      subcube_codes)


def influence(f: AnyFunction, i: int, p: float) -> float:
    """Mean squared change of f when coordinate i is flipped, under mu_p."""
    if not 0 <= i < f.n:
        raise ValueError(f"coordinate {i} outside [0, {f.n})")
    return _influence(_edge_change(f.table.astype(np.float64), i),
                      _edge_weights(f.n, p))


def negative_influence(f: AnyFunction, i: int, p: float) -> float:
    """Mean positive part of the drop when coordinate i goes from 0 to 1."""
    if not 0 <= i < f.n:
        raise ValueError(f"coordinate {i} outside [0, {f.n})")
    return _negative_influence(_edge_change(f.table.astype(np.float64), i),
                               _edge_weights(f.n, p))


def _edge_weights(n: int, p: float) -> np.ndarray:
    """mu_p weights of the n - 1 coordinates an edge leaves free, after the
    check on p that every influence entry point shares."""
    _check_open_unit("bias p", p)
    return measure_weights(max(n - 1, 0), p)


def _edge_change(table: np.ndarray, i: int) -> np.ndarray:
    """f at x_i = 1 minus f at x_i = 0 along every i-edge, from the float64
    table; a loop over coordinates converts the table once."""
    edges = coordinate_pairs(table, i)
    return (edges[:, 1, :] - edges[:, 0, :]).reshape(-1)


def _influence(change: np.ndarray, w: np.ndarray) -> float:
    """Influence from the edge changes and the (n-1)-coordinate edge weights."""
    return float(w @ change ** 2)


def _negative_influence(change: np.ndarray, w: np.ndarray) -> float:
    """Negative influence from the edge changes and edge weights.

    Keeps the bits of w @ max(a - b, 0): b - a is exactly -(a - b), and 0.0
    minus the sum turns an all-zero sum into +0.0 whatever the signs of its
    terms.
    """
    return float(0.0 - w @ np.minimum(change, 0.0))


def is_monotone(f: AnyFunction) -> bool:
    """Exhaustive edge check: no coordinate raise may decrease the value."""
    for i in range(f.n):
        edges = coordinate_pairs(f.table, i)
        if np.any(edges[:, 0, :] > edges[:, 1, :]):
            return False
    return True


def sensitivity(f: BooleanFunction) -> int:
    """Max over points of the number of value-flipping coordinate flips."""
    counts = np.zeros(1 << f.n, dtype=np.uint8)    # at most n <= 24 flips
    for i in range(f.n):
        edges = coordinate_pairs(f.table, i)
        counts_i = coordinate_pairs(counts, i)
        counts_i += (edges[:, 0, :] != edges[:, 1, :])[:, None, :]
    return int(counts.max(initial=0))


def degree(f: AnyFunction, tol: float = 1e-9) -> int:
    """Largest |S| carrying a nonzero Fourier coefficient, at any bias.

    That is the largest |S| whose subset-Moebius coefficient exceeds ``tol``
    in size. For a 0/1 table these are integers of magnitude <= 2^n, exact in
    float64, so the answer is exact for any ``tol`` < 1; for a bounded table
    ``tol`` absorbs rounding.
    """
    coeffs = mobius_subsets(f.table.astype(np.float64), f.n)
    return int(popcounts(f.n)[np.abs(coeffs) > tol].max(initial=0))


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-coordinate influence summary of one function at one bias."""

    p: float
    influences: tuple[float, ...]
    negative_influences: tuple[float, ...]
    max_sensitivity: int | None = None
    degree: int | None = None
    monotone: bool = field(default=False)


def influence_profile(f: AnyFunction, p: float) -> InfluenceProfile:
    w = _edge_weights(f.n, p)
    infl = neg = ()
    if f.n:
        table = f.table.astype(np.float64)
        changes = (_edge_change(table, i) for i in range(f.n))
        infl, neg = zip(*((_influence(c, w), _negative_influence(c, w)) for c in changes))
    s = d = None
    if isinstance(f, BooleanFunction):
        s = sensitivity(f)
        d = degree(f)
    return InfluenceProfile(p=p, influences=infl, negative_influences=neg,
                            max_sensitivity=s, degree=d, monotone=is_monotone(f))


def shift(f: AnyFunction, i: int) -> AnyFunction:
    """Sort every i-edge: min goes to x_i = 0, max to x_i = 1."""
    if not 0 <= i < f.n:
        raise ValueError(f"coordinate {i} outside [0, {f.n})")
    table = f.table.copy()
    edges = coordinate_pairs(table, i)
    lo, hi = edges[:, 0, :], edges[:, 1, :]
    lo[...], hi[...] = np.minimum(lo, hi), np.maximum(lo, hi)
    return type(f)(f.n, table)


def monotonize(f: AnyFunction) -> AnyFunction:
    """Shift every coordinate in turn; the result is monotone.

    Each stage moves the function by at most its own negative influence in
    L1, so the total displacement is controlled by the largest negative
    influence of f (up to the ((1-p)p)^(-n) * n blow-up of the aggregate
    bound).
    """
    out = f
    for i in range(f.n):
        out = shift(out, i)
    return out


def junta_project(f: AnyFunction, coords, p: float) -> BoundedFunction:
    """Average f over the coordinates outside ``coords`` under mu_p.

    The output lives on the full n coordinates but depends only on
    ``coords`` (the L2-closest such function).
    """
    keep = sorted(set(coords))
    table = average_out(f, keep, p).table.take(subcube_codes(f.n, keep))
    return BoundedFunction(f.n, table)


def high_influence_coordinates(f: AnyFunction, p: float, tau: float) -> list[int]:
    """Coordinates whose influence reaches tau; the junta candidate set."""
    w = _edge_weights(f.n, p)
    table = f.table.astype(np.float64)
    return [i for i in range(f.n) if _influence(_edge_change(table, i), w) >= tau]
