"""Influence measures, sensitivity, degree, shifting and monotonization.

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

from .core import (AnyFunction, BooleanFunction, _check_boolean, _check_closed_unit,
                   _check_open_unit)
from .lattice import (_partner_bits, coordinate_pairs, measure_weights, mobius_subsets, popcounts,
                      subset_mask)

DEGREE_TOL = 1e-9   # Moebius coefficients at most this size count as zero in degree


def influence(f: AnyFunction, i: int, p: float) -> float:
    """Mean squared change of f when coordinate i is flipped, under mu_p."""
    subset_mask(f.n, [i])
    return _edge_measures(f.table.astype(np.float64), i, _edge_weights(f.n, p))[0]


def negative_influence(f: AnyFunction, i: int, p: float) -> float:
    """Mean positive part of the drop when coordinate i goes from 0 to 1."""
    subset_mask(f.n, [i])
    return _edge_measures(f.table.astype(np.float64), i, _edge_weights(f.n, p))[1]


def _influences(f: AnyFunction, p: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(influences, negative influences) at every coordinate, from one
    float64 copy of the table and one edge-weight table."""
    w = _edge_weights(f.n, p)
    table = f.table.astype(np.float64)
    values = [_edge_measures(table, i, w) for i in range(f.n)]
    return tuple(zip(*values)) if values else ((), ())


def _edge_weights(n: int, p: float) -> np.ndarray:
    """mu_p weights of the n - 1 coordinates an edge leaves free, after the
    check on p that every influence entry point shares."""
    _check_open_unit("bias p", p)
    return measure_weights(max(n - 1, 0), p)


def _edge_measures(table: np.ndarray, i: int, w: np.ndarray) -> tuple[float, float]:
    """Influence and negative influence of coordinate i from the float64
    table and the (n-1)-coordinate edge weights.

    The change along every i-edge is f at x_i = 1 minus f at x_i = 0.  The
    negative influence keeps the bits of w @ max(a - b, 0): b - a is exactly
    -(a - b), and 0.0 minus the sum turns an all-zero sum into +0.0 whatever
    the signs of its terms.
    """
    edges = coordinate_pairs(table, i)
    change = (edges[:, 1, :] - edges[:, 0, :]).reshape(-1)
    return float(w @ change ** 2), float(0.0 - w @ np.minimum(change, 0.0))


def is_monotone(f: AnyFunction) -> bool:
    """Exhaustive edge check: no coordinate raise may decrease the value.

    A Boolean table is checked on its bits packed 8 points per byte: it is
    monotone iff no point with x_i = 1 is 0 where its partner x - 2^i is 1.
    """
    if isinstance(f, BooleanFunction):
        packed = np.packbits(f.table, bitorder="little")
        for i in range(f.n):
            above = _partner_bits(packed, i)
            above |= packed     # differs from packed where the point is 0, its partner 1
            if not np.array_equal(above, packed):
                return False
        return True
    for i in range(f.n):
        edges = coordinate_pairs(f.table, i)
        if np.any(edges[:, 0, :] > edges[:, 1, :]):
            return False
    return True


def sensitivity(f: BooleanFunction) -> int:
    """Max over points of the number of value-flipping coordinate flips, for
    a Boolean table.

    The per-point flip counts are kept as bit-sliced planes of bits packed
    8 points per byte (plane k holds bit k of every count), and the maximum
    is read from the top plane down.
    """
    _check_boolean("sensitivity", f)
    packed = np.packbits(f.table, bitorder="little")
    planes = [np.zeros_like(packed) for _ in range(f.n.bit_length())]
    for i in range(f.n):
        carry = _partner_bits(packed, i)
        carry |= _partner_bits(packed, i, upper=False)
        carry ^= packed     # 1 where flipping x_i flips f
        for plane in planes[:(i + 1).bit_length()]:     # the planes a count <= i + 1 uses
            plane ^= carry
            carry &= ~plane     # the bits that were 1 before the add
    best, top = 0, np.full_like(packed, 0xFF)     # the points still at the maximum
    for k in reversed(range(len(planes))):
        planes[k] &= top
        if planes[k].any():
            best, top = best | 1 << k, planes[k]
    return best


def degree(f: AnyFunction) -> int:
    """Largest |S| carrying a nonzero Fourier coefficient, at any bias.

    That is the largest |S| whose subset-Moebius coefficient exceeds
    DEGREE_TOL in size. For a 0/1 table these are integers of magnitude
    <= 2^n, exact in float64, so the answer is exact; for a bounded table
    the tolerance absorbs rounding.
    """
    coeffs = mobius_subsets(f.table.astype(np.float64), f.n)
    return int(popcounts(f.n)[np.abs(coeffs) > DEGREE_TOL].max(initial=0))


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
    infl, neg = _influences(f, p)
    s = d = None
    if isinstance(f, BooleanFunction):
        s = sensitivity(f)
        d = degree(f)
    return InfluenceProfile(p=p, influences=infl, negative_influences=neg,
                            max_sensitivity=s, degree=d, monotone=is_monotone(f))


def shift(f: AnyFunction, i: int) -> AnyFunction:
    """Sort every i-edge: min goes to x_i = 0, max to x_i = 1."""
    subset_mask(f.n, [i])
    return type(f)(f.n, _sort_edges(f.table.copy(), [i]))


def monotonize(f: AnyFunction) -> AnyFunction:
    """Shift every coordinate in turn; the result is monotone.

    Each stage moves the function by at most its own negative influence in
    L1, so the total displacement is controlled by the largest negative
    influence of f (up to the ((1-p)p)^(-n) * n blow-up of the aggregate
    bound).  The stages sort one copy of the table.
    """
    return type(f)(f.n, _sort_edges(f.table.copy(), range(f.n)))


def _sort_edges(table: np.ndarray, coords) -> np.ndarray:
    """Shift each coordinate of coords in turn on a raw table, in place."""
    for i in coords:
        edges = coordinate_pairs(table, i)
        lo, hi = edges[:, 0, :], edges[:, 1, :]
        lo[...], hi[...] = np.minimum(lo, hi), np.maximum(lo, hi)
    return table


def high_influence_coordinates(f: AnyFunction, p: float, tau: float) -> list[int]:
    """Coordinates whose influence reaches tau in [0, 1]; the junta candidate set."""
    _check_closed_unit("tau", tau)
    return sorted(_ranked_coordinates(f, p, tau))


def _ranked_coordinates(f: AnyFunction, p: float, tau: float) -> list[int]:
    """Coordinates whose influence reaches tau, largest influence first and
    ties to the lower coordinate."""
    infl = _influences(f, p)[0]
    return sorted((i for i, v in enumerate(infl) if v >= tau), key=lambda i: -infl[i])
