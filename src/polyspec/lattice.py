"""Subset-lattice primitives shared by every module.

Points of {0,1}^n are encoded as integers in [0, 2^n); bit i (least
significant first) carries coordinate x_i.  A point is identified with the
subset of [n] it supports, so the same integer encoding indexes truth
tables, Fourier coefficients and subset sums.  :func:`point_codes` is the
one builder of the 2^n point indices; it stores them in the smallest
unsigned dtype that holds them, so a mask test or gather over the whole
cube costs at most 4 B per point.

All O(n*2^n) operators here are per-coordinate 2x2 kernels applied stage by
stage ("butterflies").  A stage pairs up the two points that differ only in
coordinate i; for tables with leading batch axes the kernel is applied along
the last axis.

The stages run cache-tiled, as in Yates' factorial algorithm and FFHT.  A
stretch of up to 15 consecutive ascending coordinates lo..hi-1 is one run;
seen as (outer, 2^(hi-lo), 2^lo), the table splits into tiles of at most
2^16 elements (512 KiB of float64) that hold whole edges of every stage in
the run, and each tile takes all of the run's stages while it is in cache.
The n stages of a full transform are thus ceil(n/15) passes over memory
instead of n.  Every element still sees the same operations in the same
order, so results are bit-identical to one whole-table pass per stage.

The halves of a tile's low stages are short contiguous runs, 2^j * cols
elements at stage j of a (rows, span, cols) tile, so numpy's inner loop is
short too; in a batch of n = 4 rows every stage is such a stage.  When two
or more stages have runs under 128 elements, the tile is first copied with
those low bits as its leading axis, as in the transpose step of Bailey's
four-step FFT.  There each of those stages has halves of at least 128
contiguous elements, and the copy is written back before the tile's
remaining stages.  The copy only moves values: each one still goes through
the same multiplies and adds in the same stage order, so the bits, -0.0
and infinities included, are those of the in-place path.  Tables below
2^9 elements and single stages never take the copy.

A lower triangular kernel [[1, 0], [k10, k11]] (noise and its inverse)
writes only the x_i = 1 half of each stage; the x_i = 0 half keeps its
exact values.  Any other kernel that is not one of the unit kernels below
takes the general path, which writes both halves.  A half it computes with
coefficients 1 and 0 (1*a + 0*b, or 0*a + 1*b) turns a -0.0 into +0.0 and
an infinite partner into NaN; on any other input it gives the same bits.
An upper triangular kernel [[k00, k01], [0, 1]] therefore changes its
x_i = 1 half in those two ways; superset zeta, the one such kernel in the
library, is a unit kernel and keeps that half as it is.

Three unit kernels, [[1, 0], [1, 1]] (subset zeta), [[1, 0], [-1, 1]]
(subset Moebius) and [[1, 1], [0, 1]] (superset zeta), run each stage as
one in-place add or subtract on the written half: b = a + b, b = b - a and
a = a + b.  The multiply form k10*a + k11*b allocates three temporaries
and copies back; the in-place form streams each half once.  The bits are
the same, -0.0 and infinities included: 1.0*x is exactly x and -1.0*x
exactly -x, IEEE 754 defines b - a as b + (-a), and addition commutes.
The one possible difference is the payload of the NaN that a Moebius stage
returns when both of its operands are NaN, since b - a lists them in the
other order than -a + b.  Only these three kernels, compared entry by
entry, take the unit path; any other kernel (the inverse noise kernel at
rho = 1/2, [[1, 0], [-1, 2]], among them) keeps the multiply form.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Elements per tile: 512 KiB of float64, which stays in a 2 MiB per-core L2
# together with the tile's temporaries.
_TILE = 1 << 16
# Longest run of stages done on one tile; 2^_MAX_RUN <= _TILE / 2.
_MAX_RUN = _TILE.bit_length() - 2
# Shortest contiguous run a stage's halves may have before the tile's low
# stages move to a transposed copy; 64 and 256 measured within noise of 128.
_MIN_CHUNK = 128


def coordinate_pairs(values: np.ndarray, i: int) -> np.ndarray:
    """View of ``values`` with shape (..., blocks, 2, 2**i); axis -2 is bit i."""
    return values.reshape(values.shape[:-1] + (-1, 2, 1 << i))


def subcube_codes(n: int, coords) -> np.ndarray:
    """Sub-cube code of every point: bit k of entry x is x_{coords[k]}, in
    the smallest unsigned dtype that holds 2^len(coords) codes."""
    coords = list(coords)
    codes = np.zeros(1 << n, dtype=np.min_scalar_type((1 << len(coords)) - 1))
    for k, i in enumerate(coords):
        coordinate_pairs(codes, i)[:, 1, :] |= 1 << k
    return codes


def working_copy(table) -> np.ndarray:
    """Contiguous floating copy of a table for in-place kernel passes.

    float64 by default; an extended-precision input keeps its dtype, so
    ill-conditioned compositions (the inverse noise kernel at small
    retention has norm (2/rho - 1)^n) can be driven at higher precision
    through the same code path.
    """
    arr = np.asarray(table)
    if arr.dtype.kind == "f" and arr.dtype.itemsize >= 8:
        return np.array(arr)
    return np.array(arr, dtype=np.float64)


def apply_kernel(values: np.ndarray, n: int, kernel: np.ndarray,
                 coords=None) -> np.ndarray:
    """Apply a 2x2 kernel along each coordinate of the last axis, in place.

    kernel = [[k00, k01], [k10, k11]] maps the pair (a, b) = (value at
    x_i = 0, value at x_i = 1) to (k00*a + k01*b, k10*a + k11*b).  Stages
    run over range(n), or over ``coords`` in the order given.
    """
    update = _stage_update(kernel)
    work = values if values.flags.c_contiguous else np.ascontiguousarray(values)
    flat = work.reshape(-1)
    for lo, hi in _runs(range(n) if coords is None else coords):
        if values.shape[-1] % (1 << hi):
            raise ValueError(f"last axis of length {values.shape[-1]} has no "
                             f"coordinate {hi - 1}")
        for tile in _tiles(flat, lo, hi):
            rows, span, cols = tile.shape
            low = _low_stages(tile, hi - lo)
            if low:
                # bit j < low of the span axis leads the copy, so stage j's
                # halves are runs of 2^j * tile.size / 2^low elements
                view = tile.reshape(rows, span >> low, 1 << low, cols)
                buf = np.ascontiguousarray(view.transpose(2, 0, 1, 3))
                for j in range(low):
                    w = buf.reshape(1 << (low - j - 1), 2, -1)
                    update(w[:, 0], w[:, 1])
                view[...] = buf.transpose(1, 2, 0, 3)
            for j in range(low, hi - lo):
                w = tile.reshape(rows, span >> (j + 1), 2, 1 << j, cols)
                update(w[:, :, 0], w[:, :, 1])
    if work is not values:
        values[...] = work
    return values


def _stage_update(kernel: np.ndarray):
    """In-place update of one stage from its halves a (x_i = 0) and b
    (x_i = 1); a lower triangular kernel leaves a as it is, and the three
    unit kernels (subset zeta, subset Moebius, superset zeta) run as one
    in-place add or subtract with the bits of the multiply form (up to the
    payload of a NaN; see the module docstring)."""
    (k00, k01), (k10, k11) = kernel
    if (k00, k01, k10, k11) == (1.0, 0.0, 1.0, 1.0):
        def update(a, b):
            np.add(a, b, out=b)
    elif (k00, k01, k10, k11) == (1.0, 0.0, -1.0, 1.0):
        def update(a, b):
            np.subtract(b, a, out=b)
    elif (k00, k01, k10, k11) == (1.0, 1.0, 0.0, 1.0):
        def update(a, b):
            np.add(a, b, out=a)
    elif k00 == 1.0 and k01 == 0.0:
        def update(a, b):
            b[...] = k10 * a + k11 * b
    else:
        def update(a, b):
            a0 = a.copy()
            a[...] = k00 * a0 + k01 * b
            b[...] = k10 * a0 + k11 * b
    return update


def _low_stages(tile: np.ndarray, stages: int) -> int:
    """How many leading stages of a (rows, span, cols) tile run on a
    transposed copy: those with 2^j * cols < _MIN_CHUNK, capped so that the
    copy's runs tile.size >> low reach _MIN_CHUNK.  Zero unless two stages
    qualify, since the copy costs two passes over the tile."""
    low = min(stages, (_MIN_CHUNK // tile.shape[2]).bit_length() - 1,
              (tile.size // _MIN_CHUNK).bit_length() - 1)
    return low if low >= 2 else 0


def _runs(stages):
    """Split stages into runs [lo, hi) of consecutive ascending coordinates.

    A run holds at most _MAX_RUN stages; a descending, repeated or
    non-adjacent coordinate starts a new run, so the stage order is kept.
    """
    runs = []
    for i in stages:
        if runs and i == runs[-1][1] and i - runs[-1][0] < _MAX_RUN:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    return runs


def _tiles(flat: np.ndarray, lo: int, hi: int):
    """Tiles of at most _TILE elements that hold whole edges of coordinates
    lo..hi-1: views [rows, :, cols] of ``flat`` seen as (outer, 2^(hi-lo),
    2^lo), either whole rows or column slices of one row."""
    view = flat.reshape(-1, 1 << (hi - lo), 1 << lo)
    outer, span, inner = view.shape
    rows, cols = max(1, _TILE // (span * inner)), min(inner, _TILE // span)
    for r in range(0, outer, rows):
        for c in range(0, inner, cols):
            yield view[r:r + rows, :, c:c + cols]


def zeta_subsets(values: np.ndarray, n: int) -> np.ndarray:
    """In place: out(S) = sum over A a subset of S of in(A)."""
    return apply_kernel(values, n, np.array([[1.0, 0.0], [1.0, 1.0]]))


def mobius_subsets(values: np.ndarray, n: int) -> np.ndarray:
    """In place inverse of :func:`zeta_subsets`: alternating subset sums."""
    return apply_kernel(values, n, np.array([[1.0, 0.0], [-1.0, 1.0]]))


def zeta_supersets(values: np.ndarray, n: int) -> np.ndarray:
    """In place: out(S) = sum over B a superset of S of in(B).

    The x_i = 1 half of each stage is left as it is, so out(top) = in(top)
    keeps a -0.0, and [inf, 0.0] gives [inf, 0.0], not [inf, nan].
    """
    return apply_kernel(values, n, np.array([[1.0, 1.0], [0.0, 1.0]]))


# The codes of every cube up to n = 16, shared: 256 B of uint8 and 128 KiB of
# uint16.  Larger cubes get a fresh array per call, so no 2^n buffer outlives
# the constructor that asked for it.
_CODES_U8 = np.arange(1 << 8, dtype=np.uint8)
_CODES_U16 = np.arange(1 << 16, dtype=np.uint16)
_CODES_U8.flags.writeable = _CODES_U16.flags.writeable = False


def point_codes(n: int) -> np.ndarray:
    """Every point code 0 .. 2^n - 1 (n <= 32), read-only, in the smallest
    unsigned dtype that holds them: uint8 up to n = 8, uint16 up to 16,
    else uint32.

    Up to n = 16 the result is a view of one shared module constant (one
    for n <= 8, one for 9 <= n <= 16), so a caller that builds a small
    table per call allocates no codes; above 16 it is a fresh array.
    """
    if n <= 8:
        return _CODES_U8[:1 << n]
    if n <= 16:
        return _CODES_U16[:1 << n]
    codes = np.arange(1 << n, dtype=np.uint32)
    codes.flags.writeable = False
    return codes


@lru_cache(maxsize=32)
def popcounts(n: int) -> np.ndarray:
    """Hamming weight of every point index, as a read-only uint8 array."""
    pc = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        pc[1 << i: 1 << (i + 1)] = pc[: 1 << i] + 1
    pc.flags.writeable = False
    return pc


def measure_weights(n: int, p: float) -> np.ndarray:
    """Product-measure weights: weight(x) = p^|x| * (1-p)^(n-|x|)."""
    k = np.arange(n + 1, dtype=np.float64)
    by_weight = p ** k * (1.0 - p) ** (n - k)
    return by_weight[popcounts(n)]


def index_bits(n: int, codes: np.ndarray) -> np.ndarray:
    """Coordinate matrix: bit i of each code, shape (len(codes), n), uint8."""
    return ((codes[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`index_bits`: rows of coordinates to integer codes."""
    n = bits.shape[-1]
    return bits.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))


def subset_mask(n: int, coords) -> int:
    """Bit mask of a coordinate set, as a Python int whatever the integer
    type of the coordinates, so it masks a point-code array in its dtype;
    the library's one coordinate range check (outside [0, n) raises)."""
    mask = 0
    for i in coords:
        if not 0 <= i < n:
            raise ValueError(f"coordinate {i} outside [0, {n})")
        mask |= 1 << i
    return int(mask)
