"""Subset-lattice primitives shared by every module.

Points of {0,1}^n are encoded as integers in [0, 2^n); bit i (least
significant first) carries coordinate x_i.  A point is identified with the
subset of [n] it supports, so the same integer encoding indexes truth
tables, Fourier coefficients and subset sums.  :func:`point_codes` is the
one builder of the 2^n point indices; it stores them in the smallest
unsigned dtype that holds them, so a mask test or gather over the whole
cube costs at most 4 B per point.

A Boolean table also comes packed 8 points per byte, as
``np.packbits(table, bitorder="little")`` lays it out (the ``bits_hex`` of
a function file): point x is bit x mod 8 of byte x // 8, and at n < 3 the
one byte ends in zero padding bits.  Coordinates 0, 1 and 2 pair points
inside a byte; coordinate i >= 3 pairs whole bytes, as coordinate i - 3 of
the byte array.  :func:`_partner_bits` moves each point's partner across
coordinate i into its place, by a shift and a mask inside each byte for
i < 3 and by whole-byte halves through :func:`coordinate_pairs` for i >= 3.
The partner of a padding bit is a padding bit, so padding stays 0.  The
Boolean edge predicates (monotonicity, minterms, sensitivity) run on it,
one byte per 8 points, and are exact: they only move and compare bits.

All O(n*2^n) operators here are per-coordinate 2x2 kernels applied stage by
stage ("butterflies").  A stage pairs up the two points that differ only in
coordinate i; for tables with leading batch axes the kernel is applied along
the last axis.

The stages run cache-tiled, as in Yates' factorial algorithm and FFHT.  A
stretch of up to 15 consecutive ascending coordinates lo..hi-1 is one run;
seen as (outer, 2^(hi-lo), 2^lo), the table splits into tiles of at most
2^16 elements (512 KiB of float64) that hold whole edges of every stage in
the run, and each tile takes all of the run's stages while it is in cache.
The n stages of a full noise pass are thus ceil(n/15) passes over memory
instead of n.  Every element still sees the same operations in the same
order, so results are bit-identical to one whole-table pass per stage.
A kernel that runs as group products (below) instead takes runs of at
most g <= 4 stages, each as one matrix product per tile.

The halves of a tile's low stages are short contiguous runs, 2^j * cols
elements at stage j of a (rows, span, cols) tile, so numpy's inner loop is
short too; in a batch of n = 4 rows every stage is such a stage.  When two
or more stages have runs under 128 elements, the tile is first copied, into
the call's scratch block (below), with those low bits as its leading axis,
as in the transpose step of Bailey's four-step FFT.  There each of those
stages has halves of at least 128 contiguous elements, and the copy is
written back before the tile's remaining stages.  The copy only moves
values: each one still goes through the same multiplies and adds in the
same stage order, so the bits, -0.0 and infinities included, are those of
the in-place path.  Tables below 2^9 elements and single stages never take
the copy.

A run above coordinate 16 cuts the table into column slices: at n >= 20
the run 15..n-1 gives tiles of 2^(n-15) runs of at most 2048 contiguous
elements, 256 KiB apart, likely all on the same cache sets.  Such a tile
(its run has at least five stages) that takes no transposed low stages is
copied once into the scratch block, takes all of the run's stages there,
and is written back once.  Like the transposed copy, this only moves values, so
the bits are those of the in-place path.  Runs of 4096 elements and more
(n <= 19) stay in place; see _MAX_STAGED_COLS.

Each call allocates one scratch block in the work's dtype: room for two
halves of the largest tile and for its transposed or staged copy, or for
a grouped kernel's products.  A stage allocates nothing.  The multiply
form writes the products k10*a and k11*b into the block with out=, adds
them with the k10*a product first (so a NaN keeps the payload the plain
expression gives it) and copies the sum back into its half.  With fresh
temporaries per stage, a 2^22 transform ran about 30% slower in some
processes, a mode fixed for the process's life and set by how it was
launched; with the block it did not.

A kernel's four entries pick one of two forms (_groups).  A kernel that
leaves one half of each stage as it is runs stage by stage: a lower
triangular kernel [[1, 0], [k10, k11]] (noise and its inverse) writes
k10*a + k11*b into the x_i = 1 half in the multiply form, and the
x_i = 0 half keeps its exact values; superset zeta [[1, 1], [0, 1]]
writes only the x_i = 0 half.  Every other kernel runs as group products
(below).

Three unit kernels, [[1, 0], [1, 1]] (subset zeta), [[1, 0], [-1, 1]]
(subset Moebius) and [[1, 1], [0, 1]] (superset zeta), run each stage as
one in-place add or subtract on the written half: b = a + b, b = b - a and
a = a + b.  The multiply form k10*a + k11*b makes four passes over the
half (two products, their sum, the copy back); the in-place form streams
each half once.  The bits are the same, -0.0 and infinities included:
1.0*x is exactly x and -1.0*x exactly -x, IEEE 754 defines b - a as
b + (-a), and addition commutes.  The one possible difference is the
payload of the NaN that a Moebius stage returns when both of its operands
are NaN, since b - a lists them in the other order than -a + b.  Only
these three kernels, compared entry by entry, take the unit path; any
other lower triangular kernel (the inverse noise kernel at rho = 1/2,
[[1, 0], [-1, 2]], among them) keeps the multiply form.

A grouped kernel K runs g consecutive coordinates at a time, g the
largest of 4, 3 and 2 for which every entry of the 2^g x 2^g matrix
K(x)...(x)K is a normal number (neither zero, subnormal, infinite nor
NaN), and 1, K itself, when none is: the blocked form of a
Kronecker-product transform (Van Loan, Computational Frameworks for the
FFT, 1992).  A group multiplies every vector of 2^g values by the cached
matrix, one np.matmul call per tile, so BLAS does the arithmetic.  The
products go to the scratch block and are copied back, so no table-sized
temporary appears.  BLAS may round a column of M @ X differently when X
has another width: with numpy 2.4.6 and OpenBLAS 0.3.31 a column gets
other bits when X is 1, 2, 3, 9, 17 or 100 columns wide than when it is
8 or 1000 wide.  So every operand has one shape that the group's first
coordinate lo alone sets: at lo = 0, _WIDTH rows of 2^g values times the
transposed matrix, the rows past the last multiple of _WIDTH zero padded
in the block; above, (2^g, min(2^lo, _WIDTH)) column blocks read from the
tile.  An element's bits then do not depend on the batch shape or on its
place in the table, and not on the BLAS thread count either, since a
16 x 16 x 128 product is too small for OpenBLAS to split.  These are
other roundings of the same maps, so the bits are not the stagewise
forms'; fourier.transform_table states their error.

The Fourier kernels take g = 4 in float64 from about p = 1.2e-77 up for
analysis (its matrix holds p^4) and from about p = 1.5e-154 up for
synthesis (its matrix holds (p/(1 - p))^2).  Below, the group shrinks:

    p          1e-100  1e-160  1e-200  1e-300  5e-324
    analysis      3       1       1       1       1
    synthesis     4       3       3       2       1
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

# Elements per tile: 512 KiB of float64, which stays in a 2 MiB per-core L2
# together with the call's 1 MiB scratch block (whose last 512 KiB hold a
# staged or transposed tile, so a staged tile stays within the same 1 MiB).
_TILE = 1 << 16
# Longest run of stages done on one tile; 2^_MAX_RUN <= _TILE / 2.
_MAX_RUN = _TILE.bit_length() - 2
# Shortest contiguous run a stage's halves may have before the tile's low
# stages move to a transposed copy; 64 and 256 measured within noise of 128.
_MIN_CHUNK = 128
# Longest contiguous run of a column tile whose stages all run on a copy in
# the scratch block.  Measured on both kernels side by side in one process
# (numpy 2.4.6): the copy took the analysis kernel 24.1 -> 20.5 ms at n = 20
# (runs of 2048) and 124 -> 93 ms at n = 22, and the noise kernel 62 -> 55 ms
# at n = 22; at n = 19 (runs of 4096) it changed either by -2% to +3%, and at
# n = 18 (runs of 8192) it made both 2-5% slower.
_MAX_STAGED_COLS = 2048
# Rows or columns of every Fourier group-product operand, one shape whatever
# the table's layout.  Measured on transform_table (numpy 2.4.6, one BLAS
# thread): 256 was within 3% of 128 from n = 16 up but took a lone n = 4
# row 12-14 us against 10 us; 64 was 6-8% slower at n = 20 and 22.
_WIDTH = 128


def coordinate_pairs(values: np.ndarray, i: int) -> np.ndarray:
    """View of ``values`` with shape (..., blocks, 2, 2**i); axis -2 is bit i."""
    return values.reshape(values.shape[:-1] + (-1, 2, 1 << i))


def _partner_bits(packed: np.ndarray, i: int, upper: bool = True) -> np.ndarray:
    """Bit x of the result is the bit of x's partner across coordinate i in
    a Boolean table packed 8 points per byte (little bit order), at every
    point with x_i = 1 (the partner x - 2^i); with upper=False, at every
    point with x_i = 0 (the partner x + 2^i).  All other bits are 0."""
    if i < 3:
        # 0x55, 0x33, 0x0F: the bits of a byte's points with x_i = 0
        s, low = 1 << i, (0x55, 0x33, 0x0F)[i]
        out = packed & low if upper else packed >> s
        return np.left_shift(out, s, out=out) if upper else np.bitwise_and(out, low, out=out)
    out, side = np.zeros_like(packed), int(upper)
    coordinate_pairs(out, i - 3)[:, side, :] = coordinate_pairs(packed, i - 3)[:, 1 - side, :]
    return out


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
    run over range(n), or over ``coords``, which must be consecutive
    ascending coordinates such as [i]; any other list raises ValueError.
    """
    stages = list(range(n) if coords is None else coords)
    lo, hi = (stages[0], stages[-1] + 1) if stages else (0, 0)
    if stages != list(range(lo, hi)):
        raise ValueError(f"coords {stages} are not consecutive ascending coordinates")
    if values.shape[-1] % (1 << hi):
        raise ValueError(f"last axis of length {values.shape[-1]} has no "
                         f"coordinate {hi - 1}")
    work = values if values.flags.c_contiguous else np.ascontiguousarray(values)
    flat = work.reshape(-1)
    mats = _groups(kernel, work.dtype)
    # the call's one scratch block: two halves of the largest tile for the
    # multiply form, then room for a tile's transposed copy; or a tile's
    # group products, and at least two padded operands
    block = np.empty(max(2 * min(_TILE, flat.size), 32 * _WIDTH * bool(mats)), work.dtype)
    update = None if mats else _stage_update(kernel, block)
    most = len(mats) if mats else _MAX_RUN
    for start in range(lo, hi, most):
        stop = min(start + most, hi)
        for tile in _tiles(flat, start, stop):
            if mats:
                _group_product(tile, mats[stop - start - 1], block)
                continue
            rows, span, cols = tile.shape
            low = _low_stages(tile, stop - start)
            if low:
                # bit j < low of the span axis leads the copy, so stage j's
                # halves are runs of 2^j * tile.size / 2^low elements
                view = tile.reshape(rows, span >> low, 1 << low, cols)
                buf = block[-tile.size:].reshape(1 << low, rows, span >> low, cols)
                buf[...] = view.transpose(2, 0, 1, 3)
                for j in range(low):
                    w = buf.reshape(1 << (low - j - 1), 2, -1)
                    update(w[:, 0], w[:, 1])
                view[...] = buf.transpose(1, 2, 0, 3)
            # a column slice of short runs (so of 5 or more stages) takes
            # all its stages in the block
            live = tile
            if not low and cols <= _MAX_STAGED_COLS and not tile.flags.c_contiguous:
                live = block[-tile.size:].reshape(tile.shape)
                live[...] = tile
            for j in range(low, stop - start):
                w = live.reshape(rows, span >> (j + 1), 2, 1 << j, cols)
                update(w[:, :, 0], w[:, :, 1])
            if live is not tile:
                tile[...] = live
    if work is not values:
        values[...] = work
    return values


def _groups(kernel: np.ndarray, dtype: np.dtype):
    """None for a kernel that leaves one half of each stage as it is, top
    row (1, 0) or superset zeta [[1, 1], [0, 1]], which runs stage by
    stage; else the group matrices it runs with (_group_matrices).  The
    entries decide before any Kronecker product is built."""
    k = np.asarray(kernel).ravel().tolist()
    stagewise = k[:2] == [1.0, 0.0] or k == [1.0, 1.0, 0.0, 1.0]
    return None if stagewise else _group_matrices(*k, dtype)


@lru_cache(maxsize=32)
def _group_matrices(k00: float, k01: float, k10: float, k11: float, dtype: np.dtype):
    """[K, K(x)K, ...] in ``dtype`` for the kernel K = [[k00, k01],
    [k10, k11]], shared and not to be written: up to the largest g <= 4
    whose 2^g x 2^g matrix holds only normal numbers (neither zero,
    subnormal, infinite nor NaN), and K alone when no g > 1 does.  A
    product may overflow to inf, and inf*0 gives NaN; both fail the test,
    so their warnings are silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        mats = list(accumulate([np.array([[k00, k01], [k10, k11]], dtype)] * 4, np.kron))
    # past the first matrix that is not normal none is (each holds the one
    # before times every entry of K), so the normal ones lead mats
    g = sum(np.finfo(dtype).tiny <= a.min() and a.max() < np.inf for a in map(np.abs, mats))
    return mats[:max(g, 1)]


def _group_product(tile: np.ndarray, m: np.ndarray, block: np.ndarray) -> None:
    """Apply m = K(x)...(x)K along axis 1 of an (outer, 2^g, cols) tile in
    place, by np.matmul calls whose operand shape the tile's cols alone sets:
    at cols = 1, rows of 2^g values times m.T, _WIDTH rows to an operand,
    else m times (2^g, min(cols, _WIDTH)) column blocks.  Products go to
    ``block`` and are copied back; the rows past the last multiple of
    _WIDTH go through the block first, zero padded to one operand."""
    outer, size, cols = tile.shape
    w = min(cols, _WIDTH) if cols > 1 else _WIDTH
    if cols == 1:
        rows, full = tile.reshape(outer, size), outer - outer % w
        if full < outer:
            x, y = block[:2 * w * size].reshape(2, w, size)
            x[:outer - full], x[outer - full:] = rows[full:], 0.0
            rows[full:] = np.matmul(x, m.T, out=y)[:outer - full]
        x = rows[:full].reshape(-1, w, size)
    else:
        x = tile.reshape(outer, size, cols // w, w).transpose(0, 2, 1, 3)
    y = block[:x.size].reshape(x.shape)
    x[...] = np.matmul(*((x, m.T) if cols == 1 else (m, x)), out=y)


def _stage_update(kernel: np.ndarray, scratch: np.ndarray):
    """In-place update of one stage from its halves a (x_i = 0) and b
    (x_i = 1), for a kernel that runs stage by stage (see _groups): the
    three unit kernels (subset zeta, subset Moebius, superset zeta) run as
    one in-place add or subtract with the bits of the multiply form (up to
    the payload of a NaN; see the module docstring), and any other, lower
    triangular, writes k10*a + k11*b into b through the first two halves
    of ``scratch``, leaving a as it is."""
    (k00, k01), (k10, k11) = np.asarray(kernel).tolist()
    if (k00, k01, k10, k11) == (1.0, 0.0, 1.0, 1.0):
        def update(a, b):
            np.add(a, b, out=b)
    elif (k00, k01, k10, k11) == (1.0, 0.0, -1.0, 1.0):
        def update(a, b):
            np.subtract(b, a, out=b)
    elif (k00, k01, k10, k11) == (1.0, 1.0, 0.0, 1.0):
        def update(a, b):
            np.add(a, b, out=a)
    else:
        def update(a, b):
            s = np.ndarray((2,) + a.shape, scratch.dtype, scratch)
            b[...] = _sum_of_products(k10, a, k11, b, s[0], s[1])
    return update


def _sum_of_products(c0, x, c1, y, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """c0*x + c1*y into t, the products written into t and u with out= and
    added in that order, so a NaN gets the plain expression's payload."""
    np.multiply(c0, x, out=t)
    np.multiply(c1, y, out=u)
    return np.add(t, u, out=t)


def _low_stages(tile: np.ndarray, stages: int) -> int:
    """How many leading stages of a (rows, span, cols) tile run on a
    transposed copy: those with 2^j * cols < _MIN_CHUNK, capped so that the
    copy's runs tile.size >> low reach _MIN_CHUNK.  Zero unless two stages
    qualify, since the copy costs two passes over the tile."""
    low = min(stages, (_MIN_CHUNK // tile.shape[2]).bit_length() - 1,
              (tile.size // _MIN_CHUNK).bit_length() - 1)
    return low if low >= 2 else 0


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


def point_codes(n: int) -> np.ndarray:
    """Every point code 0 .. 2^n - 1 (n <= 32), as a fresh read-only array
    in the smallest unsigned dtype that holds them."""
    codes = np.arange(1 << n, dtype=np.uint8 if n <= 8 else np.uint16 if n <= 16 else np.uint32)
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
    return _by_level(p ** k * (1.0 - p) ** (n - k), n)


def _by_level(values: np.ndarray, n: int) -> np.ndarray:
    """values[..., popcounts(n)]: a per-level table (n + 1 entries on the
    last axis) spread over the 2^n points, gathered by whole rows.  Point
    hi * 2^h + lo has level |hi| + |lo|, and row k of an (n - h + 1) x 2^h
    table holds values[..., k + |lo|], so the 2^(n-h) rows are taken by
    |hi| without casting a 2^n index array."""
    h = min(n, 8)
    rows = values[..., np.arange(n - h + 1)[:, None] + popcounts(h)]
    return np.take(rows, popcounts(n - h), axis=-2).reshape(values.shape[:-1] + (1 << n,))


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
