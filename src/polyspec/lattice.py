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

All O(n*2^n) operators here are per-coordinate 2x2 kernels K
("butterflies"): stage i maps the values (a, b) of the two points that
differ only in coordinate i to K (a, b).  For tables with leading batch
axes the kernel is applied along the last axis.

A kernel runs g consecutive coordinates at a time, as one product per
vector of 2^g values with the matrix K(x)...(x)K: the blocked form of a
Kronecker-product transform (Van Loan, Computational Frameworks for the
FFT, 1992) and of Yates' factorial algorithm.  g is the largest of 4, 3, 2
and 1 for which K(x)...(x)K has exactly nnz(K)^g nonzero entries, each a
normal number (neither subnormal, infinite nor NaN), so a zero stands only
where the Kronecker structure puts it.  A kernel with no zero entry takes
g = 1, K itself, when no g passes.  A kernel with a zero entry that gets
g = 1 runs stage by stage instead, one pass over the table per coordinate:
noise at rho = 1e-300 (its K(x)K holds rho^2, which underflows to 0) and
its inverse at rho = 1e-200 (its K(x)K holds 1e400, inf).  So does every
kernel with a zero entry in extended precision, where np.matmul has no
BLAS path (a grouped longdouble inverse took 19 ms, not 7.8, at n = 16).

A contiguous chunk of 2^16 elements (512 KiB of float64: whole rows, or a
slice of one row) holds every edge of the coordinates below 16, so the
groups below 16 run chunk by chunk, each chunk through all of them, back
and forth between it and the call's one scratch block, before the next is
read; with copy=True the chunk is cast on the way into its first group,
whose products land in the fresh table.  The groups past coordinate 16
then run over column tiles of 2^16 elements, copied back from the block.
Either way a group makes the np.matmul calls, on the operands, of a pass
over the whole table, so neither the order nor the cast moves a bit, and
no table-sized temporary appears.  BLAS may round a column
of M @ X differently when X has another width: with numpy 2.4.6 and
OpenBLAS 0.3.31 a column gets other bits when X is 1, 2, 3, 9, 17 or 100
columns wide than when it is 8 or 1000 wide.  So every operand has one
shape that the group's first coordinate lo alone sets: at lo = 0, _WIDTH
rows of 2^g values times the transposed matrix, the rows past the last
multiple of _WIDTH zero padded in the block; above, (2^g, min(2^lo,
_WIDTH)) column blocks read where they lie.  An element's bits then do not
depend on the batch shape or on its place in the table, and not on the
BLAS thread count either, since a 16 x 16 x 128 product is too small for
OpenBLAS to split.  These are other roundings of the stagewise maps, and
each caller of a kernel states its error.

Non-finite values spread further in a group than stage by stage.  A
product 0*inf is NaN, so an inf or NaN entry makes all 2^g values of its
vector non-finite, where a stage leaves the values that a zero entry of
its kernel shields.  An entry that overflows may come out as NaN where a
stagewise run gives inf.  No table is scanned for either.

The Fourier kernels take g = 4 in float64 down to about p = 1.2e-77
(analysis, p^4) and 1.5e-154 (synthesis, (p/(1 - p))^2); below, g shrinks:

    p          1e-100  1e-160  1e-200  1e-300  5e-324
    analysis      3       1       1       1       1
    synthesis     4       3       3       2       1
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

# Elements per chunk or tile: 512 KiB of float64, which stays in a 2 MiB
# per-core L2 together with the call's 1 MiB scratch block.
_LOW = 16
_TILE = 1 << _LOW
# Rows or columns of every group-product operand, one shape whatever the
# table's layout.  Measured on transform_table (numpy 2.4.6, one BLAS
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


def apply_kernel(values, n: int, kernel: np.ndarray, coords=None,
                 copy: bool = False) -> np.ndarray:
    """Apply a 2x2 kernel along each coordinate of the last axis, in place,
    or with copy=True into a fresh array, float64 or the table's dtype if
    that is a wider float (so an ill-conditioned composition, such as the
    inverse noise kernel with norm (2/rho - 1)^n, can run in longdouble).

    kernel = [[k00, k01], [k10, k11]] maps the pair (a, b) = (value at
    x_i = 0, value at x_i = 1) to (k00*a + k01*b, k10*a + k11*b).  Stages
    run over range(n), or over ``coords``, which must be consecutive
    ascending coordinates such as [i]; any other list raises ValueError.
    """
    stages = list(range(n) if coords is None else coords)
    lo, hi = (stages[0], stages[-1] + 1) if stages else (0, 0)
    if stages != list(range(lo, hi)):
        raise ValueError(f"coords {stages} are not consecutive ascending coordinates")
    source = np.ascontiguousarray(values)
    if source.shape[-1] % (1 << hi):
        raise ValueError(f"last axis of length {source.shape[-1]} has no "
                         f"coordinate {hi - 1}")
    work = np.empty(source.shape, np.promote_types(source.dtype, np.float64)) if copy else source
    mats = _group_matrices(*np.asarray(kernel).ravel().tolist(), work.dtype)
    if mats is None:
        work[...] = source      # the cast, or nothing in place
        # stage by stage; a top row (1, 0) leaves the x_i = 0 half as it is
        (k00, k01), (k10, k11) = np.asarray(kernel).tolist()
        for i in stages:
            w = coordinate_pairs(work, i)
            a, b = w[..., 0, :], w[..., 1, :]
            if (k00, k01) == (1.0, 0.0):
                b[...] = k10 * a + k11 * b
            else:
                w[..., 0, :], w[..., 1, :] = k00 * a + k01 * b, k10 * a + k11 * b
    else:
        # the call's one scratch block: the other side of a chunk or a tile,
        # then two padded operands.  With one tile's room, n = 16 transforms
        # took 790 against 360 us: glibc gave the pages back on every call.
        flat, size, g = work.reshape(-1), min(_TILE, work.size), len(mats)
        block = np.empty(size + max(size, 32 * _WIDTH), work.dtype)
        low = range(lo, hi if hi <= _LOW else _LOW + 1 - g, g)
        for at in range(0, work.size if low or copy else 0, _TILE):
            # the values start on side len(low) % 2 and group k reads side
            # k % 2, so the last group writes the chunk
            buf = flat[at:at + _TILE], block[:min(_TILE, work.size - at)]
            buf[len(low) % 2][...] = source.reshape(-1)[at:at + _TILE]
            for k, start in enumerate(low, len(low)):
                m = mats[min(g, hi - start) - 1]
                _group_product(buf[k % 2].reshape(-1, len(m), 1 << start), buf[1 - k % 2], m, block)
        for start in range(lo + len(low) * g, hi, g):
            # a group past _LOW runs on column tiles [r, :, k] of _TILE elements
            m = mats[min(g, hi - start) - 1]
            view = flat.reshape(-1, len(m), (len(m) << start) // _TILE, _TILE // len(m))
            for r, k in np.ndindex(view.shape[0], view.shape[2]):
                _group_product(view[r:r + 1, :, k], block[:size], m, block)
                view[r, :, k] = block[:size].reshape(len(m), -1)
    if not (copy or work is values):
        values[...] = work
    return work if copy else values


@lru_cache(maxsize=32)
def _group_matrices(k00: float, k01: float, k10: float, k11: float, dtype: np.dtype):
    """The matrices [K, K(x)K, ...] up to the g of the module docstring's
    rule that K = [[k00, k01], [k10, k11]] runs with in ``dtype``, shared
    and not to be written; None where that rule runs it stage by stage."""
    k = np.array([[k00, k01], [k10, k11]], dtype)
    entries = np.abs(k[k != 0])
    # The nonzero entries of K(x)...(x)K, products of g nonzero entries of K
    # rounded one factor at a time, lie between the products of g copies of
    # K's smallest and of its largest, since rounding is monotone; both are
    # entries.  So those two decide g before any matrix is built, and past
    # the first g that fails none passes.
    small, big = entries.min(initial=np.inf), entries.max(initial=0.0)
    g, lo, hi = 0, small, big
    with np.errstate(over="ignore"):
        while g < 4 and np.finfo(dtype).tiny <= lo and hi < np.inf:
            g, lo, hi = g + 1, lo * small, hi * big
    if entries.size < 4 and (g < 2 or dtype.itemsize > 8):
        return None
    return list(accumulate([k] * max(g, 1), _kron))


def _kron(m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """np.kron(m, k) of two square matrices, with its bits, as one
    broadcast product (np.kron took 15 us more a call)."""
    return (m[:, None, :, None] * k[None, :, None, :]).reshape(len(m) * len(k), -1)


def _group_product(tile: np.ndarray, out: np.ndarray, m: np.ndarray, block: np.ndarray) -> None:
    """Apply m = K(x)...(x)K along axis 1 of an (outer, 2^g, cols) tile into
    ``out``, contiguous, of the tile's size and sharing no memory with it,
    in the one operand shape that cols sets (module docstring), the
    zero-padded last rows passing through the end of ``block``."""
    outer, size, cols = tile.shape
    if cols > 1:
        w = min(cols, _WIDTH)
        x, y = (t.reshape(outer, size, cols // w, w).transpose(0, 2, 1, 3) for t in (tile, out))
        np.matmul(m, x, out=y)
        return
    x, y, full = tile.reshape(outer, size), out.reshape(outer, size), outer - outer % _WIDTH
    if full:
        np.matmul(x[:full].reshape(-1, _WIDTH, size), m.T, out=y[:full].reshape(-1, _WIDTH, size))
    if full < outer:
        a, b = block[block.size - 2 * _WIDTH * size:].reshape(2, _WIDTH, size)
        a[:outer - full], a[outer - full:] = x[full:], 0.0
        y[full:] = np.matmul(a, m.T, out=b)[:outer - full]


# The subset-sum kernels, made once: a fresh 2x2 array took 1 us a call.
_ZETA = np.array([[1.0, 0.0], [1.0, 1.0]])
_MOBIUS = np.array([[1.0, 0.0], [-1.0, 1.0]])


def zeta_subsets(values: np.ndarray, n: int) -> np.ndarray:
    """In place: out(S) = sum over A a subset of S of in(A).

    The stages run as group products (see the module docstring); to first
    order each entry is within (19/4) n u times the same sum over |in| of
    the exact sum, u the unit roundoff of the table's dtype (2^-53 for
    float64).  A table of integers whose absolute values sum to less than
    2^53 (a 0/1 table at n <= 52) gives exact sums: every value on the way
    is such an integer.  The same holds for :func:`mobius_subsets`, with
    its own sums over |in|.
    """
    return apply_kernel(values, n, _ZETA)


def mobius_subsets(values, n: int) -> np.ndarray:
    """Alternating subset sums, the inverse of :func:`zeta_subsets`, into
    a fresh array (apply_kernel's copy=True), within (19/4) n u times the
    zeta sums of |in| (see zeta_subsets)."""
    return apply_kernel(values, n, _MOBIUS, copy=True)


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
    """values[..., popcounts(n)], a per-level table (n + 1 entries on the
    last axis) over the 2^n points: the one block of _level_blocks."""
    rows = values[..., _level_rows(n)]
    return np.take(rows, popcounts(n - min(n, 8)), axis=-2).reshape(values.shape[:-1] + (1 << n,))


def _level_blocks(values: np.ndarray, n: int):
    """(part, _by_level(values, n)[..., part]) over consecutive 2^14-point
    parts of the last axis, so a per-level factor folds into a table with no
    2^n temporary (2^14 was the fastest of 2^12 .. 2^16).  Point hi 2^h + lo,
    h = min(n, 8), has level |hi| + |lo|: row k of _level_rows holds k + |lo|,
    and a block takes those rows by |hi|."""
    rows, h = values[..., _level_rows(n)], min(n, 8)
    high, step = popcounts(n - h), (1 << 14) >> h
    for start in range(0, high.size, step):
        block = np.take(rows, high[start:start + step], axis=-2)
        yield slice(start << h, (start + step) << h), block.reshape(values.shape[:-1] + (-1,))


@lru_cache(maxsize=32)
def _level_rows(n: int) -> np.ndarray:
    return np.arange(n - min(n, 8) + 1)[:, None] + popcounts(min(n, 8))


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
