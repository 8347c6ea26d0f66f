"""Constructors and recognizers for the structured function families.

AND-OR and AND-XOR functions:  given ordered disjoint nonempty blocks
A_1, ..., A_m, the AND-OR is the conjunction over blocks of the OR of each
block's variables, and the AND-XOR the conjunction of the block XORs; m is
the width.  Width 0 (no blocks) is the constant 1.  The constant 0 is not a
member of the family; classifiers report it as the distinguished "zero"
answer instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (BooleanFunction, _check_at_least_zero, _check_boolean, _check_dimension,
                   _check_open_unit)
from .influences import is_monotone
from .lattice import (_by_level, _partner_bits, coordinate_pairs, point_codes, popcounts,
                      subset_mask)


@dataclass(frozen=True)
class BlockPartition:
    """Ordered disjoint nonempty coordinate blocks."""

    blocks: tuple[frozenset[int], ...]

    def __init__(self, blocks):
        blocks = tuple(frozenset(b) for b in blocks)
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("blocks must be nonempty")
            if seen & b:
                raise ValueError("blocks must be pairwise disjoint")
            seen |= b
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def _trusted(cls, blocks: tuple[frozenset[int], ...]) -> "BlockPartition":
        """Wrap a tuple of nonempty, pairwise disjoint frozensets, in block
        order, without copying or checking it: the AND-OR search wraps each
        candidate's blocks this way, which its enumerator made disjoint."""
        self = cls.__new__(cls)
        object.__setattr__(self, "blocks", blocks)
        return self

    @property
    def width(self) -> int:
        return len(self.blocks)

    def support(self) -> frozenset[int]:
        return frozenset().union(*self.blocks) if self.blocks else frozenset()

    def sorted_blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(tuple(sorted(b)) for b in self.blocks))


def _block_table(n: int, blocks, parity: bool) -> np.ndarray:
    """AND over blocks of each block's XOR (parity) or OR, as a uint8 table.

    No blocks gives the constant 1; an empty block gives the constant 0.
    Every block's mask is checked before any row is built.  Each block
    gives one bool row, from one of three sources: for an OR at n <= 10,
    where the AND-OR search builds, the shared read-only row of
    _small_or_row (memoised per mask; all of n = 10 take 1.2 MiB); for an
    OR above n = 10, (codes & mask) != 0, with the codes fetched once per
    table; for an XOR, zeros with the x_i = 1 half flipped once per
    coordinate i of the block (a popcount gather indexed by the uint32
    codes took 5-35 times as long at n = 18, because numpy casts a non-intp
    index chunk by chunk).  The table starts as a copy of the first row,
    the other rows AND into it in place one at a time, and it is returned
    as a uint8 view.  Bool rows keep the AND free of casts: at n = 22 a
    uint32 row took 1.9 ms to AND in, a bool row 0.33 ms.
    """
    masks = [subset_mask(n, block) for block in blocks]
    if not masks:
        return np.ones(1 << n, dtype=np.uint8)
    codes = point_codes(n) if n > 10 and not parity else None
    table = None
    for mask in masks:
        row = (_xor_row(n, mask) if parity else
               _small_or_row(n, mask) if codes is None else (codes & mask) != 0)
        if table is None:
            table = row.copy()
        else:
            np.logical_and(table, row, out=table)
    return table.view(np.uint8)


def _xor_row(n: int, mask: int) -> np.ndarray:
    odd = np.zeros(1 << n, dtype=bool)
    for i in range(n):
        if (mask >> i) & 1:
            coordinate_pairs(odd, i)[:, 1, :] ^= True
    return odd


@lru_cache(maxsize=None)
def _small_or_row(n: int, mask: int) -> np.ndarray:
    row = (point_codes(n) & mask) != 0
    row.flags.writeable = False
    return row


def make_and(n: int, coords) -> BooleanFunction:
    """Conjunction of the given coordinates; empty set gives the constant 1."""
    _check_dimension(n)
    mask = subset_mask(n, coords)
    return BooleanFunction._trusted(n, ((point_codes(n) & mask) == mask).view(np.uint8))


def make_or(n: int, coords) -> BooleanFunction:
    _check_dimension(n)
    return BooleanFunction._trusted(n, _block_table(n, [coords], parity=False))


def make_xor(n: int, coords) -> BooleanFunction:
    _check_dimension(n)
    return BooleanFunction._trusted(n, _block_table(n, [coords], parity=True))


def make_and_or(n: int, partition: BlockPartition) -> BooleanFunction:
    """AND of block ORs; singleton blocks reduce to a plain AND."""
    _check_dimension(n)
    return BooleanFunction._trusted(n, _block_table(n, partition.blocks, parity=False))


def make_and_xor(n: int, partition: BlockPartition) -> BooleanFunction:
    """AND of block XORs."""
    _check_dimension(n)
    return BooleanFunction._trusted(n, _block_table(n, partition.blocks, parity=True))


def _check_at_least_three(n: int, name: str) -> None:
    """Reject a dimension outside [3, MAX_N_BOOLEAN] for the maker called name."""
    _check_dimension(n)
    if n < 3:
        raise ValueError(f"{name} needs n >= 3")


def make_majority3(n: int = 3) -> BooleanFunction:
    """Majority of the first three coordinates (padded with idle ones)."""
    _check_at_least_three(n, "majority3")
    return BooleanFunction._trusted(n, (popcounts(n)[point_codes(n) & 7] >= 2).view(np.uint8))


def minterms(g: BooleanFunction) -> set[frozenset[int]]:
    """Minimal true points of a monotone Boolean function, as coordinate sets.

    Empty result iff g is constant 0; the single empty set iff g is
    constant 1.
    """
    _check_boolean("minterms", g)
    if not is_monotone(g):
        raise ValueError("minterms are defined for monotone functions only")
    return {frozenset(i for i in range(g.n) if (x >> i) & 1)
            for x in _minterms(g).tolist()}


def _minterms(g: BooleanFunction) -> np.ndarray:
    """Point codes of the minterms of a function already known to be
    monotone, in increasing order."""
    # a true point is minimal iff clearing any single set bit gives 0: on the
    # bits packed 8 points per byte, clear every true point with a true
    # partner below it, then unpack only the bytes left nonzero
    true = np.packbits(g.table, bitorder="little")
    below = np.zeros_like(true)     # the points with a true partner below them
    for i in range(g.n):
        below |= _partner_bits(true, i)
    minimal = true & ~below
    nonzero = np.flatnonzero(minimal)
    k = np.flatnonzero(np.unpackbits(minimal[nonzero], bitorder="little"))
    return 8 * nonzero[k >> 3] + (k & 7)


def recognize_and_or(g: BooleanFunction) -> BlockPartition | None:
    """Recover the unique block partition when the Boolean g is an AND-OR,
    else None.

    Recognition goes through the transversal rule: the minterms of an
    AND-OR are exactly the sets that pick one coordinate from each block,
    so two coordinates of the support share a block iff no minterm holds
    both.  Grouping the support by that rule gives the only candidate,
    blocks B_1, ..., B_m.  A brute-force search over every partition backs
    this up in the test suite.

    The candidate is verified from the minterms, with no 2^n table: g is
    that AND-OR iff every minterm holds exactly one coordinate of each
    block and there are |B_1| * ... * |B_m| minterms.  Proof: the blocks
    cover every coordinate of every minterm, so under the first condition
    the minterms are distinct transversals, and with the count they are
    all of them, the minterms of the AND-OR.  A monotone function is the
    up-closure of its minterms (every true point lies above a minimal
    one), so two monotone functions with the same minterms are equal.
    Conversely the AND-OR's own minterms meet both conditions.
    """
    _check_boolean("recognize_and_or", g)
    if not is_monotone(g):
        return None
    if g.table[0] == 1:
        # monotone with g(empty set) = 1 means constant 1: the empty AND
        return BlockPartition(())
    mins = _minterms(g)
    # support coordinates not yet placed; i's block is i plus every one of
    # them that shares no minterm with i
    unplaced = int(np.bitwise_or.reduce(mins, initial=0))
    blocks = []
    for i in range(g.n):
        if (unplaced >> i) & 1:
            partners = int(np.bitwise_or.reduce(mins[((mins >> i) & 1) == 1]))
            block = (unplaced & ~partners) | (1 << i)
            blocks.append(frozenset(j for j in range(g.n) if (block >> j) & 1))
            unplaced &= ~block
    # no blocks: g is 0, with no minterms, and the empty product is 1
    if len(mins) != math.prod(map(len, blocks)):
        return None
    hits = np.array([mins & subset_mask(g.n, block) for block in blocks])
    # exactly one coordinate of each block: hit nonzero, and hit & (hit - 1) zero
    return BlockPartition(blocks) if hits.all() and not (hits & (hits - 1)).any() else None


# ---------------------------------------------------------------------------
# The two motivating near-eigenfunctions and the middle-slice example.

def _or_inside_xor_outside(n: int, inside: np.ndarray) -> BooleanFunction:
    """OR of the first two coordinates where ``inside`` holds, XOR elsewhere."""
    first_two = [(0, 1)]
    return BooleanFunction._trusted(n, np.where(
        inside, _block_table(n, first_two, parity=False),
        _block_table(n, first_two, parity=True)))


def _middle_band(n: int, window_scale: float) -> np.ndarray:
    """Points of Hamming weight n/2 +- window_scale * sqrt(n ln n), read from
    an (n + 1)-entry per-weight table; a negative or NaN scale raises."""
    _check_at_least_zero("window_scale", window_scale)
    w = window_scale * math.sqrt(n * math.log(n))
    return _by_level(np.abs(np.arange(n + 1.0) - n / 2.0) <= w, n)


def make_f1(n: int) -> BooleanFunction:
    """OR of the first two coordinates on Hamming weight >= n/3, XOR below."""
    _check_at_least_three(n, "make_f1")
    return _or_inside_xor_outside(n, popcounts(n) >= math.ceil(n / 3))


def make_f2(n: int, lam: float, rng: np.random.Generator) -> BooleanFunction:
    """1 on Hamming weight >= n/3; an independent Bernoulli(lam) bit below."""
    _check_at_least_three(n, "make_f2")
    _check_open_unit("lam", lam)
    pc = popcounts(n)
    heavy = pc >= math.ceil(n / 3)
    fills = (rng.random(1 << n) < lam).astype(np.uint8)
    return BooleanFunction._trusted(n, np.where(heavy, 1, fills).astype(np.uint8))


def make_midslice(n: int, window_scale: float = 1.0) -> BooleanFunction:
    """OR of the first two coordinates on the middle slice band, XOR outside.

    The band is Hamming weight n/2 +- window_scale * sqrt(n ln n); the
    multiplicative constant on the window is a free parameter (natural log).
    """
    _check_at_least_three(n, "make_midslice")
    return _or_inside_xor_outside(n, _middle_band(n, window_scale))


def make_semirandom(n: int, window_scale: float, rng: np.random.Generator) -> BooleanFunction:
    """Uniform bit on the middle slice band, 0 elsewhere.

    The agreement rate of this family with its own AND approaches 3/4 from
    either side as n grows while staying far from every constant and AND,
    which is why sweeps treat 3/4 as the natural agreement floor.  Exposed
    as the 'semirandom' sweep preset.
    """
    _check_at_least_three(n, "make_semirandom")
    band = _middle_band(n, window_scale)
    bits = (rng.random(1 << n) < 0.5).astype(np.uint8)
    return BooleanFunction._trusted(n, np.where(band, bits, 0).astype(np.uint8))
