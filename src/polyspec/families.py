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

from .core import BooleanFunction, _check_at_least_zero, _check_dimension, _check_open_unit
from .lattice import coordinate_pairs, point_codes, popcounts, subset_mask


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
    An OR starts a bool table from the first block's row (_or_row): a
    shared row is copied, a mask test compared with 0.  The other rows AND
    into it in place, and the table is returned as a uint8 view, with no
    ones-filled start.  An XOR starts from zeros and flips the x_i = 1 half
    once per distinct coordinate i of the block; a popcount gather indexed
    by the uint32 codes took 5-35 times as long at n = 18, because numpy
    casts a non-intp index chunk by chunk.
    """
    if not blocks:
        return np.ones(1 << n, dtype=np.uint8)
    if not parity:
        codes = point_codes(n)
        first = _or_row(n, codes, blocks[0])
        table = first != 0 if first.flags.writeable else first.copy()
        for block in blocks[1:]:
            np.logical_and(table, _or_row(n, codes, block), out=table)
        return table.view(np.uint8)
    table = np.ones(1 << n, dtype=np.uint8)
    for block in blocks:
        mask = subset_mask(n, block)
        odd = np.zeros(1 << n, dtype=np.uint8)
        for i in range(n):
            if (mask >> i) & 1:
                coordinate_pairs(odd, i)[:, 1, :] ^= 1
        table &= odd
    return table


def _or_row(n: int, codes: np.ndarray, block) -> np.ndarray:
    """Nonzero where some coordinate of block is 1: for n <= 10, where the
    AND-OR search builds, a shared read-only bool row memoised per mask (all
    of n = 10 take 1.2 MiB), else codes & mask.  The block is checked on
    every call."""
    mask = subset_mask(n, block)
    return _small_or_row(n, mask) if n <= 10 else codes & mask


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
    """Minimal true points of a monotone function, as coordinate sets.

    Empty result iff g is constant 0; the single empty set iff g is
    constant 1.
    """
    from .influences import is_monotone

    if not is_monotone(g):
        raise ValueError("minterms are defined for monotone functions only")
    return {frozenset(i for i in range(g.n) if (x >> i) & 1)
            for x in _minterms(g).tolist()}


def _minterms(g: BooleanFunction) -> np.ndarray:
    """Point codes of the minterms of a function already known to be monotone."""
    # a true point is minimal iff clearing any single set bit gives 0: one
    # edge pass per coordinate clears the upper end of every true-true edge
    true = g.table.astype(bool)
    minimal = true.copy()
    for i in range(g.n):
        coordinate_pairs(minimal, i)[:, 1, :] &= ~coordinate_pairs(true, i)[:, 0, :]
    return np.flatnonzero(minimal)


def recognize_and_or(g: BooleanFunction) -> BlockPartition | None:
    """Recover the unique block partition when g is an AND-OR, else None.

    Recognition goes through the transversal rule: the minterms of an
    AND-OR are exactly the sets that pick one coordinate from each block,
    so two coordinates of the support share a block iff no minterm holds
    both.  Grouping the support by that rule gives the only candidate,
    which is verified against g before it is returned.  A brute-force
    search over every partition backs this up in the test suite.
    """
    from .influences import is_monotone

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
    if not blocks:
        return None
    candidate = BlockPartition(blocks)
    if np.array_equal(make_and_or(g.n, candidate).table, g.table):
        return candidate
    return None


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
    return (np.abs(np.arange(n + 1.0) - n / 2.0) <= w)[popcounts(n)]


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
