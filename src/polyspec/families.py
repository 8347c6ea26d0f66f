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

import numpy as np

from .core import BooleanFunction
from .lattice import coordinate_pairs, popcounts, subset_mask


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

    @property
    def width(self) -> int:
        return len(self.blocks)

    def support(self) -> frozenset[int]:
        return frozenset().union(*self.blocks) if self.blocks else frozenset()

    def sorted_blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(tuple(sorted(b)) for b in self.blocks))


def make_and(n: int, coords) -> BooleanFunction:
    """Conjunction of the given coordinates; empty set gives the constant 1."""
    mask = subset_mask(n, coords)
    idx = np.arange(1 << n)
    return BooleanFunction(n, ((idx & mask) == mask).astype(np.uint8))


def make_or(n: int, coords) -> BooleanFunction:
    mask = subset_mask(n, coords)
    idx = np.arange(1 << n)
    return BooleanFunction(n, ((idx & mask) != 0).astype(np.uint8) if mask
                           else np.zeros(1 << n, np.uint8))


def make_xor(n: int, coords) -> BooleanFunction:
    mask = subset_mask(n, coords)
    idx = np.arange(1 << n)
    return BooleanFunction(n, (popcounts(n)[idx & mask] & 1).astype(np.uint8))


def make_and_or(n: int, partition: BlockPartition) -> BooleanFunction:
    """AND of block ORs; singleton blocks reduce to a plain AND."""
    idx = np.arange(1 << n)
    table = np.ones(1 << n, dtype=np.uint8)
    for block in partition.blocks:
        table &= (idx & subset_mask(n, block)) != 0
    return BooleanFunction(n, table)


def make_and_xor(n: int, partition: BlockPartition) -> BooleanFunction:
    """AND of block XORs."""
    idx = np.arange(1 << n)
    table = np.ones(1 << n, dtype=np.uint8)
    for block in partition.blocks:
        table &= popcounts(n)[idx & subset_mask(n, block)] & 1
    return BooleanFunction(n, table)


def make_majority3(n: int = 3) -> BooleanFunction:
    """Majority of the first three coordinates (padded with idle ones)."""
    if n < 3:
        raise ValueError("majority3 needs n >= 3")
    idx = np.arange(1 << n)
    votes = ((idx & 1) + ((idx >> 1) & 1) + ((idx >> 2) & 1))
    return BooleanFunction(n, (votes >= 2).astype(np.uint8))


def minterms(g: BooleanFunction) -> set[frozenset[int]]:
    """Minimal true points of a monotone function, as coordinate sets.

    Empty result iff g is constant 0; the single empty set iff g is
    constant 1.
    """
    from .influences import is_monotone

    if not is_monotone(g):
        raise ValueError("minterms are defined for monotone functions only")
    return _minterms(g)


def _minterms(g: BooleanFunction) -> set[frozenset[int]]:
    """:func:`minterms` of a function already known to be monotone."""
    # a true point is minimal iff clearing any single set bit gives 0: one
    # edge pass per coordinate clears the upper end of every true-true edge
    true = g.table.astype(bool)
    minimal = true.copy()
    for i in range(g.n):
        coordinate_pairs(minimal, i)[:, 1, :] &= ~coordinate_pairs(true, i)[:, 0, :]
    return {frozenset(i for i in range(g.n) if (x >> i) & 1)
            for x in np.flatnonzero(minimal).tolist()}


def recognize_and_or(g: BooleanFunction) -> BlockPartition | None:
    """Recover the unique block partition when g is an AND-OR, else None.

    Recognition goes through the minterm hypergraph: fix one minterm
    B = {b_1, ..., b_m} and color b_i with i; any other vertex v gets the
    color of the unique b_i whose removal from B is completed to a true set
    by v (vertices needing all of B stay uncolored and are irrelevant).
    Blocks are the color classes; the candidate is verified against g
    before it is returned.  A brute-force search over every partition backs
    this up in the test suite.
    """
    from .influences import is_monotone

    if not is_monotone(g):
        return None
    table = g.table
    if table[0] == 1:
        # monotone with g(empty set) = 1 means constant 1: the empty AND
        return BlockPartition(())
    if not table.any():
        return None
    mins = _minterms(g)
    sizes = {len(m) for m in mins}
    if len(sizes) != 1:
        return None
    m = sizes.pop()
    base = sorted(next(iter(mins)))
    color: dict[int, int] = {b: k for k, b in enumerate(base)}
    base_mask = subset_mask(g.n, base)
    for v in range(g.n):
        if v in color:
            continue
        vbit = 1 << v
        # minimal A within the base minterm whose union with v satisfies g
        winners = []
        for drop in range(-1, m):
            a_mask = base_mask if drop < 0 else base_mask & ~(1 << base[drop])
            if table[a_mask | vbit] == 1:
                below_ok = all(
                    table[(a_mask & ~(1 << base[j])) | vbit] == 0
                    for j in range(m) if drop < 0 or j != drop
                )
                if below_ok:
                    winners.append(drop)
        if len(winners) != 1:
            return None
        if winners[0] >= 0:
            color[v] = winners[0]
    blocks = [set() for _ in range(m)]
    for v, k in color.items():
        blocks[k].add(v)
    candidate = BlockPartition(tuple(frozenset(b) for b in blocks))
    if np.array_equal(make_and_or(g.n, candidate).table, table):
        return candidate
    return None


def truncate_wide_ors(partition: BlockPartition, width_cap: int) -> BlockPartition:
    """Drop every block with more than width_cap variables.

    The truncated function dominates the original pointwise; under bias p
    the L1 gap is at most (number of blocks) * (1-p)^width_cap.
    """
    if width_cap < 1:
        raise ValueError(f"width cap must be positive, got {width_cap}")
    return BlockPartition(tuple(b for b in partition.blocks if len(b) <= width_cap))


def or_width_cap(p: float, gamma: float) -> int:
    """Largest block size kept when ORs wider than log_{1/(1-p)}(1/gamma)
    are removed."""
    return math.floor(math.log(1.0 / gamma) / math.log(1.0 / (1.0 - p)))


# ---------------------------------------------------------------------------
# The two motivating near-eigenfunctions and the middle-slice example.

def make_f1(n: int) -> BooleanFunction:
    """OR of the first two coordinates on Hamming weight >= n/3, XOR below."""
    if n < 3:
        raise ValueError("make_f1 needs n >= 3")
    pc = popcounts(n)
    idx = np.arange(1 << n)
    x0 = idx & 1
    x1 = (idx >> 1) & 1
    heavy = pc >= math.ceil(n / 3)
    return BooleanFunction(n, np.where(heavy, x0 | x1, x0 ^ x1).astype(np.uint8))


def make_f2(n: int, lam: float, rng: np.random.Generator) -> BooleanFunction:
    """1 on Hamming weight >= n/3; an independent Bernoulli(lam) bit below."""
    if n < 3:
        raise ValueError("make_f2 needs n >= 3")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0,1), got {lam}")
    pc = popcounts(n)
    heavy = pc >= math.ceil(n / 3)
    fills = (rng.random(1 << n) < lam).astype(np.uint8)
    return BooleanFunction(n, np.where(heavy, 1, fills).astype(np.uint8))


def make_midslice(n: int, window_scale: float = 1.0) -> BooleanFunction:
    """OR of the first two coordinates on the middle slice band, XOR outside.

    The band is Hamming weight n/2 +- window_scale * sqrt(n ln n); the
    multiplicative constant on the window is a free parameter (natural log).
    """
    if n < 3:
        raise ValueError("make_midslice needs n >= 3")
    w = window_scale * math.sqrt(n * math.log(n))
    pc = popcounts(n).astype(np.float64)
    idx = np.arange(1 << n)
    x0 = idx & 1
    x1 = (idx >> 1) & 1
    band = np.abs(pc - n / 2.0) <= w
    return BooleanFunction(n, np.where(band, x0 | x1, x0 ^ x1).astype(np.uint8))


def make_semirandom(n: int, window_scale: float, rng: np.random.Generator) -> BooleanFunction:
    """Uniform bit on the middle slice band, 0 elsewhere.

    The agreement rate of this family with its own AND approaches 3/4 from
    either side as n grows while staying far from every constant and AND,
    which is why sweeps treat 3/4 as the natural agreement floor.  Exposed
    as the 'semirandom' sweep preset.
    """
    if n < 3:
        raise ValueError("make_semirandom needs n >= 3")
    w = window_scale * math.sqrt(n * math.log(n))
    pc = popcounts(n).astype(np.float64)
    band = np.abs(pc - n / 2.0) <= w
    bits = (rng.random(1 << n) < 0.5).astype(np.uint8)
    return BooleanFunction(n, np.where(band, bits, 0).astype(np.uint8))
