"""Closed-form expected outputs for the benchmark's output checks.

Nothing here imports polyspec or runs a butterfly pass.  Tables are built
from the bits of the point index (bit i of the index is coordinate x_i, as
in polyspec), and every expected value comes from a product formula over
blocks or from the definition of the operator.
"""

from __future__ import annotations

import math

import numpy as np

_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def popcount(codes: np.ndarray) -> np.ndarray:
    """Number of set bits of each code (codes below 2^24)."""
    codes = np.asarray(codes, dtype=np.int64)
    return (_BYTE_POPCOUNT[codes & 255] + _BYTE_POPCOUNT[(codes >> 8) & 255]
            + _BYTE_POPCOUNT[(codes >> 16) & 255]).astype(np.int64)


def mask(coords) -> int:
    return sum(1 << int(i) for i in coords)


def points(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.int64)


def measure_weights(n: int, p: float) -> np.ndarray:
    """p^|x| (1-p)^(n-|x|) for every point x."""
    k = popcount(points(n)).astype(np.float64)
    return p ** k * (1.0 - p) ** (n - k)


def and_table(n: int, coords) -> np.ndarray:
    m = mask(coords)
    return ((points(n) & m) == m).astype(np.uint8)


def and_tables(n: int, masks: np.ndarray) -> np.ndarray:
    """One AND table per row, for the coordinate masks given."""
    masks = np.asarray(masks, dtype=np.int64)[:, None]
    return ((points(n)[None, :] & masks) == masks).astype(np.uint8)


def and_or_table(n: int, blocks) -> np.ndarray:
    idx = points(n)
    out = np.ones(1 << n, dtype=np.uint8)
    for b in blocks:
        out &= ((idx & mask(b)) != 0).astype(np.uint8)
    return out


def and_xor_table(n: int, blocks) -> np.ndarray:
    idx = points(n)
    out = np.ones(1 << n, dtype=np.uint8)
    for b in blocks:
        out &= (popcount(idx & mask(b)) & 1).astype(np.uint8)
    return out


def all_tables(n: int) -> np.ndarray:
    """Every truth table on n coordinates, one per row (row code = table bits)."""
    size = 1 << n
    codes = np.arange(1 << size, dtype=np.int64)[:, None]
    return ((codes >> np.arange(size)[None, :]) & 1).astype(np.uint8)


def random_blocks(rng: np.random.Generator, n: int, sizes) -> list[list[int]]:
    """Disjoint blocks of the given sizes on coordinates drawn from rng."""
    perm = rng.permutation(n).tolist()
    blocks, pos = [], 0
    for s in sizes:
        blocks.append(sorted(perm[pos:pos + s]))
        pos += s
    return blocks


def blocks_arg(blocks) -> str:
    """Blocks in the CLI's --blocks syntax, e.g. 0,1;2."""
    return ";".join(",".join(map(str, b)) for b in blocks)


def partition_string(blocks) -> str:
    """Blocks as polyspec's verdict witness string prints them."""
    return ";".join("+".join(map(str, b)) for b in sorted(tuple(sorted(b)) for b in blocks))


# ---------------------------------------------------------------------------
# p-biased spectra.  The character of T is prod over i in T of
# (x_i - p) / sqrt(p(1-p)).

def and_spectrum(coords, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero coefficients of AND_S: indices T within S and their values.

    coeff(T) = p^(|S|-|T|) * (p(1-p))^(|T|/2) for T a subset of S, else 0.
    """
    coords = list(coords)
    k = len(coords)
    subsets = np.arange(1 << k, dtype=np.int64)
    idx = np.zeros(1 << k, dtype=np.int64)
    for j, c in enumerate(coords):
        idx |= ((subsets >> j) & 1) << c
    t = popcount(subsets).astype(np.float64)
    return idx, p ** (k - t) * (p * (1.0 - p)) ** (t / 2.0)


def _or_block_coeff(size: int, j, p: float):
    """Coefficient of OR_B on a character of j coordinates of B.

    OR_B = 1 - prod over B of (1 - x_i): j = 0 gives 1 - (1-p)^|B|, and
    j >= 1 gives -(1-p)^(|B|-j) * (-sqrt(p(1-p)))^j.
    """
    s = math.sqrt(p * (1.0 - p))
    j = np.asarray(j, dtype=np.float64)
    return np.where(j == 0, 1.0 - (1.0 - p) ** size,
                    -((1.0 - p) ** (size - j)) * (-s) ** j)


def and_or_spectrum(n: int, blocks, p: float) -> np.ndarray:
    """Dense spectrum of an AND-OR: the product of its block OR spectra."""
    idx = points(n)
    out = np.ones(1 << n, dtype=np.float64)
    for b in blocks:
        out *= _or_block_coeff(len(b), popcount(idx & mask(b)), p)
    out[(idx & ~mask(c for b in blocks for c in b)) != 0] = 0.0
    return out


def and_or_mean(blocks, p: float) -> float:
    return math.prod(1.0 - (1.0 - p) ** len(b) for b in blocks)


def and_or_noise_sensitivity(blocks, p: float, nu: float) -> float:
    """2 * sum over T of (1 - (1-nu)^|T|) coeff(T)^2, factored over blocks."""
    damped = math.prod(
        sum(math.comb(len(b), j) * (1.0 - nu) ** j * float(_or_block_coeff(len(b), j, p)) ** 2
            for j in range(len(b) + 1))
        for b in blocks)
    return 2.0 * (and_or_mean(blocks, p) - damped)


def and_or_influences(n: int, blocks, p: float) -> list[float]:
    """Coordinate i of block B flips the AND-OR exactly when every other
    block is satisfied and the rest of B is 0."""
    out = [0.0] * n
    for b in blocks:
        others = math.prod(1.0 - (1.0 - p) ** len(o) for o in blocks if o is not b)
        for i in b:
            out[i] = others * (1.0 - p) ** (len(b) - 1)
    return out


def and_or_sensitivity(blocks) -> int:
    """max(width, largest block): one true coordinate per block on the
    1 side, one empty block with the rest satisfied on the 0 side."""
    return max(len(blocks), max(len(b) for b in blocks))


def and_noise_sensitivity(k: int, p: float, nu: float) -> float:
    """NS of AND on k coordinates: 2 p^k (1 - (1 - nu(1-p))^k)."""
    return 2.0 * p ** k * (1.0 - (1.0 - nu * (1.0 - p)) ** k)


# ---------------------------------------------------------------------------
# The downward noise operator from its definition.

def noise_matrix(n: int, rho: float) -> np.ndarray:
    """Dense T: (T u)(x) = sum over z of rho^|z| (1-rho)^(n-|z|) u(x AND z)."""
    size = 1 << n
    out = np.zeros((size, size))
    for z in range(size):
        w = rho ** bin(z).count("1") * (1.0 - rho) ** (n - bin(z).count("1"))
        for x in range(size):
            out[x, x & z] += w
    return out


def boolean_eigens(n: int, rho: float) -> dict[bytes, float | None]:
    """The Boolean eigenfunctions of T: zero (no eigenvalue) and every AND_S
    with eigenvalue rho^|S|, keyed by truth-table bytes."""
    out: dict[bytes, float | None] = {bytes(1 << n): None}
    for m in range(1 << n):
        coords = [i for i in range(n) if (m >> i) & 1]
        out[and_table(n, coords).tobytes()] = rho ** len(coords)
    return out


def stirling2(s: int, k: int) -> int:
    """Partitions of s labelled items into exactly k nonempty blocks."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** s for j in range(k + 1)) // math.factorial(k)


def and_or_candidates(c: int, max_width: int) -> int:
    """Partitions into at most max_width blocks of every nonempty subset
    of c candidate coordinates: the AND-OR search's candidate count."""
    return sum(math.comb(c, s) * sum(stirling2(s, k) for k in range(1, min(s, max_width) + 1))
               for s in range(1, c + 1))
