"""Independent brute-force reference implementations.

Everything here follows definitions point by point (no butterflies, no
transforms) so the fast library paths are checked against genuinely
separate code.  Sizes are kept tiny; these are O(4^n) or worse.  The
exceptions are :func:`stagewise_kernel`, the untiled butterfly loop that the
tiled ``lattice.apply_kernel`` must match bit for bit,
:func:`streamed_json_bytes`, the streaming JSON writer whose bytes
``core.save_function`` must match, and :func:`spectrum_degree`, the
thresholded bias-1/2 spectrum that ``influences.degree`` replaced.
"""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from polyspec.fourier import transform_table
from polyspec.lattice import coordinate_pairs, popcounts


def bit(x: int, i: int) -> int:
    return (x >> i) & 1


def weight(x: int) -> int:
    return bin(x).count("1")


def mu_weight(n: int, p: float, x: int) -> float:
    k = weight(x)
    return p ** k * (1.0 - p) ** (n - k)


def naive_expectation(table, n: int, p: float) -> float:
    return sum(mu_weight(n, p, x) * float(table[x]) for x in range(1 << n))


def naive_l1(f, g, n: int, p: float) -> float:
    return sum(mu_weight(n, p, x) * abs(float(f[x]) - float(g[x]))
               for x in range(1 << n))


def character(n: int, S, p: float, x: int) -> float:
    out = 1.0
    s = math.sqrt(p * (1.0 - p))
    for i in S:
        out *= (bit(x, i) - p) / s
    return out


def character_table(n: int, S, p: float) -> np.ndarray:
    """Dense table of the bias-p character of subset S."""
    out = np.ones(1 << n, dtype=np.float64)
    s = math.sqrt(p * (1.0 - p))
    idx = np.arange(1 << n)
    for i in S:
        out *= (((idx >> i) & 1) - p) / s
    return out


def naive_fourier_coeff(table, n: int, p: float, S) -> float:
    return sum(mu_weight(n, p, x) * float(table[x]) * character(n, S, p, x)
               for x in range(1 << n))


def subsets(n: int):
    for mask in range(1 << n):
        yield [i for i in range(n) if bit(mask, i)]


def naive_downward(table, n: int, rho: float):
    out = np.zeros(1 << n)
    for x in range(1 << n):
        acc = 0.0
        for z in range(1 << n):
            acc += mu_weight(n, rho, z) * float(table[x & z])
        out[x] = acc
    return out


def naive_invert_half_rho(table, n: int):
    """Alternating subset-sum inverse, valid at retention 1/2 only."""
    out = np.zeros(1 << n)
    for b in range(1 << n):
        acc = 0.0
        a = b
        while True:
            acc += (-1) ** (weight(b) - weight(a)) * 2 ** weight(a) * float(table[a])
            if a == 0:
                break
            a = (a - 1) & b
        out[b] = acc
    return out


def naive_agreement(f, g, h, n: int, p: float, rho: float) -> float:
    total = 0.0
    for x in range(1 << n):
        wx = mu_weight(n, p, x)
        for y in range(1 << n):
            agree = int(f[x & y]) == (int(g[x]) & int(h[y]))
            total += wx * mu_weight(n, rho, y) * agree
    return total


def pair_agreement(f, g, h, p: float, rho: float) -> float:
    """Pr that f(x AND y) = g(x) AND h(y) over all 4^n pairs, one x at a time."""
    n = f.n
    wy = np.array([mu_weight(n, rho, y) for y in range(1 << n)])
    ft, gt, ht = f.table, g.table, h.table
    ys = np.arange(1 << n)
    total = 0.0
    for x in range(1 << n):
        agree = ft[x & ys] == (gt[x] & ht)
        total += mu_weight(n, p, x) * float(wy @ agree)
    return total


def naive_influence(table, n: int, i: int, p: float) -> float:
    acc = 0.0
    for x in range(1 << n):
        acc += mu_weight(n, p, x) * (float(table[x]) - float(table[x ^ (1 << i)])) ** 2
    return acc


def naive_negative_influence(table, n: int, i: int, p: float) -> float:
    acc = 0.0
    for x in range(1 << n):
        lo = float(table[x & ~(1 << i)])
        hi = float(table[x | (1 << i)])
        acc += mu_weight(n, p, x) * max(0.0, lo - hi)
    return acc


def naive_sensitivity(table, n: int) -> int:
    return max(sum(int(table[x] != table[x ^ (1 << i)]) for i in range(n))
               for x in range(1 << n))


def naive_shift(table, n: int, i: int):
    """Swap the ends of every i-edge whose lower end holds the larger value."""
    out = np.array(table)
    for x in range(1 << n):
        lower = x ^ (1 << i)
        if bit(x, i) and table[lower] > table[x]:
            out[lower], out[x] = table[x], table[lower]
    return out


def naive_restrict(table, n: int, fixed: dict):
    """Entry a is f at the point carrying the fixed bits on their coordinates
    and the bits of a, in order, on the free ones."""
    free = [i for i in range(n) if i not in fixed]
    base = sum(b << i for i, b in fixed.items())
    return np.array([table[base | sum(bit(a, k) << i for k, i in enumerate(free))]
                     for a in range(1 << len(free))])


def naive_junta_project(table, n: int, coords, p: float):
    """Entry x is the mu_p mean of f over the points that agree with x on
    coords, weighting only the free coordinates."""
    mask = sum(1 << i for i in coords)
    free = [i for i in range(n) if not bit(mask, i)]
    out = np.zeros(1 << n)
    for x in range(1 << n):
        for y in range(1 << n):
            if (x ^ y) & mask == 0:
                w = math.prod(p if bit(y, i) else 1.0 - p for i in free)
                out[x] += w * float(table[y])
    return out


def naive_minterms(table, n: int):
    out = set()
    for x in range(1 << n):
        if not table[x]:
            continue
        if all(not table[x & ~(1 << i)] for i in range(n) if bit(x, i)):
            out.add(frozenset(i for i in range(n) if bit(x, i)))
    return out


def all_block_partitions(coords, max_width):
    """Every way to split coords into at most max_width nonempty blocks."""
    coords = list(coords)
    if not coords:
        yield ()
        return
    first, rest = coords[0], coords[1:]
    for sub in all_block_partitions(rest, max_width):
        for k in range(len(sub)):
            yield sub[:k] + (sub[k] | {first},) + sub[k + 1:]
        if len(sub) < max_width:
            yield sub + (frozenset({first}),)


def all_and_or_tables(n: int, max_width=None):
    """Truth tables of every AND-OR function on n coordinates."""
    cap = max_width if max_width is not None else n
    seen = {}
    for support in subsets(n):
        for blocks in all_block_partitions(support, cap):
            table = np.ones(1 << n, dtype=np.uint8)
            for blk in blocks:
                mask = sum(1 << i for i in blk)
                ors = np.array([(x & mask) != 0 for x in range(1 << n)], dtype=np.uint8)
                table &= ors
            seen[table.tobytes()] = (table, blocks)
    return seen


def exact_l1(f, g, n: int, p: Fraction) -> Fraction:
    """L1 distance of two tables with p a Fraction: exact, so ties are exact."""
    return sum((mu_weight(n, p, x) for x in range(1 << n) if f[x] != g[x]),
               Fraction(0))


def and_or_candidate_count(c: int, max_width: int) -> int:
    """Partitions of every nonempty subset of c coordinates into at most
    max_width blocks: sum over s of C(c, s) * sum over k of S(s, k)."""
    def stirling2(s, k):
        if s == k:
            return 1
        if k == 0 or k > s:
            return 0
        return k * stirling2(s - 1, k) + stirling2(s - 1, k - 1)
    return sum(math.comb(c, s) * sum(stirling2(s, k) for k in range(1, max_width + 1))
               for s in range(1, c + 1))


def stagewise_kernel(values: np.ndarray, n: int, kernel: np.ndarray,
                     coords=None) -> np.ndarray:
    """One whole-table pass per coordinate: the kernel loop before tiling."""
    k00, k01 = kernel[0]
    k10, k11 = kernel[1]
    for i in range(n) if coords is None else coords:
        w = coordinate_pairs(values, i)
        a = w[..., 0, :]
        b = w[..., 1, :]
        if k00 == 1.0 and k01 == 0.0:
            # lower row leaves a untouched; update b from the live view
            w[..., 1, :] = k10 * a + k11 * b
        else:
            a0 = a.copy()
            w[..., 0, :] = k00 * a0 + k01 * b
            w[..., 1, :] = k10 * a0 + k11 * b
    return values


def streamed_json_bytes(obj, path) -> bytes:
    """A function file as the streaming encoder writes it, read back."""
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")
    return Path(path).read_bytes()


def spectrum_degree(table, n: int, tol: float = 1e-9, p: float = 0.5) -> int:
    """Largest |S| whose bias-p Fourier coefficient exceeds tol in size."""
    live = np.abs(transform_table(table, n, p)) > tol
    return int(popcounts(n)[live].max(initial=0))
