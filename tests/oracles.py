"""Independent brute-force reference implementations.

Everything here follows definitions point by point (no butterflies, no
transforms) so the fast library paths are checked against genuinely
separate code.  Sizes are kept tiny; these are O(4^n) or worse.  The
exceptions are :func:`stagewise_kernel`, the butterfly loop that
``lattice.apply_kernel`` must match bit for bit where it runs stage by
stage, and within an error bound where it runs group products,
:func:`streamed_json_bytes`, the streaming JSON writer whose bytes
``core.save_function`` must match, and :func:`spectrum_degree`, the
thresholded bias-1/2 spectrum that ``influences.degree`` replaced,
:func:`and_correlations`, the exact and longdouble superset sums under
the product measure that bound the error of
``analysis.distance_to_constant_or_and``, :func:`level_square_sums`, the
exact level sums of squares that bound exact ``noise_sensitivity``, and
:func:`edge_influence` and :func:`edge_negative_influence`, the two edge
passes per coordinate whose bits every influence path must keep, and
:func:`edge_is_monotone`, :func:`edge_minterms` and
:func:`edge_sensitivity`, the byte-per-point edge passes whose answers
the packed-bit ``is_monotone``, ``families._minterms`` and
``sensitivity`` must give, and
:func:`classify_boolean_eigens_bruteforce`, the batch noise pass over all
2^(2^n) tables whose list ``analysis.classify_boolean_eigens`` must give
from the monotone tables alone, and :func:`defect_exact_expression`,
the one-temporary-per-operation expression whose bits the in-place exact
homomorphism defect must keep, with :func:`and_correlation`, the passes
it shares with that defect, and :func:`defect_reference` and
:func:`longdouble_weights`, their longdouble rerun that bounds its error,
and :func:`zeta_supersets`, the plain superset sums, and
:func:`exact_and_or_distances`,
the exact-rational AND-OR distances under the float64 weights that bound
the error of ``analysis.distance_to_and_or``, and :func:`junta_project`,
the full-cube projection whose bits ``analysis.distance_to_monotone_junta``
keeps from the junta's own cube.
The closed forms at the end (:func:`spectral_eigenvalue`,
:func:`or_width_cap`, :func:`set_influence`,
:func:`sensitivity_degree_gap`) and
:func:`to_json_dict`, the plain-``json`` form of a function file that
``core.dumps`` must match, are small helpers only tests read.
"""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from polyspec.analysis import EIGEN_TOL
from polyspec.core import (BooleanFunction, BoundedFunction, _check_dimension,
                           _json_fields, average_out)
from polyspec.fourier import transform_table
from polyspec.influences import degree, sensitivity
from polyspec.lattice import (apply_kernel, coordinate_pairs, index_bits, measure_weights,
                              point_codes, popcounts, subcube_codes, subset_mask)
from polyspec.noise import downward_noise_table


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


def junta_project(f, coords, p: float) -> BoundedFunction:
    """Average f over the coordinates outside ``coords`` under mu_p.

    The output lives on the full n coordinates but depends only on
    ``coords`` (the L2-closest such function).
    """
    keep = sorted(set(coords))
    table = average_out(f, keep, p).table.take(subcube_codes(f.n, keep))
    return BoundedFunction(f.n, table)


def naive_minterms(table, n: int):
    out = set()
    for x in range(1 << n):
        if not table[x]:
            continue
        if all(not table[x & ~(1 << i)] for i in range(n) if bit(x, i)):
            out.add(frozenset(i for i in range(n) if bit(x, i)))
    return out


def naive_and(n: int, coords) -> list:
    return [int(all(bit(x, i) for i in coords)) for x in range(1 << n)]


def naive_or(n: int, coords) -> list:
    return [int(any(bit(x, i) for i in coords)) for x in range(1 << n)]


def naive_xor(n: int, coords) -> list:
    """Parity of the named variables; a repeated coordinate names one variable."""
    return [sum(bit(x, i) for i in set(coords)) % 2 for x in range(1 << n)]


def naive_majority3(n: int) -> list:
    return [int(bit(x, 0) + bit(x, 1) + bit(x, 2) >= 2) for x in range(1 << n)]


def _or_where_xor_elsewhere(n: int, where) -> list:
    return [bit(x, 0) | bit(x, 1) if where(weight(x)) else bit(x, 0) ^ bit(x, 1)
            for x in range(1 << n)]


def naive_f1(n: int) -> list:
    return _or_where_xor_elsewhere(n, lambda k: k >= math.ceil(n / 3))


def naive_midslice(n: int, window_scale: float) -> list:
    w = window_scale * math.sqrt(n * math.log(n))
    return _or_where_xor_elsewhere(n, lambda k: abs(k - n / 2.0) <= w)


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


def and_or_search_candidates(coords, max_width):
    """The AND-OR search's candidates in its enumeration order: no blocks
    (the constant 1), then every partition into at most max_width blocks
    of every nonempty subset of coords, smaller subsets first."""
    yield ()
    for size in range(1, len(coords) + 1):
        for support in itertools.combinations(coords, size):
            yield from all_block_partitions(support, max_width)


def exact_and_or_distances(table, n: int, p: float, candidates) -> list:
    """Exact L1 distance from the table to each AND-OR in candidates (tuples
    of blocks), as Fractions of the float64 measure_weights(n, p).

    Every point of Hamming weight k has the same float weight, so each
    distance is the sum over k of that weight times the number of points
    of weight k where the AND-OR and the table differ, with no rounding.
    """
    level = [Fraction(float(x)) for x in measure_weights(n, p)[(1 << np.arange(n + 1)) - 1]]
    # the denominators are powers of two: sum integers over the largest one
    scale = max(w.denominator for w in level)
    level = [w.numerator * (scale // w.denominator) for w in level]
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    weight = bits.sum(axis=1)
    f = np.asarray(table) != 0
    ors, out = {}, []
    for blocks in candidates:
        g = np.ones(1 << n, dtype=bool)
        for blk in blocks:
            if blk not in ors:
                ors[blk] = bits[:, sorted(blk)].any(axis=1)
            g &= ors[blk]
        counts = np.bincount(weight[g != f], minlength=n + 1)
        out.append(Fraction(sum(w * int(k) for w, k in zip(level, counts)), scale))
    return out


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
    """One whole-table pass per coordinate: for a kernel with top row
    (1, 0), b = k10*a + k11*b with a left as it is, and for any other
    kernel both halves from a copy of a.  A kernel the engine runs stage by
    stage matches it bit for bit; a kernel it runs as group products is
    held to an error bound against it, run in longdouble."""
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


def classify_boolean_eigens_bruteforce(n: int, rho: float,
                                       tol: float = EIGEN_TOL) -> list[tuple[BooleanFunction, float | None]]:
    """All Boolean f with T f = lam * f pointwise for some lam > 0.

    Enumerates every one of the 2^(2^n) truth tables (so n <= 4), applying
    the operator to the whole batch at once.  The zero function is included
    with lam None.
    """
    _check_dimension(n)
    if n > 4:
        raise ValueError("exhaustive eigen classification is capped at n = 4")
    size = 1 << n
    tables = index_bits(size, point_codes(size)).astype(np.float64)
    transformed = downward_noise_table(tables, n, rho)
    has_ones = tables.any(axis=1)
    # candidate eigenvalue: value of T f at any point where f = 1
    lam = np.max(np.where(tables > 0.5, transformed, -np.inf), axis=1)
    lam = np.where(has_ones, lam, 0.0)
    gap = np.abs(transformed - lam[:, None] * tables).max(axis=1)
    hits = np.flatnonzero((gap <= tol) & ((lam > 0) | ~has_ones))
    out: list[tuple[BooleanFunction, float | None]] = []
    for code in hits:
        f = BooleanFunction(n, tables[code].astype(np.uint8))
        out.append((f, float(lam[code]) if lam[code] > 0 else None))
    return out


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


def and_correlations(table: np.ndarray, n: int, p: float, exact: bool):
    """mu_p mean and corr(S), the sum over B containing S of mu_p(B) f(B),
    of a 0/1 table at every S (corr[0] is the mean), under the kernel
    entries p and 1 - p as float64 numbers, the measure that
    ``analysis._and_distances`` runs with.

    exact=True (small n): Fractions.  Every point of level k has the weight
    p^k (1 - p)^(n - k), so corr(S) is the sum over k of that weight times
    the number of ones of level k above S, an integer superset sum per
    level, with no rounding.  exact=False: np.longdouble, the level weights
    spread over the table and summed over supersets by
    :func:`stagewise_kernel`; every term is nonnegative, so each value is
    within a relative (n + 5) 2^-64 of the exact one."""
    level = popcounts(n)
    if not exact:
        corr = stagewise_kernel(table * longdouble_weights(n, p), n,
                                np.array([[1, 1], [0, 1]], np.longdouble))
        return corr[0], corr
    counts = np.zeros((n + 1, 1 << n), dtype=np.int64)
    counts[level, np.arange(1 << n)] = table
    for i in range(n):
        pairs = coordinate_pairs(counts, i)
        pairs[:, :, 0, :] += pairs[:, :, 1, :]
    weights = [Fraction(p) ** k * Fraction(1.0 - p) ** (n - k) for k in range(n + 1)]
    # the denominators are powers of two: sum integers over the largest one
    scale = max(w.denominator for w in weights)
    ints = np.array([w.numerator * (scale // w.denominator) for w in weights], dtype=object)
    corr = [Fraction(int(c), scale) for c in counts.T.astype(object) @ ints]
    return corr[0], corr


def level_square_sums(values: np.ndarray, n: int) -> list:
    """Exact sum of values[S]^2 over each level |S| = k of float64 values,
    as Fractions: every value is an integer multiple of 2^-1074."""
    sums = [0] * (n + 1)
    for k, v in zip(popcounts(n).tolist(), values.tolist()):
        num, den = v.as_integer_ratio()
        sums[k] += (num * ((1 << 1074) // den)) ** 2
    return [Fraction(t, 1 << 2148) for t in sums]


def edge_influence(table: np.ndarray, i: int, w: np.ndarray) -> float:
    """Influence of coordinate i from the float64 table and the
    (n-1)-coordinate edge weights."""
    edges = coordinate_pairs(table, i)
    change = (edges[:, 1, :] - edges[:, 0, :]).reshape(-1)
    return float(w @ change ** 2)


def edge_negative_influence(table: np.ndarray, i: int, w: np.ndarray) -> float:
    """Negative influence of coordinate i, with arguments as in
    :func:`edge_influence`."""
    # edges0 - edges1 itself, not a negated edges1 - edges0, whose zeros would
    # be -0.0 and rely on np.maximum to clear their sign
    edges = coordinate_pairs(table, i)
    drop = np.maximum(edges[:, 0, :] - edges[:, 1, :], 0.0).reshape(-1)
    return float(w @ drop)


def edge_is_monotone(table: np.ndarray, n: int) -> bool:
    """No i-edge of the uint8 table goes down, one byte per point."""
    for i in range(n):
        edges = coordinate_pairs(table, i)
        if np.any(edges[:, 0, :] > edges[:, 1, :]):
            return False
    return True


def edge_minterms(table: np.ndarray, n: int) -> np.ndarray:
    """Codes of the true points of a uint8 table with no true point just
    below them, one bool per point."""
    true = table.astype(bool)
    minimal = true.copy()
    for i in range(n):
        coordinate_pairs(minimal, i)[:, 1, :] &= ~coordinate_pairs(true, i)[:, 0, :]
    return np.flatnonzero(minimal)


def edge_sensitivity(table: np.ndarray, n: int) -> int:
    """Largest per-point count of value-flipping coordinate flips, counted
    in one uint8 per point."""
    counts = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        edges = coordinate_pairs(table, i)
        counts_i = coordinate_pairs(counts, i)
        counts_i += (edges[:, 0, :] != edges[:, 1, :])[:, None, :]
    return int(counts.max(initial=0))


def spectral_eigenvalue(p: float, rho: float, level: int = 1) -> float:
    """Per-level shrink factor of T between the two Fourier bases."""
    return ((1.0 - p) * rho / (1.0 - rho * p)) ** (level / 2.0)


def or_width_cap(p: float, gamma: float) -> int:
    """Largest block size kept when ORs wider than log_{1/(1-p)}(1/gamma)
    are removed."""
    return math.floor(math.log(1.0 / gamma) / math.log(1.0 / (1.0 - p)))


def set_influence(spec, coords) -> float:
    """Squared coefficient mass of a ``Spectrum`` on supersets of the given
    coordinate set."""
    m = subset_mask(spec.n, coords)
    sel = (point_codes(spec.n) & m) == m
    return float(np.sum(spec.coeffs[sel] ** 2))


def sensitivity_degree_gap(f) -> float:
    """s(f) - sqrt(deg f); nonnegative for every Boolean function."""
    return sensitivity(f) - math.sqrt(degree(f))


def to_json_dict(f) -> dict:
    """The function file's fields as plain JSON types, for ``json`` callers."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in _json_fields(f).items()}


_SUPERSETS = np.array([[1.0, 1.0], [0.0, 1.0]])


def zeta_supersets(values: np.ndarray, n: int) -> np.ndarray:
    """In place: out(S) = sum over B a superset of S of in(B), within
    (19/4) n u times the same sum over |in| (see lattice.zeta_subsets).  On
    a finite table out(top) = in(top), up to the sign of a zero."""
    return apply_kernel(values, n, _SUPERSETS)


def and_correlation(f_t, h_t, n: int, rho: float, dtype=np.float64):
    """The passes of ``analysis._defect_exact`` on raw tables (any leading
    axes): A(S), the sum over B containing S of mu_rho(B) h(B), from one
    superset pass with the kernel [[1 - rho, rho], [0, rho]], so that
    A(empty) = E[h]; the terms A * m, m the Moebius sums of f; and
    q(x) = E over y ~ mu_rho of h(y) f(x AND y), the subset zeta sums of
    the terms.  float64 runs lattice.apply_kernel, with the core's bits;
    any other dtype runs :func:`stagewise_kernel` as a reference."""
    run = apply_kernel if dtype == np.float64 else stagewise_kernel
    a = run(np.asarray(h_t).astype(dtype), n, np.array([[1.0 - rho, rho], [0.0, rho]], dtype))
    terms = a * run(np.asarray(f_t).astype(dtype), n, np.array([[1, 0], [-1, 1]], dtype))
    return a, terms, run(terms.copy(), n, np.array([[1, 0], [1, 1]], dtype))


def defect_exact_expression(f, g, h, p: float, rho: float) -> float:
    """Exact homomorphism defect through the plain per-x expression
    T f - g (2q - E[h]), one fresh temporary per operation: the reference
    for the in-place build of ``analysis._defect_exact``."""
    n = f.n
    a, _, q = and_correlation(f.table, h.table, n, rho)
    tf = downward_noise_table(f.table, n, rho)
    per_x = np.where(g.table == 1, tf - (2.0 * q - a[0]), tf)
    return float(measure_weights(n, p) @ per_x)


def defect_reference(f_t, g_t, h_t, n: int, rho: float):
    """The exact defect's passes rerun in np.longdouble by
    :func:`stagewise_kernel`, under the float64 entries rho and 1 - rho, on
    raw tables with any leading axes: the per-x defect d and
    D = T f + g (E[h] + 2 M), M the subset zeta sums of |A * m|, the two
    tables whose mu_p sums bound the error of ``analysis._defect_exact``."""
    ld = np.longdouble
    a, terms, q = and_correlation(f_t, h_t, n, rho, ld)
    big_m = stagewise_kernel(np.abs(terms), n, np.array([[1, 0], [1, 1]], ld))
    tf = stagewise_kernel(np.asarray(f_t).astype(ld), n,
                          np.array([[1.0, 0.0], [1.0 - rho, rho]], ld))
    g, eh = np.asarray(g_t) == 1, a[..., :1]
    return tf - np.where(g, 2 * q - eh, 0), tf + np.where(g, eh + 2 * big_m, 0)


def longdouble_weights(n: int, p: float) -> np.ndarray:
    """mu_p weight of every point in np.longdouble, from the float64 numbers
    p and 1 - p."""
    k = np.arange(n + 1)
    return (np.longdouble(p) ** k * np.longdouble(1.0 - p) ** (n - k))[popcounts(n)]
