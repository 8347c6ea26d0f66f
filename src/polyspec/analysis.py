"""Classifiers, testers, structure distances and theorem-style audits.

Everything here reports measured quantities.  Audits return the premise and
conclusion numbers side by side instead of asserting any particular
premise-to-conclusion rate: the qualitative content (conclusions shrink as
premises shrink) is checked by the sweep harness, while pass thresholds are
run configuration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core import (AnyFunction, BooleanFunction, _check_at_least_zero, _check_boolean,
                   _check_closed_unit, _check_dimension, _check_open_unit,
                   _check_same_dimension, average_out, expectation)
from .families import (BlockPartition, make_and, make_and_or, make_and_xor,
                       make_majority3, make_semirandom, recognize_and_or)
from .influences import (_influences, _ranked_coordinates, _sort_edges,
                         high_influence_coordinates)
from .lattice import (_level_blocks, apply_kernel, index_bits, measure_weights, mobius_subsets,
                      pack_bits, popcounts, subcube_codes, zeta_subsets)
from .noise import (NoiseParams, TesterReport, _biased_bits, _check_lam,
                    _monte_carlo, downward_noise_table, invert_downward, residual)

EIGEN_TOL = 1e-10
EXACT_PAIR_TOL = 1e-12
TIE_TOL = 1e-15


@dataclass(frozen=True)
class StructureVerdict:
    """Outcome of a structure search: what the input is close to, how close.

    kind is one of zero, constant, and, and_or, monotone_junta, none; the
    witness is the matching constant, coordinate set or partition.  When
    is_upper_bound is set the distance is a certified upper bound (the
    projection pipeline), not a minimum over the family.
    """

    kind: str
    witness: object
    distance: float
    is_upper_bound: bool = False

    def witness_str(self) -> str:
        if self.kind in ("zero", "constant"):
            return str(self.witness)
        if self.kind in ("and", "monotone_junta"):
            return "+".join(map(str, sorted(self.witness))) or "()"
        if self.kind == "and_or":
            return ";".join("+".join(map(str, blk))
                            for blk in self.witness.sorted_blocks()) or "()"
        return ""


# ---------------------------------------------------------------------------
# Exhaustive eigenfunction classification

def _monotone_codes(n: int) -> np.ndarray:
    """Ascending int64 truth-table codes (bit x = f(x)) of every monotone
    f on n <= 5 coordinates, the Dedekind numbers 2, 3, 6, 20, 168, 7581.

    A code at k + 1 is a | b << 2^k for codes a, b at k with a <= b
    pointwise (a & ~b == 0); b is the outer axis, so the codes ascend.
    """
    codes = np.array([0, 1], dtype=np.int64)
    for k in range(n):
        low, high = codes[None, :], codes[:, None]
        codes = (low | high << (1 << k))[(low & ~high) == 0]
    return codes


def classify_boolean_eigens(n: int, rho: float) -> list[tuple[BooleanFunction, float | None]]:
    """All Boolean f with T f = lam * f pointwise for some lam > 0, n <= 5.

    Every such f is monotone: where f(x) = 0, 0 = T f(x) is a sum over
    y <= x of f(y) times a positive weight, so f vanishes below x too.  So
    only the monotone tables are candidates (168 at n = 4, 7581 at n = 5,
    not 2^(2^n)); the operator runs on the whole batch at once, and the
    hits come in ascending truth-table code.  The zero function is
    included with lam None.  T f and lam * f may differ by EIGEN_TOL.
    """
    _check_dimension(n)
    if n > 5:
        raise ValueError("eigen classification is capped at n = 5")
    size = 1 << n
    tables = index_bits(size, _monotone_codes(n))
    transformed = downward_noise_table(tables, n, rho)
    has_ones = tables.any(axis=1)
    # candidate eigenvalue: value of T f at any point where f = 1
    lam = np.max(np.where(tables > 0.5, transformed, -np.inf), axis=1)
    lam = np.where(has_ones, lam, 0.0)
    gap = np.abs(transformed - lam[:, None] * tables).max(axis=1)
    hits = np.flatnonzero((gap <= EIGEN_TOL) & ((lam > 0) | ~has_ones))
    out: list[tuple[BooleanFunction, float | None]] = []
    for row in hits:
        f = BooleanFunction(n, tables[row].copy())
        out.append((f, float(lam[row]) if lam[row] > 0 else None))
    return out


@dataclass(frozen=True)
class ExactPairSolution:
    """Feasibility record for T f = lam * g with f required in [0,1]."""

    feasible: bool
    preimage: np.ndarray          # raw table of lam * T^{-1} g (lam = 1 if None)
    lam_max: float | None         # largest feasible lam, None when g = 0
    negative_mass: float          # magnitude of the most negative raw entry


def solve_exact_pair(g: BooleanFunction, rho: float,
                     lam: float | None = None) -> ExactPairSolution:
    """Invert the operator on g and classify feasibility.

    g is feasible iff the raw preimage is entrywise >= -EXACT_PAIR_TOL; then
    f = lam * T^{-1} g lies in [0,1] exactly for lam in (0, 1/max entry].
    For g identically zero any lam works and f = 0 is the only solution.
    A lam outside (0, 1], or a rho so small that the preimage holds a NaN
    (1/rho overflows and inf * 0 is NaN), raises ValueError; infinite
    entries are valid output.
    """
    _check_lam(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        u = invert_downward(g, rho)
    if np.isnan(low := u.min(initial=0.0)):     # the min of a table with a NaN is NaN
        raise ValueError(f"rho = {rho} overflows the preimage to NaN at n = {g.n}")
    most_negative = float(min(low, 0.0))
    feasible = most_negative >= -EXACT_PAIR_TOL
    top = float(u.max())
    if lam is not None:
        u *= lam
    if not g.table.any():
        return ExactPairSolution(True, u, None, 0.0)
    lam_max = 1.0 / top if feasible and top > 0 else None
    # 0.0 - x, not -x: a zero minimum reports +0.0
    return ExactPairSolution(feasible, u, lam_max, 0.0 - most_negative)


# ---------------------------------------------------------------------------
# Homomorphism testers

def _weighted_sums(tables: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w @ row for every row of tables (any leading axes), each with the bits
    of the 1-D dot; a stacked matrix-vector product sums in another order."""
    return (tables[..., None, :] @ w[:, None])[..., 0, 0]


def _defect_exact(f_t: np.ndarray, g_t: np.ndarray, h_t: np.ndarray, n: int,
                  p: float, rho: float) -> np.ndarray:
    """Pr over x ~ mu_p, y ~ mu_rho that f(x AND y) != g(x) AND h(y), one per
    row of raw uint8 tables with the same leading batch axes.

    The per-x defect d(x) is T f(x) where g(x) = 0 and T f(x) + E[h] - 2 q(x)
    where g(x) = 1, q(x) = E over y ~ mu_rho of h(y) f(x AND y).  One
    superset pass on h with the kernel [[1 - rho, rho], [0, rho]] weights
    each coordinate by mu_rho on the way, so entry S is A(S), the sum over B
    containing S of mu_rho(B) h(B), and the empty set's is E[h]; q is the
    subset zeta sum of A times the Moebius sums m of f (Bjorklund, Husfeldt,
    Kaski and Koivisto, "Fourier meets Moebius", STOC 2007).  d is built in
    place on T f as T f - (2q - E[h]), so the peak holds two float64 tables.

    With u = 2^-53, M(x) the subset zeta sum of |m| A and
    D(x) = T f(x) + g(x) (E[h] + 2 M(x)), each d(x) is to first order within
    ((19/2) n + 3) u D(x) of the exact value under the float64 entries rho,
    1 - rho, p and 1 - p, so the result is within u times the mu_p sum of
    ((19/2) n + 3) D(x) + (2^n + 5) |d(x)| (the dot's 2^n terms and the
    float64 weights).  The local sum cancels, so an exact homomorphism may
    give a tiny negative defect; nothing is clamped.  At p = rho = 1/2 the
    defect of 0/1 tables is exact: |A(S) m(S)| <= 1, so every value on the
    way is a multiple of 2^-n of size at most 2^n, or of 2^-2n of size at
    most 1 in the last sum.
    """
    q = apply_kernel(h_t, n, np.array([[1.0 - rho, rho], [0.0, rho]]), copy=True)
    eh = q[..., :1].copy()
    q *= mobius_subsets(f_t, n)
    zeta_subsets(q, n)
    tf = downward_noise_table(f_t, n, rho)
    q *= 2.0
    q -= eh
    np.subtract(tf, q, out=tf, where=g_t.astype(bool))
    del q
    return _weighted_sums(tf, measure_weights(n, p))


def homomorphism_agreement(f: BooleanFunction, p: float, rho: float,
                           g: BooleanFunction | None = None,
                           h: BooleanFunction | None = None,
                           samples: int | None = None, rng=None) -> TesterReport:
    """Agreement rate of f(x AND y) with g(x) AND h(y); g = h = f by default.

    Exact by default: ``_defect_exact`` gives the defect, the O(n*2^n)
    correlation identity over any stack of tables with the error it states,
    the report's estimate is 1 - defect, and details["defect"] holds the
    defect itself.  An int samples draws that many input pairs from rng (a
    seed, a Generator or None) instead.
    """
    _check_open_unit("bias p", p)
    _check_open_unit("rho", rho)
    g = g or f
    h = h or f
    for fn in (f, g, h):
        _check_boolean("homomorphism_agreement", fn)
    _check_same_dimension(f, g, h)
    if samples is None:
        defect = float(_defect_exact(f.table, g.table, h.table, f.n, p, rho))
        return TesterReport(estimate=1.0 - defect, std_error=0.0, samples=0, exact=True,
                            details={"defect": defect})

    def agreements(gen: np.random.Generator, batch: int) -> int:
        x = pack_bits(_biased_bits(gen, (batch, f.n), p))
        y = pack_bits(_biased_bits(gen, (batch, f.n), rho))
        return int(np.count_nonzero(f.table[x & y] == (g.table[x] & h.table[y])))

    return _monte_carlo(agreements, samples, rng)


def prs_tester(f: BooleanFunction, p: float = 0.5, samples: int | None = None,
               rng=None, expectation_window: float = 0.05,
               agreement_min: float = 0.95) -> TesterReport:
    """Dictatorship-style tester: near-half mean plus AND-agreement.

    Accepts when |E[f] - 1/2| <= expectation_window and the agreement rate
    of f(x AND y) with f(x) AND f(y) reaches agreement_min.  Both are exact
    by default; an int samples estimates each from that many draws, the
    mean first, on one stream built from rng.  A window that is negative or
    NaN, or an agreement_min outside [0, 1] or NaN, raises ValueError.
    """
    _check_at_least_zero("expectation window", expectation_window)
    _check_closed_unit("agreement minimum", agreement_min)
    if samples is None:
        mean = expectation(f, p)
    else:
        rng = np.random.default_rng(rng)

        def ones(gen: np.random.Generator, batch: int) -> int:
            x = pack_bits(_biased_bits(gen, (batch, f.n), p))
            return int(np.count_nonzero(f.table[x]))

        mean = _monte_carlo(ones, samples, rng).estimate
    agree = homomorphism_agreement(f, p, p, samples=samples, rng=rng)
    accepted = (abs(mean - 0.5) <= expectation_window
                and agree.estimate >= agreement_min)
    return TesterReport(estimate=agree.estimate, std_error=agree.std_error,
                        samples=agree.samples, exact=agree.exact, accepted=accepted,
                        details={"expectation": mean,
                                 "agreement": agree.estimate,
                                 "expectation_window": expectation_window,
                                 "agreement_min": agreement_min})


def one_sided_check(f: AnyFunction, g: BooleanFunction,
                    params: NoiseParams) -> tuple[float, float]:
    """One-sided error pair (eta1, eta2) of the relaxed eigenvalue problem.

    eta1 = E over mu_p of (1 - g) * T f; eta2 = Pr over mu_p that g = 1 yet
    T f falls strictly below lam = params.lam.  (Strictly: an exact
    eigenpair with lam equal to the minimum of T f on the support of g
    scores eta2 = 0.)
    """
    if params.lam is None:
        raise ValueError("params.lam is required for a one-sided check")
    _check_same_dimension(f, g)
    tf = downward_noise_table(f.table, f.n, params.rho)
    w = measure_weights(f.n, params.p)
    miss = np.subtract(1.0, g.table, dtype=np.float64)
    eta1 = float(w @ np.multiply(miss, tf, out=miss))
    # g is 0 or 1, so g times the 0/1 test tf < lam is the indicator of both
    eta2 = float(w @ np.multiply(np.less(tf, params.lam, out=tf), g.table, out=tf))
    return eta1, eta2


# ---------------------------------------------------------------------------
# Structure distances

def _and_distances(tables: np.ndarray, n: int, p: float) -> tuple[np.ndarray, np.ndarray, list]:
    """mu_p mean of each row of raw uint8 tables (any leading axes), the L1
    gap mean + p^|S| - 2 corr(S) to every AND_S and (part, least gap) per
    part of _level_blocks.  One superset pass on f with the kernel
    [[1 - p, p], [0, p]] weights each coordinate by mu_p on the way, so
    entry S is corr(S), the sum over B containing S of mu_p(B) f(B), and
    the empty set's is the mean; each part is scaled by -2 (exact) and gets
    its per-level constants.  No term is negative, so to first order the
    mean and every corr(S) are within a relative (19/4) n u, u = 2^-53, of
    the exact sums under the kernel's float64 entries.  The gaps cancel:
    each is within ((19/4) n + 4) u (mean + p^|S| + 2 corr(S))."""
    gaps = apply_kernel(tables, n, np.array([[1.0 - p, p], [0.0, p]]), copy=True)
    mean, lows = gaps[..., 0].copy(), []
    for part, block in _level_blocks(p ** np.arange(n + 1.0) + mean[..., None], n):
        gap = np.multiply(gaps[..., part], -2.0, out=gaps[..., part])
        lows.append((part, np.add(gap, block, out=gap).min(axis=-1)))
    return mean, gaps, lows


def distance_to_constant_or_and(f: BooleanFunction, p: float) -> StructureVerdict:
    """Minimal L1 distance from f to a constant or an AND, with witness.

    Mean and gaps come from ``_and_distances``, one superset-sum pass in
    O(n*2^n), with the errors it states.  Ties prefer the smaller witness
    (constants count as empty), then the lexicographically smaller.
    """
    _check_open_unit("bias p", p)
    mean, dists, lows = _and_distances(f.table, f.n, p)
    mean = float(mean)
    cut = min(mean, 1.0 - mean, *(float(low) for _, low in lows)) + TIE_TOL
    if mean <= cut:
        return StructureVerdict(kind="zero", witness=0, distance=mean)
    if 1.0 - mean <= cut:     # the empty AND is the same function
        return StructureVerdict(kind="constant", witness=1, distance=1.0 - mean)
    # a part whose least gap is above the cut holds no candidate
    cands = np.concatenate([np.flatnonzero(dists[part] <= cut) + part.start
                            for part, low in lows if low <= cut])
    pick = int(cands[np.lexsort((cands, popcounts(f.n)[cands]))[0]])
    witness = frozenset(i for i in range(f.n) if (pick >> i) & 1)
    return StructureVerdict(kind="and", witness=witness, distance=float(dists[pick]))


def _partitions_into_blocks(items: tuple[int, ...], max_blocks: int):
    """All set partitions of items into at most max_blocks nonempty blocks,
    each a tuple of disjoint frozensets."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    alone = frozenset((first,))
    for sub in _partitions_into_blocks(rest, max_blocks):
        for k in range(len(sub)):
            yield sub[:k] + (sub[k] | alone,) + sub[k + 1:]
        if len(sub) < max_blocks:
            yield sub + (alone,)


def distance_to_and_or(f: BooleanFunction, p: float, max_width: int = 4,
                       tau: float = 0.05,
                       max_support: int = 10) -> StructureVerdict:
    """Minimal L1 distance from f to an AND-OR of bounded width.

    An exact recognition hit short-circuits to distance zero.  Otherwise the
    search runs over every partition into at most max_width blocks of every
    subset of c coordinates: all n when n <= max_support, else the
    max_support of largest influence (ties to the lower) among those whose
    influence reaches tau.  max_width and max_support must be >= 0, tau in [0, 1].

    Chunks of candidate tables G (2^13 entries at most) on the 2^c sub-cube
    score G @ off + (1 - G) @ on, with the weights where f is 1 (on) and 0
    (off) summed onto the sub-cube.  No term is negative, so each distance
    is within a relative (2^(n-c) + 2^c) * 2^-53 of the exact one under the
    float64 weights (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 4.2); members score 0.0.  A candidate beats the best so far, in
    enumeration order, if it is closer by more than TIE_TOL, or within
    TIE_TOL and narrower.
    """
    _check_boolean("distance_to_and_or", f)
    _check_open_unit("bias p", p)
    _check_at_least_zero("max_width", max_width)
    _check_at_least_zero("max_support", max_support)
    _check_closed_unit("tau", tau)
    exact = recognize_and_or(f)
    if exact is not None and exact.width <= max_width:
        return StructureVerdict(kind="and_or", witness=exact, distance=0.0)
    cand = list(range(f.n))
    if f.n > max_support:
        cand = sorted(_ranked_coordinates(f, p, tau)[:max_support])
    c = len(cand)
    w = measure_weights(f.n, p)
    proj = subcube_codes(f.n, cand)
    on, off = (np.bincount(proj, weights=x, minlength=1 << c)
               for x in (w * f.table, w * (1 - f.table)))
    candidates = (blocks for size in range(1, c + 1)
                  for support in itertools.combinations(range(c), size)
                  for blocks in _partitions_into_blocks(support, max_width))
    # 2^13 entries, 64 KiB as float64: chunks of 2^15 raised the sweep's peak RSS by 0.8 MiB
    chunk = np.empty((max(1, (1 << 13) >> c), 1 << c), dtype=np.uint8)
    best_dist, best_local = float(off.sum()), ()
    while batch := list(itertools.islice(candidates, len(chunk))):
        chunk[:len(batch)] = [make_and_or(c, BlockPartition._trusted(b)).table for b in batch]
        g = chunk[:len(batch)].astype(np.float64)
        dists = g @ off
        dists += np.subtract(1.0, g, out=g) @ on
        for dist, blocks in zip(dists.tolist(), batch):
            if dist < best_dist - TIE_TOL or (
                    abs(dist - best_dist) <= TIE_TOL and len(blocks) < len(best_local)):
                best_dist, best_local = dist, blocks
    witness = BlockPartition(frozenset(cand[k] for k in b) for b in best_local)
    return StructureVerdict(kind="and_or", witness=witness, distance=best_dist)


def distance_to_monotone_junta(f: BooleanFunction, p: float,
                               tau: float = 0.05) -> StructureVerdict:
    """Upper bound on the distance from f to a monotone Boolean junta.

    Averages f onto the cube of the coordinates of influence at least tau,
    monotonizes and rounds at 1/2 there (the bits of monotonizing the junta
    projection on all n), and lifts the result back to report its distance;
    the true minimum may be smaller, hence is_upper_bound.
    """
    _check_boolean("distance_to_monotone_junta", f)
    coords = high_influence_coordinates(f, p, tau)
    mono = _sort_edges(average_out(f, coords, p).table.copy(), range(len(coords)))
    rounded = (mono >= 0.5).astype(np.float64).take(subcube_codes(f.n, coords))
    dist = float(measure_weights(f.n, p) @ np.not_equal(f.table, rounded, out=rounded))
    return StructureVerdict(kind="monotone_junta", witness=frozenset(coords),
                            distance=dist, is_upper_bound=True)


# ---------------------------------------------------------------------------
# Theorem-style audits

@dataclass(frozen=True)
class AuditReport:
    theorem: str
    premise: dict[str, float]
    conclusion: dict[str, float]
    verdict: StructureVerdict | None = None
    notes: tuple[str, ...] = field(default=())

    def passed(self, eta_max: float, eps_max: float) -> bool:
        """Strict-mode gate: if every premise defect is within eta_max, every
        conclusion distance must be within eps_max (vacuous otherwise).
        Both thresholds must be at least 0; NaN is rejected."""
        _check_at_least_zero("eta_max", eta_max)
        _check_at_least_zero("eps_max", eps_max)
        premise_ok = all(v <= eta_max for k, v in self.premise.items()
                         if k.startswith(("eta", "epsilon", "max_")))
        if not premise_ok:
            return True
        return all(v <= eps_max for k, v in self.conclusion.items()
                   if k.startswith("delta"))


def _averaged_profile(f: AnyFunction, coords, avg_bias: float,
                      target: BooleanFunction, scale: float) -> dict[str, float]:
    """L1/Linf gaps between f averaged outside coords and scale * target.

    Averaging uses avg_bias on the dropped coordinates, and the L1 gap is
    taken under the same bias on the kept cube: the averaged function lives
    on the input side of the operator.
    """
    keep = sorted(coords)
    ftilde = average_out(f, keep, avg_bias) if len(keep) < f.n else f
    gap = ftilde.table - np.multiply(target.table, scale, dtype=np.float64)
    w = measure_weights(len(keep), avg_bias)
    return {"delta_f_avg_l1": float(w @ np.abs(gap, out=gap)),
            "delta_f_avg_linf": float(gap.max(initial=0.0))}


THEOREM_ALIASES = {"2.1": "small-rho", "2.2": "half-rho", "2.3": "large-lambda",
                   "2.4": "monotone", "2.6": "triple", "2.8": "one-sided"}


def theorem_audit(theorem: str, f: AnyFunction, g: BooleanFunction,
                  params: NoiseParams, h: BooleanFunction | None = None,
                  tau: float = 0.05) -> AuditReport:
    """Measure premise and conclusion quantities of one classification claim.

    Supported ids: 'small-rho' (rho below 1/2: constant-or-AND structure),
    'half-rho' (rho = 1/2: AND-OR / AND-XOR structure), 'large-lambda'
    (lam >= rho: near-constant), 'monotone' (monotone f: AND structure),
    'triple' (three-function AND homomorphism), 'one-sided' (monotone
    junta).  Numeric aliases 2.1, 2.2, 2.3, 2.4, 2.6, 2.8 map in that
    order.  Averaged-function closeness is measured exactly in the averaged
    form (average f outside the witness, compare to the scaled target) and
    nothing stronger.

    large-lambda, small-rho and monotone share one conclusion path: each
    picks its verdict on g (large-lambda the zero or constant nearer to
    E_p[g], the other two distance_to_constant_or_and); then a zero or
    constant verdict reports delta_f_mean = |E_q[f] - lam * c|, c the
    constant (its witness), and an AND_T verdict the witness size, its
    bound and f's averaged profile against rho^-|T| lam AND_T.  half-rho
    compares f averaged outside the AND-OR witness's support with
    2^width lam times the local AND-XOR of its blocks.
    """
    theorem = THEOREM_ALIASES.get(theorem, theorem)
    if theorem not in THEOREM_ALIASES.values():
        raise ValueError(f"unknown theorem id {theorem!r}")
    p, rho, lam = params.p, params.rho, params.lam
    q = rho * p     # the input-side bias
    if q == 0 and theorem != "one-sided":
        raise ValueError(f"rho * p = {rho} * {p} underflows to 0")

    if theorem == "triple":
        if h is None:
            raise ValueError("the triple audit needs all three functions")
        _check_boolean("the triple audit", f)
        agree = homomorphism_agreement(f, p, rho, g=g, h=h)
        vf = distance_to_constant_or_and(f, q)
        vg = distance_to_constant_or_and(g, p)
        vh = distance_to_constant_or_and(h, rho)
        conclusion = {
            "delta_f": vf.distance, "delta_g": vg.distance, "delta_h": vh.distance,
            "delta_zero_f": expectation(f, q),
            "delta_zero_gh": min(expectation(g, p), expectation(h, rho)),
        }
        return AuditReport(theorem, {"epsilon_hom": agree.details["defect"]},
                           conclusion, vg)

    if theorem == "one-sided":
        if lam is None:
            raise ValueError("the one-sided audit needs params.lam")
        eta1, eta2 = one_sided_check(f, g, params)
        v = distance_to_monotone_junta(g, p, tau)
        return AuditReport(theorem, {"eta1": eta1, "eta2": eta2},
                           {"delta_g_monotone_junta": v.distance}, v)

    if lam is None:
        raise ValueError("this audit needs params.lam")
    premise = {"eta_residual": residual(f, g, params)}

    if theorem == "half-rho":
        v = distance_to_and_or(g, p, tau=tau)
        support = sorted(v.witness.support())
        local = BlockPartition(tuple(frozenset(map(support.index, blk))
                                     for blk in v.witness.blocks))
        conclusion = {"delta_g": v.distance, "width": float(v.witness.width),
                      **_averaged_profile(f, support, q, make_and_xor(len(support), local),
                                          2.0 ** v.witness.width * lam)}
        notes = ("this audit is specific to rho = 1/2",) if abs(rho - 0.5) > 1e-12 else ()
        return AuditReport(theorem, premise, conclusion, v, notes)

    if theorem == "large-lambda":
        premise["lambda_minus_rho"] = lam - rho
        e_g = expectation(g, p)
        gamma = int(e_g > 0.5)
        v = StructureVerdict(kind=("zero", "constant")[gamma], witness=gamma,
                             distance=min(e_g, 1.0 - e_g))
        conclusion = {"delta_g_const": v.distance}
    else:
        if theorem == "monotone":
            premise["max_negative_influence"] = max(_influences(f, q)[1], default=0.0)
        v = distance_to_constant_or_and(g, p)
        conclusion = {"delta_g": v.distance}
    if v.kind != "and":     # a zero or constant verdict's witness is its value
        conclusion["delta_f_mean"] = abs(expectation(f, q) - lam * v.witness)
        return AuditReport(theorem, premise, conclusion, v)
    T = sorted(v.witness)
    conclusion["witness_size"] = float(len(T))
    # ceil(log2(2 / lam)) exactly, for lam = m * 2^e with m in [1/2, 1)
    conclusion["witness_size_bound"] = float(2 - math.frexp(lam)[1])
    try:
        scale = rho ** -len(T) * lam
    except OverflowError:
        raise ValueError(f"rho = {rho} overflows rho^-|T| at |T| = {len(T)}") from None
    conclusion.update(_averaged_profile(f, T, q, make_and(len(T), range(len(T))), scale))
    return AuditReport(theorem, premise, conclusion, v)


# ---------------------------------------------------------------------------
# Perturbation sweep

SWEEP_HEADER = ("seed,n,p,rho,lambda,epsilon_hom,eta_residual,"
                "delta_const_and,delta_andor,verdict_kind,witness")
SWEEP_FAMILIES = ("and", "maj", "semirandom")
# sweep_rows builds its whole task list, and the rows, before it returns.
# A row of the longest text at a one-digit seed holds about 665 bytes (its
# task, its text and the CSV copies), so at the cap the sweep holds about
# one n = 24 float64 table, 128 MiB.
MAX_SWEEP_ROWS = 200_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep parameters; ``sweep_rows`` reads every field but ``out``.

    p and rho lie in (0,1), each of ``sizes`` in [0, MAX_N_BOOLEAN] (and
    at least 3 unless family is "and"), family in SWEEP_FAMILIES, tau in
    [0, 1], and seed, trials, and_width, andor_max_width, window_scale and
    the perturbations are >= 0; NaN is rejected.  A config of more than
    MAX_SWEEP_ROWS rows (len(sizes) * len(perturbations) * trials) is
    rejected before any row runs.  Each field reads from a key=value file
    as the type of its default, and a key that is not a field is rejected.
    """

    p: float = 0.5
    rho: float = 0.5
    andor_max_width: int = 2
    seed: int = 0
    tau: float = 0.05
    family: str = "and"
    sizes: str = "8"
    perturbations: str = "0,1,2,4,8"
    trials: int = 3
    and_width: int = 2
    window_scale: float = 0.5
    out: str = ""

    def __post_init__(self):
        for name in ("p", "rho"):
            _check_open_unit(f"config {name}", getattr(self, name))
        for n in self.int_list("sizes"):
            _check_dimension(n)
        if self.family not in SWEEP_FAMILIES:
            raise ValueError(f"config family must be one of "
                             f"{', '.join(SWEEP_FAMILIES)}, got {self.family!r}")
        if self.family != "and" and min(self.int_list("sizes"), default=3) < 3:
            raise ValueError(f"config family {self.family} needs sizes of at least 3, "
                             f"got {self.sizes}")
        for name in ("seed", "trials", "and_width", "andor_max_width", "perturbations"):
            for value in self.int_list(name):
                _check_at_least_zero(f"config {name}", value)
        rows = len(self.int_list("sizes")) * len(self.int_list("perturbations")) * self.trials
        if rows > MAX_SWEEP_ROWS:
            raise ValueError(f"config asks for {rows} rows, more than {MAX_SWEEP_ROWS}")
        _check_at_least_zero("config window_scale", self.window_scale)
        _check_closed_unit("config tau", self.tau)

    def int_list(self, field_name: str) -> list[int]:
        return [int(tok) for tok in str(getattr(self, field_name)).split(",") if tok != ""]

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        values: dict = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, _, raw = line.partition("=")
                values[key.strip()] = raw.strip()
        values.update(overrides or {})
        kwargs = {f.name: type(f.default)(values.pop(f.name))
                  for f in fields(cls) if f.name in values}
        if values:
            raise ValueError(f"unknown config keys: {sorted(values)}")
        return cls(**kwargs)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _perturb(f: BooleanFunction, k: int, rng: np.random.Generator) -> BooleanFunction:
    """Flip k distinct truth-table points."""
    table = f.table.copy()
    pts = rng.choice(1 << f.n, size=min(k, 1 << f.n), replace=False)
    table[pts] ^= 1
    return BooleanFunction(f.n, table)


def _base_function(config: ExperimentConfig, n: int,
                   rng: np.random.Generator) -> BooleanFunction:
    if config.family == "and":
        coords = sorted(rng.choice(n, size=min(config.and_width, n), replace=False).tolist())
        return make_and(n, coords)
    if config.family == "maj":
        return make_majority3(n)
    return make_semirandom(n, config.window_scale, rng)


def _sweep_row(task: tuple) -> str:
    config, n, k, trial = task
    p, rho = config.p, config.rho
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, n, k, trial)))
    base = _base_function(config, n, rng)
    f = _perturb(base, k, rng) if k else base
    lam = expectation(f, p)
    eps_hom = homomorphism_agreement(f, p, rho).details["defect"]
    eta = (residual(f, f, NoiseParams(p=p, rho=rho, lam=lam))
           if 0.0 < lam <= 1.0 else float("nan"))
    v = distance_to_constant_or_and(f, p)
    va = distance_to_and_or(f, p, max_width=config.andor_max_width, tau=config.tau,
                            max_support=min(n, 8))
    return ",".join([str(config.seed), str(n), *map(_fmt, (p, rho, lam, eps_hom, eta,
                     v.distance, va.distance)), v.kind, v.witness_str()])


def sweep_rows(config: ExperimentConfig, workers: int = 1) -> list[str]:
    """CSV rows for one perturbation family; deterministic in (config, seed).

    Every row perturbs a base function on k points, takes lam to be the
    perturbed function's mu_p mean, and reports the homomorphism defect,
    the eigenvalue residual and the structure distances.  Rows come back in
    task order whatever the worker count; no more workers start than rows.
    """
    args = [(config, *nkt) for nkt in itertools.product(
        config.int_list("sizes"), config.int_list("perturbations"), range(config.trials))]
    workers = min(workers, len(args))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_row, args, chunksize=4))
    return [_sweep_row(a) for a in args]
