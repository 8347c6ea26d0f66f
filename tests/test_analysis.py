import importlib.util
import itertools
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import polyspec as ps
from polyspec import analysis
from polyspec.analysis import _and_distances, _defect_exact, _monotone_codes, _perturb
from polyspec.influences import is_monotone
from polyspec.lattice import index_bits, popcounts, zeta_subsets
from polyspec.noise import invert_downward
from conftest import random_boolean, random_bounded
from oracles import (all_and_or_tables, all_block_partitions, and_correlation,
                     and_or_candidate_count, bit, and_or_search_candidates,
                     classify_boolean_eigens_bruteforce, and_correlations,
                     defect_exact_expression, defect_reference, exact_and_or_distances,
                     exact_l1, junta_project, longdouble_weights, naive_agreement, naive_influence,
                     naive_negative_influence, pair_agreement, subsets)


# ---------------------------------------------------------------------------
# eigenfunction classification

def test_classify_n2():
    hits = ps.classify_boolean_eigens(2, 0.5)
    got = {f.table.tobytes(): lam for f, lam in hits}
    expected = {
        ps.constant(2, 0).table.tobytes(): None,
        ps.constant(2, 1).table.tobytes(): 1.0,
        ps.make_and(2, [0]).table.tobytes(): 0.5,
        ps.make_and(2, [1]).table.tobytes(): 0.5,
        ps.make_and(2, [0, 1]).table.tobytes(): 0.25,
    }
    assert {k: (None if v is None else round(v, 12)) for k, v in got.items()} \
        == {k: (None if v is None else round(v, 12)) for k, v in expected.items()}


def test_classify_n3_quarter():
    hits = ps.classify_boolean_eigens(3, 0.25)
    assert len(hits) == 9
    tables = {f.table.tobytes() for f, _ in hits}
    for coords in subsets(3):
        assert ps.make_and(3, coords).table.tobytes() in tables
    lams = sorted(lam for _, lam in hits if lam is not None)
    assert lams == pytest.approx(sorted(0.25 ** len(c) for c in subsets(3)),
                                 abs=1e-12)


def test_classify_caps():
    with pytest.raises(ValueError):
        ps.classify_boolean_eigens(6, 0.5)


def _eigen_list(hits):
    return [(f.table.tobytes(), None if lam is None else float.hex(lam))
            for f, lam in hits]


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.7, 0.25, 0.123, 1e-3, 0.999])
@pytest.mark.parametrize("n", range(5))
def test_classify_matches_full_enumeration(n, rho):
    """The monotone route gives the full enumeration's list: same tables,
    same order, same lambda bits."""
    assert _eigen_list(ps.classify_boolean_eigens(n, rho)) \
        == _eigen_list(classify_boolean_eigens_bruteforce(n, rho))


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
def test_classify_n5_is_zero_and_the_ands(rho):
    # perfbench's closed-form oracle, loaded by path: tests/oracles.py
    # already holds the module name
    path = Path(__file__).parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    closed_form = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(closed_form)
    expected = closed_form.boolean_eigens(5, rho)
    got = {f.table.tobytes(): lam for f, lam in ps.classify_boolean_eigens(5, rho)}
    assert len(got) == 33 and got.keys() == expected.keys()
    for key, lam in expected.items():
        if lam is None:
            assert got[key] is None
        else:
            assert abs(got[key] - lam) <= 1e-12


def test_monotone_codes_count_the_dedekind_numbers():
    for n, count in enumerate([2, 3, 6, 20, 168, 7581]):
        codes = _monotone_codes(n)
        assert codes.dtype == np.int64 and len(codes) == count
        assert np.all(np.diff(codes) > 0)


@pytest.mark.parametrize("n", range(5))
def test_monotone_codes_are_the_monotone_tables(n):
    size = 1 << n
    tables = index_bits(size, np.arange(1 << size))
    monotone = [code for code, table in enumerate(tables)
                if is_monotone(ps.BooleanFunction(n, table))]
    assert _monotone_codes(n).tolist() == monotone


# ---------------------------------------------------------------------------
# exact pair solving

def test_solve_and_or_at_half():
    part = ps.BlockPartition(({0, 1}, {2}))
    g = ps.make_and_or(3, part)
    r = part.width
    sol = ps.solve_exact_pair(g, 0.5, lam=2.0 ** -r)
    assert sol.feasible
    assert sol.lam_max == pytest.approx(2.0 ** -r, abs=1e-15)
    assert np.array_equal(sol.preimage, ps.make_and_xor(3, part).table)


def test_solve_or_infeasible_at_quarter():
    sol = ps.solve_exact_pair(ps.make_or(2, [0, 1]), 0.25)
    assert not sol.feasible
    assert sol.negative_mass == pytest.approx(8.0, abs=1e-12)


def test_solve_without_lambda_returns_the_raw_preimage(rng):
    g = random_boolean(6, rng)
    sol = ps.solve_exact_pair(g, 0.4)
    assert sol.preimage.tobytes() == invert_downward(g, 0.4).tobytes()


def test_exact_pair_classification_n5_on_the_monotone_tables():
    """Criterion 03 at n = 5.  If T f = lam g with f >= 0 and lam > 0, then
    where g(x) = 0 the sum T f(x) forces f = 0 on every y <= x, so g is 0
    there too: every feasible right-hand side is monotone, and the 7581
    monotone tables hold all of them.  At rho = 1/2 the feasible ones are
    zero and the 203 AND-ORs, each preimage 2^width times the AND-XOR of
    the recognized partition; at rho = 1/4, zero and the 32 ANDs."""
    n = 5
    tables = index_bits(1 << n, _monotone_codes(n))
    raw = tables.astype(np.float64)
    zero = bytes(1 << n)

    pre_half = invert_downward(raw, 0.5)
    feasible = np.flatnonzero(pre_half.min(axis=1) >= 0)
    assert len(feasible) == 204
    assert {tables[r].tobytes() for r in feasible} == set(all_and_or_tables(n)) | {zero}
    for r in feasible:
        part = ps.recognize_and_or(ps.BooleanFunction(n, tables[r]))
        if part is None:
            assert tables[r].tobytes() == zero
            continue
        phi = ps.make_and_xor(n, part)
        assert np.array_equal(pre_half[r], 2.0 ** part.width * phi.table)

    pre_quarter = invert_downward(raw, 0.25)
    feasible = np.flatnonzero(pre_quarter.min(axis=1) >= 0)
    ands = {ps.make_and(n, coords).table.tobytes() for coords in subsets(n)}
    assert len(feasible) == 33
    assert {tables[r].tobytes() for r in feasible} == ands | {zero}


def test_solve_zero():
    sol = ps.solve_exact_pair(ps.constant(3, 0), 0.5, lam=0.7)
    assert sol.feasible and sol.lam_max is None
    assert np.array_equal(sol.preimage, np.zeros(8))


@pytest.mark.parametrize("lam", [-1.0, 0.0, float("nan"), 5.0, 1.0 + 2.0 ** -52])
def test_solve_rejects_lambda_outside_zero_one(lam):
    g = ps.make_and_or(3, ps.BlockPartition(({0, 1}, {2})))
    with pytest.raises(ValueError) as err:
        ps.solve_exact_pair(g, 0.5, lam=lam)
    assert str(err.value) == f"lam must lie in (0,1], got {lam}"
    assert ps.solve_exact_pair(g, 0.5, lam=1.0).feasible


def test_solve_reports_plus_zero_negative_mass_when_feasible():
    part = ps.BlockPartition(({0, 1}, {2}))
    for g in (ps.make_and_or(3, part), ps.make_and(4, [1, 3]), ps.constant(3, 0)):
        sol = ps.solve_exact_pair(g, 0.5)
        assert sol.feasible
        assert sol.negative_mass.hex() == "0x0.0p+0"


@pytest.mark.parametrize("g, rho", [
    pytest.param(ps.make_and(3, [0, 1]), 1e-300, id="and-1e-300"),
    pytest.param(ps.make_and(3, [0, 1]), 1e-320, id="and-1e-320"),
    pytest.param(ps.constant(3, 1), 1e-320, id="one-1e-320"),
])
def test_solve_rejects_a_rho_whose_preimage_holds_nan(g, rho):
    """1/rho, or a product of its powers, overflows to inf and inf * 0 is
    NaN; the solver names rho and n instead of returning NaN entries."""
    with pytest.raises(ValueError) as err:
        ps.solve_exact_pair(g, rho)
    assert str(err.value) == f"rho = {rho} overflows the preimage to NaN at n = 3"


# ---------------------------------------------------------------------------
# homomorphism agreement

def test_agreement_of_ands():
    for coords in ([], [1], [0, 2]):
        f = ps.make_and(3, coords)
        for p, rho in ((0.5, 0.5), (0.3, 0.7)):
            assert ps.homomorphism_agreement(f, p, rho).estimate == \
                pytest.approx(1.0, abs=1e-12)


def test_agreement_reference_values():
    maj = ps.make_majority3()
    assert ps.homomorphism_agreement(maj, 0.5, 0.5).estimate == \
        pytest.approx(58 / 64, abs=1e-12)
    xor2 = ps.make_xor(2, [0, 1])
    assert ps.homomorphism_agreement(xor2, 0.5, 0.5).estimate == \
        pytest.approx(10 / 16, abs=1e-12)


def test_agreement_identity_matches_pair_enumeration(rng):
    for _ in range(15):
        n = int(rng.integers(1, 6))
        f, g, h = (random_boolean(n, rng) for _ in range(3))
        p, rho = float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8))
        fast = ps.homomorphism_agreement(f, p, rho, g=g, h=h).estimate
        assert fast == pytest.approx(pair_agreement(f, g, h, p, rho), abs=1e-12)
        assert fast == pytest.approx(
            naive_agreement(f.table, g.table, h.table, n, p, rho), abs=1e-10)


def test_agreement_bits_match_the_plain_expression():
    """The in-place build of the per-x defect gives the bits of the
    expression with one temporary per operation, non-dyadic p and rho
    included, with g, f and h all different, and the estimate is
    1 - defect.  A last-bit change in per-x values moves the final sum in
    only about one non-dyadic case in fifteen, so there are 80 of them."""
    rng = np.random.default_rng(2020)
    for n in (3, 5, 7, 9, 12):
        for _ in range(8):
            f, g, h = (random_boolean(n, rng) for _ in range(3))
            for p, rho in ((0.5, 0.5), (0.3, 0.7), (0.123, 0.456)):
                rep = ps.homomorphism_agreement(f, p, rho, g=g, h=h)
                want = defect_exact_expression(f, g, h, p, rho)
                assert rep.details["defect"].hex() == want.hex(), (n, p, rho)
                assert rep.estimate.hex() == (1.0 - want).hex(), (n, p, rho)


def test_exact_agreement_peak_memory_stays_under_four_tables():
    """At n = 20 the per-x defect is built in place on T f, E[h] is read
    from the superset pass, and no mu_rho weight table is made, so the peak
    is two 8 MiB float64 tables and the scratch block (17 MiB measured),
    not the six tables of the plain expression (50 MiB)."""
    f = ps.BooleanFunction(20, np.random.default_rng(20).random(1 << 20) < 0.3)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ps.homomorphism_agreement(f, 0.3, 0.6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 18 << 20


def test_agreement_montecarlo_consistent(rng):
    f = random_boolean(5, rng)
    exact = ps.homomorphism_agreement(f, 0.5, 0.5).estimate
    mc = ps.homomorphism_agreement(f, 0.5, 0.5,
                                   samples=200_000, rng=3)
    assert abs(mc.estimate - exact) < 4 * mc.std_error


def test_exact_agreement_at_n16_matches_montecarlo():
    rng = np.random.default_rng(1616)
    for f in (random_boolean(16, rng), ps.make_semirandom(16, 1.0, rng),
              _perturb(ps.make_and(16, range(6)), 4000, rng)):
        exact = ps.homomorphism_agreement(f, 0.3, 0.6)
        assert exact.exact
        mc = ps.homomorphism_agreement(f, 0.3, 0.6,
                                       samples=400_000, rng=16)
        assert abs(mc.estimate - exact.estimate) < 4 * mc.std_error


def test_and_correlation_cancellation_error_at_n16():
    """The last zeta pass of the exact defect sums signed terms A(S) m(S)
    far larger than q itself.  Rerun the fused superset pass and the two
    subset passes stage by stage in np.longdouble (same float64 kernel
    entries and inputs) and bound the float64 error pointwise by the
    first-order rounding bound of stage-by-stage passes, (2n + 1) * eps *
    sum over A within S of |A(A) m(A)|: n additions per superset sum, one
    product, n additions per subset sum.  Group products allow more, but
    the error stays inside the stagewise bound.  Measured: at most 1.2e-14
    absolute, and at most 10% of that bound."""
    n = 16
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(2016)
    pairs = [(rng.integers(0, 2, 1 << n), rng.integers(0, 2, 1 << n)),
             (ps.make_semirandom(n, 1.0, rng).table,) * 2]
    for f, h in pairs:
        for rho in (0.3, 0.7):
            q = and_correlation(f, h, n, rho)[2]
            _, terms, exact = and_correlation(f, h, n, rho, np.longdouble)
            magnitude = zeta_subsets(np.abs(terms), n)
            assert exact.dtype == np.longdouble
            err = np.abs(q - exact)
            assert np.all(err <= (2 * n + 1) * eps * magnitude)
            assert err.max() < 1e-13


def test_exact_defect_is_within_its_bound():
    """The exact defect against its passes rerun stage by stage in
    np.longdouble (oracles.defect_reference), within the first-order bound
    the _defect_exact docstring states, u (((19/2) n + 3) E[D] +
    (2^n + 5) E|d|), u = 2^-53, on stacks of the zero function, every AND_S
    at n <= 6 (the empty AND is the constant one), three random AND_S at
    n = 12 and 16 (f = g = h for all of these) and random distinct f, g and
    h.  At p = rho = 1/2 every value on the way is dyadic, so the defect is
    exact.  No sign is required: the local sum cancels, and exact ANDs may
    come out as tiny negatives."""
    rng = np.random.default_rng(33)
    u = np.longdouble(2.0) ** -53
    for n in (*range(7), 12, 16):
        sets = list(subsets(n)) if n <= 6 else [
            sorted(rng.choice(n, k, replace=False).tolist()) for k in (1, n // 3, n)]
        homs = np.stack([np.zeros(1 << n, np.uint8)] + [ps.make_and(n, S).table for S in sets])
        f_t, g_t, h_t = (np.concatenate([homs, rng.integers(0, 2, (1, 1 << n), np.uint8)])
                         for _ in range(3))
        for rho in (0.3, 0.5, 0.7):
            d, big_d = defect_reference(f_t, g_t, h_t, n, rho)
            for p in (0.123, 0.3, 0.7, 0.9) + ((0.5,) if rho == 0.5 else ()):
                w = longdouble_weights(n, p)
                got = _defect_exact(f_t, g_t, h_t, n, p, rho)
                want = (d * w).sum(axis=-1)
                if p == rho == 0.5:
                    assert np.array_equal(got, want), n
                bound = u * (((19 * n / 2 + 3) * big_d + (2 ** n + 5) * np.abs(d)) * w).sum(axis=-1)
                assert np.all(np.abs(got - want) <= bound), (n, p, rho)


def test_agreement_loss_bounded_by_perturbation_mass(rng):
    # an exact homomorphism moved on a set D disagrees only when one of the
    # three sampled points lands in D, so the loss is at most the mass of D
    # under each of the three input measures
    n, p, rho = 8, 0.5, 0.5
    from polyspec.lattice import measure_weights
    for k in (1, 4, 16, 64):
        base = ps.make_and(n, [0, 1])
        f = _perturb(base, k, rng)
        moved = np.flatnonzero(f.table != base.table)
        loss = sum(float(measure_weights(n, b)[moved].sum())
                   for b in (rho * p, p, rho))
        agree = ps.homomorphism_agreement(f, p, rho).estimate
        assert agree >= 1.0 - loss - 1e-12


# ---------------------------------------------------------------------------
# PRS-style tester

def test_prs_accepts_dictator():
    rep = ps.prs_tester(ps.make_and(4, [0]))
    assert rep.accepted and rep.exact
    assert rep.details["expectation"] == pytest.approx(0.5, abs=1e-12)
    assert rep.estimate == pytest.approx(1.0, abs=1e-12)


def test_prs_flags_constant_one():
    rep = ps.prs_tester(ps.constant(4, 1))
    assert rep.estimate == pytest.approx(1.0, abs=1e-12)
    assert not rep.accepted                      # expectation 1 is off-window


def test_prs_rejects_majority_at_tight_threshold():
    rep = ps.prs_tester(ps.make_majority3(), agreement_min=0.95)
    assert rep.details["agreement"] == pytest.approx(58 / 64, abs=1e-12)
    assert not rep.accepted


def test_prs_montecarlo_runs():
    rep = ps.prs_tester(ps.make_and(4, [0]), samples=50_000, rng=8)
    assert not rep.exact and rep.samples == 50_000
    assert abs(rep.estimate - 1.0) < 0.01


# ---------------------------------------------------------------------------
# one-sided error checks

def test_one_sided_exact_and_pair():
    f = ps.make_and(4, [0, 1])
    tf = ps.downward_noise(f, 0.5)
    lam = float(tf.table[f.table > 0].min())     # equals rho^|T|
    eta1, eta2 = ps.one_sided_check(f, f, ps.NoiseParams(p=0.5, rho=0.5, lam=lam))
    assert eta2 == 0.0
    assert eta1 == 0.0          # T f vanishes off the support of a monotone f


def test_one_sided_nonmonotone_leaks():
    # a non-monotone f pushes mass below the support of g, so eta1 > 0
    f = ps.BooleanFunction(2, [1, 0, 1, 0])      # NOT x0
    g = ps.make_and(2, [0])
    eta1, _ = ps.one_sided_check(f, g, ps.NoiseParams(p=0.5, rho=0.5, lam=0.5))
    assert eta1 > 0.2


def test_one_sided_trivial_pairs():
    params = ps.NoiseParams(p=0.5, rho=0.5, lam=0.5)
    zero, one = ps.constant(3, 0), ps.constant(3, 1)
    assert ps.one_sided_check(zero, zero, params) == (0.0, 0.0)
    assert ps.one_sided_check(one, zero, params) == (1.0, 0.0)
    with pytest.raises(ValueError, match="params.lam is required for a one-sided check"):
        ps.one_sided_check(zero, zero, ps.NoiseParams(p=0.5, rho=0.5))


# ---------------------------------------------------------------------------
# structure distances

def test_distance_and_is_zero():
    for coords in ([1], [0, 3]):
        v = ps.distance_to_constant_or_and(ps.make_and(4, coords), 0.5)
        assert v.kind == "and" and v.witness == frozenset(coords)
        assert v.distance == pytest.approx(0.0, abs=1e-15)


def test_distance_constants():
    v0 = ps.distance_to_constant_or_and(ps.constant(3, 0), 0.4)
    assert v0.kind == "zero" and v0.distance == 0.0
    for n, p in itertools.product((0, 1, 5, 9), (0.123, 0.4, 0.5)):
        # the mean is 0.0 - (-2 mean) / 2, so the zero function reports +0.0
        assert ps.distance_to_constant_or_and(ps.constant(n, 0), p).distance.hex() == "0x0.0p+0"
    v1 = ps.distance_to_constant_or_and(ps.constant(3, 1), 0.4)
    assert v1.kind == "constant" and v1.distance == 0.0


def test_distance_majority():
    v = ps.distance_to_constant_or_and(ps.make_majority3(), 0.5)
    assert v.distance == pytest.approx(0.25, abs=1e-15)
    assert v.kind == "and" and v.witness == frozenset({0})   # tie-break: smallest


def test_distance_matches_bruteforce(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        f = random_boolean(n, rng)
        p = float(rng.uniform(0.2, 0.8))
        v = ps.distance_to_constant_or_and(f, p)
        best = min(
            [ps.l1_distance(f, ps.constant(n, 0), p),
             ps.l1_distance(f, ps.constant(n, 1), p)]
            + [ps.l1_distance(f, ps.make_and(n, S), p) for S in subsets(n) if S])
        assert v.distance == pytest.approx(best, abs=1e-12)


U = 2.0 ** -53


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 0.123])
def test_distance_bits_match_expectation_and_correlation(p):
    """The mean and the gap to every AND against the exact mu_p mean and
    correlations with the ANDs, under the kernel's float64 entries p and
    1 - p: Fraction sums at n = 1, 5 and 12, longdouble sums at n = 16 and
    20 (and_correlations).  The mean, a sum of nonnegative terms, is within
    a relative (19/4) n 2^-53; each gap mean + p^|S| - 2 corr(S), which
    cancels, within ((19/4) n + 4) 2^-53 (mean + p^|S| + 2 corr(S)), the
    bounds _and_distances states, plus (n + 9) 2^-64 of the same for the
    longdouble reference's own error.  At p = 1/2 every weight and partial
    sum is dyadic: the mean and every gap are exact.  The verdict reports
    the mean, 1 - mean or the witness's gap with their bits, and each
    part's least gap is the minimum of the part's gaps."""
    rng = np.random.default_rng(int(p * 1000))
    for n in (1, 5, 12, 16, 20):
        f = ps.BooleanFunction(n, rng.random(1 << n) < 0.2)
        mean, gaps, lows = _and_distances(f.table, n, p)
        assert [low.tobytes() for _, low in lows] == \
            [gaps[part].min().tobytes() for part, _ in lows], n
        exact = n <= 12
        want_mean, corr = and_correlations(f.table, n, p, exact)
        level = popcounts(n)
        if exact:
            pk = [Fraction(p) ** k for k in range(n + 1)]
            want = np.array([want_mean + pk[k] - 2 * c for k, c in zip(level, corr)], dtype=object)
            scale = np.array([want_mean + pk[k] + 2 * c for k, c in zip(level, corr)], dtype=object)
            err = np.abs(np.array([Fraction(g) for g in gaps.tolist()], dtype=object) - want)
            mean_err, slack = abs(Fraction(float(mean)) - want_mean), 0.0
        else:
            pk = np.longdouble(p) ** np.arange(n + 1)
            want, scale = want_mean + pk[level] - 2 * corr, want_mean + pk[level] + 2 * corr
            err = np.abs(gaps.astype(np.longdouble) - want)
            mean_err, slack = abs(np.longdouble(mean) - want_mean), (n + 9) * 2.0 ** -64
        if p == 0.5:
            assert mean_err == 0 and not err.any(), n
        assert mean_err <= (19 / 4 * n * U + slack) * want_mean, n
        assert all(err <= ((19 / 4 * n + 4) * U + slack) * scale), n
        v = ps.distance_to_constant_or_and(f, p)
        got = {"zero": mean, "constant": 1.0 - mean}.get(v.kind)
        if got is None:
            got = gaps[sum(1 << i for i in v.witness)]
        assert v.distance.hex() == float(got).hex()


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_and_verdict_matches_a_scan_of_every_gap(p):
    """The verdict scans only the 2^14-point parts whose least gap is
    within TIE_TOL of the best; its kind, witness and distance are those of
    a scan of the whole gap table, also for ties between ANDs in different
    parts: x0 x1 or x14 x15 is 3/16 from both AND_{0,1} and AND_{14,15} at
    p = 1/2."""
    rng = np.random.default_rng(16)
    cases = [ps.make_and(16, [3, 15]), ps.make_and(20, [19]),
             ps.BooleanFunction(16, [bit(x, 0) & bit(x, 1) | bit(x, 14) & bit(x, 15)
                                     for x in range(1 << 16)])]
    for base in cases[:2]:
        flipped = base.table.copy()
        flipped[rng.integers(0, flipped.size, 40)] ^= 1
        cases.append(ps.BooleanFunction(base.n, flipped))
    for f in cases:
        mean, gaps, _ = _and_distances(f.table, f.n, p)
        mean = float(mean)
        best = min(mean, 1.0 - mean, float(gaps.min()))
        cands = np.flatnonzero(gaps <= best + analysis.TIE_TOL)
        pick = int(cands[np.lexsort((cands, popcounts(f.n)[cands]))[0]])
        want = (("zero", 0, mean) if mean <= best + analysis.TIE_TOL else
                ("constant", 1, 1.0 - mean) if 1.0 - mean <= best + analysis.TIE_TOL else
                ("and", frozenset(i for i in range(f.n) if bit(pick, i)), float(gaps[pick])))
        v = ps.distance_to_constant_or_and(f, p)
        assert (v.kind, v.witness, v.distance.hex()) == want[:2] + (want[2].hex(),)
    assert ps.distance_to_constant_or_and(cases[2], 0.5).witness == frozenset({0, 1})


@pytest.mark.parametrize("p", [0.123, 0.3, 0.7])
def test_distance_mean_is_within_its_bound_at_n20(p):
    """The mean of a random n = 20 table, a sum of nonnegative terms through
    the superset pass, is within a relative (19/4) n 2^-53 of the exact
    level-count Fraction sum under the float64 entries p and 1 - p (a dot
    with a table of rounded weights was off by 1.9e-13 at n = 22)."""
    n = 20
    f = ps.BooleanFunction(n, np.random.default_rng(int(p * 1000)).random(1 << n) < 0.5)
    counts = np.bincount(popcounts(n)[f.table == 1], minlength=n + 1)
    exact = sum(int(c) * Fraction(p) ** k * Fraction(1.0 - p) ** (n - k)
                for k, c in enumerate(counts))
    mean, _, _ = _and_distances(f.table, n, p)
    assert abs(Fraction(float(mean)) - exact) <= Fraction(19, 4) * n * Fraction(U) * exact


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, float("nan")])
def test_distance_rejects_bad_bias(p):
    with pytest.raises(ValueError, match="bias p"):
        ps.distance_to_constant_or_and(ps.make_and(3, [0]), p)
    with pytest.raises(ValueError, match="bias p"):    # before the recognizer's hit
        ps.distance_to_and_or(ps.make_and(3, [0]), p)


@pytest.mark.parametrize("kwargs,message", [
    ({"max_width": -1}, "max_width must be at least 0, got -1"),
    ({"max_width": float("nan")}, "max_width must be at least 0, got nan"),
    ({"max_support": -1}, "max_support must be at least 0, got -1"),
    ({"tau": float("nan")}, r"tau must lie in \[0,1\], got nan"),
    ({"tau": 1.5}, r"tau must lie in \[0,1\], got 1.5"),
    ({"tau": -0.1}, r"tau must lie in \[0,1\], got -0.1"),
])
@pytest.mark.parametrize("n", [3, 12])
def test_distance_to_and_or_checks_its_parameters_at_every_n(kwargs, message, n):
    """Checked on entry, whether or not n <= max_support reads tau, and
    before the recognizer's hit.  Unchecked, max_width=-1 returned the
    constant-1 distance 0.75 with witness () for AND(x0, x1) at n = 3, and
    tau=nan returned 0.125 for that AND with one point flipped."""
    f = ps.make_and(n, [0, 1])
    flipped = f.table.copy()
    flipped[-1] ^= 1
    for g in (f, ps.BooleanFunction(n, flipped)):
        with pytest.raises(ValueError, match=message):
            ps.distance_to_and_or(g, 0.5, **kwargs)


def test_distance_peak_memory_stays_at_four_tables():
    """corr, the level powers and two temporaries: 4 x 8 MiB at n = 20.
    Keeping the weights and the float64 table alive until then would add
    two more tables."""
    f = ps.BooleanFunction(20, np.random.default_rng(20).random(1 << 20) < 0.3)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ps.distance_to_constant_or_and(f, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 36 << 20


def test_distance_peak_memory_stays_under_three_tables():
    """The superset pass runs on the one float64 table it casts f into, and
    the per-level constants are added into it block by block, so at n = 20
    the peak is that 8 MiB table plus apply_kernel's 1 MiB scratch block
    (9.00 MiB measured), not the 16 MiB of a weight or level table beside
    it."""
    f = ps.BooleanFunction(20, np.random.default_rng(20).random(1 << 20) < 0.3)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ps.distance_to_constant_or_and(f, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 19 << 19


def test_distance_to_and_or_exact_hit():
    part = ps.BlockPartition(({0, 1}, {2}))
    v = ps.distance_to_and_or(ps.make_and_or(4, part), 0.5)
    assert v.kind == "and_or" and v.distance == 0.0
    assert v.witness.sorted_blocks() == part.sorted_blocks()


def _check_and_or_verdict(f, p, max_width, cand, v):
    """Exact-rational brute force over every AND-OR of width <= max_width
    supported on cand: the distance is the minimum, the witness attains it,
    and no tied AND-OR is narrower."""
    n = f.n
    q = Fraction(p).limit_denominator(100)
    dists = {blocks: exact_l1(f.table, t, n, q)
             for t, blocks in all_and_or_tables(n, max_width).values()
             if all(i in cand for blk in blocks for i in blk)}
    best = min(dists.values())
    assert v.kind == "and_or"
    assert v.distance == pytest.approx(float(best), abs=1e-12)
    own = ps.l1_distance(f, ps.make_and_or(n, v.witness), p)
    assert own == pytest.approx(v.distance, abs=1e-12)
    assert v.witness.support() <= set(cand)
    assert v.witness.width == min(len(b) for b, d in dists.items() if d == best)


def test_distance_to_and_or_matches_bruteforce(rng):
    for p in (0.3, 0.5, 0.7):
        for max_width in (1, 2, 3):
            for n in range(1, 7):
                f = random_boolean(n, rng)
                v = ps.distance_to_and_or(f, p, max_width=max_width)
                _check_and_or_verdict(f, p, max_width, range(n), v)
    # AND(x1, x2) ties with OR(x2, x3); the search meets the wider one first
    f = ps.BooleanFunction(4, [(18384 >> x) & 1 for x in range(16)])
    v = ps.distance_to_and_or(f, 0.5, max_width=3)
    _check_and_or_verdict(f, 0.5, 3, range(4), v)
    assert v.witness.sorted_blocks() == ((2, 3),)


def test_distance_to_and_or_bits_match_full_cube_search(rng):
    """The same witness, blocks in order, as the sequential search over
    full-cube candidate tables with the per-candidate formula
    mean + w@g - 2*wf@g, the same enumeration order and the same tie rule.

    At p = 1/2 every weight and every partial sum is dyadic, so that
    formula and the search's nonnegative sums are both exact: the distance
    bits must match, and the exact ties test the tie rule.  At other p the
    formula cancels (relative errors up to 9e-11 seen), so the distance is
    held instead to the exact Fraction L1 distance of the witness under the
    float64 weights: within a relative (2^(n-c) + 2^c) * 2^-53, the bound
    distance_to_and_or states for its search over c coordinates.  With
    n <= max_support the search runs on every coordinate and the sub-cube is
    the cube; with n > max_support it runs on a subset of the coordinates,
    so the aggregation onto the sub-cube is not the identity."""
    from polyspec.lattice import measure_weights
    cases = ([(p, n, 10) for p in (0.3, 0.5, 0.7) for n in range(2, 7)]
             + [(p, n, n - 3) for p in (0.3, 0.5, 0.7, 0.123) for n in range(7, 10)])
    for p, n, max_support in cases:
        f = random_boolean(n, rng)
        if ps.recognize_and_or(f) is not None:
            continue
        cand = _search_coordinates(f, p, 0.05, max_support)
        w = measure_weights(n, p)
        wf = w * f.table
        mean = ps.expectation(f, p)
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        for max_width in (1, 2, 3):
            best, best_blocks = 1.0 - mean, ()
            for size in range(1, len(cand) + 1):
                for support in itertools.combinations(cand, size):
                    for blocks in all_block_partitions(support, max_width):
                        g = np.ones(1 << n, dtype=np.uint8)
                        for blk in blocks:
                            g &= bits[:, sorted(blk)].any(axis=1).astype(np.uint8)
                        d = mean + float(w @ g) - 2.0 * float(wf @ g)
                        if d < best - analysis.TIE_TOL or (
                                abs(d - best) <= analysis.TIE_TOL
                                and len(blocks) < len(best_blocks)):
                            best, best_blocks = d, blocks
            v = ps.distance_to_and_or(f, p, max_width=max_width,
                                      max_support=max_support)
            case = (p, n, max_support, max_width)
            assert v.witness.blocks == best_blocks, case
            if p == 0.5:
                assert v.distance.hex() == max(best, 0.0).hex(), case
            else:
                exact, = exact_and_or_distances(f.table, n, p, [v.witness.blocks])
                bound = Fraction(2 ** (n - len(cand)) + 2 ** len(cand), 2 ** 53)
                assert abs(Fraction(v.distance) - exact) <= bound * exact, case


def _search_coordinates(f, p, tau, max_support):
    """The candidate coordinates of the AND-OR search, from the oracles."""
    n = f.n
    if n <= max_support:
        return list(range(n))
    infl = [naive_influence(f.table, n, i, p) for i in range(n)]
    ranked = sorted((i for i in range(n) if infl[i] >= tau), key=lambda i: -infl[i])
    return sorted(ranked[:max_support])


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_distance_to_and_or_on_high_influence_coordinates(p, rng):
    n, tau = 6, 0.05
    # AND-OR on {0,1},{2} with the point {3,4,5} flipped: coordinates 3..5
    # stay below tau, so the search runs on {0,1,2}
    table = ps.make_and_or(n, ps.BlockPartition(({0, 1}, {2}))).table.copy()
    table[0b111000] ^= 1
    structured = ps.BooleanFunction(n, table)
    assert _search_coordinates(structured, p, tau, 4) == [0, 1, 2]
    for f, max_support in [(structured, 4), (random_boolean(n, rng), 3),
                           (random_boolean(n, rng), 4)]:
        cand = _search_coordinates(f, p, tau, max_support)
        v = ps.distance_to_and_or(f, p, max_width=2, tau=tau,
                                  max_support=max_support)
        _check_and_or_verdict(f, p, 2, cand, v)


@pytest.mark.parametrize("p", [0.123, 0.3, 0.7, 0.9])
def test_distance_to_and_or_error_bound_against_exact_sums(p, monkeypatch, rng):
    """Near-AND-OR inputs (one or two points flipped) and random inputs,
    checked against the exact Fraction distances of every candidate under
    the float64 weights: the distance is the witness's within a relative
    (2^(n-c) + 2^c) * 2^-53, the witness is within the tie rule's reach of
    the exact minimum, and no exactly tied candidate is narrower.  Family
    members of width <= max_width, with the recognizer switched off so the
    search has to find them, score exactly 0.0."""
    u = Fraction(1, 2 ** 53)
    cases = []
    for n, max_width, max_support in [(6, 3, 6), (8, 2, 8), (8, 2, 5)]:
        member = ps.make_and_or(n, ps.BlockPartition(({0, 2}, {3}, {5})[:max_width]))
        for flips in (1, 2):
            table = member.table.copy()
            table[rng.choice(1 << n, size=flips, replace=False)] ^= 1
            cases.append((ps.BooleanFunction(n, table), max_width, max_support))
        cases.append((random_boolean(n, rng), max_width, max_support))
    for f, max_width, max_support in cases:
        n = f.n
        cand = _search_coordinates(f, p, 0.05, max_support)
        blocks = list(and_or_search_candidates(cand, max_width))
        exact = dict(zip(blocks, exact_and_or_distances(f.table, n, p, blocks)))
        v = ps.distance_to_and_or(f, p, max_width=max_width, max_support=max_support)
        case = (p, n, max_width, max_support, f.table.tobytes().hex())
        mine = exact[v.witness.blocks]
        bound = (2 ** (n - len(cand)) + 2 ** len(cand)) * u
        assert abs(Fraction(v.distance) - mine) <= bound * mine, case
        best = min(exact.values())
        assert mine - best <= (max_width + 1) * Fraction(analysis.TIE_TOL) + 2 * bound * mine, case
        assert all(len(b) >= v.witness.width for b, d in exact.items() if d == mine), case
    monkeypatch.setattr(analysis, "recognize_and_or", lambda g: None)
    for n in (5, 8):
        for blocks in [({1},), ({0, 4}, {2}), ({1}, {2, 3}, {4})]:
            part = ps.BlockPartition(blocks)
            v = ps.distance_to_and_or(ps.make_and_or(n, part), p, max_width=3)
            assert v.distance == 0.0 and v.witness.sorted_blocks() == part.sorted_blocks()


def test_distance_to_and_or_memory_at_ten_coordinates():
    """At c = 10 the search holds one uint8 chunk of 2^13 entries and its
    float64 copy (64 KiB), and fills the memoised OR rows of n = 10: 1,023
    rows of 1 KiB each.  Its peak stays below 3 MiB (1.4 MiB measured) from
    an empty row cache, and what stays alive after it, the rows, at most
    1.5 MiB (1.25 MiB measured)."""
    table = np.random.default_rng(10).integers(0, 2, 1 << 10)
    table[0], table[1] = 1, 0      # f(empty) = 1 with some f(x) = 0: not monotone
    f = ps.BooleanFunction(10, table)
    ps.families._small_or_row.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ps.distance_to_and_or(f, 0.3, max_width=2)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 3 << 20
    assert kept - before <= 3 << 19


def test_distance_to_and_or_builds_one_table_per_candidate(monkeypatch, rng):
    calls = []
    real = analysis.make_and_or

    def counting(n, part):
        calls.append(n)
        return real(n, part)

    monkeypatch.setattr(analysis, "make_and_or", counting)
    for n, max_width, max_support in [(5, 1, 10), (6, 2, 10), (6, 3, 10),
                                      (7, 2, 4)]:
        table = rng.integers(0, 2, 1 << n)
        table[0] = 1      # f(empty) = 1 with some f(x) = 0: not monotone
        table[1] = 0
        f = ps.BooleanFunction(n, table)
        c = len(_search_coordinates(f, 0.5, 0.05, max_support))
        calls.clear()
        ps.distance_to_and_or(f, 0.5, max_width=max_width,
                              max_support=max_support)
        assert len(calls) == and_or_candidate_count(c, max_width)
        assert set(calls) <= {c}


def test_warm_and_or_search_reads_no_point_codes(monkeypatch):
    """At c <= 10 every candidate table ANDs the memoised OR rows, so a
    warm c = 8 search over its 3,280 candidates builds no point codes."""
    table = np.random.default_rng(8).integers(0, 2, 1 << 8)
    table[0], table[1] = 1, 0      # f(empty) = 1 with some f(x) = 0: not monotone
    f = ps.BooleanFunction(8, table)
    ps.distance_to_and_or(f, 0.5, max_width=2)
    codes, tables = [], []
    real_codes, real_make = ps.lattice.point_codes, analysis.make_and_or

    def counting_codes(n):
        codes.append(n)
        return real_codes(n)

    def counting_make(n, part):
        tables.append(n)
        return real_make(n, part)

    monkeypatch.setattr(ps.lattice, "point_codes", counting_codes)
    monkeypatch.setattr(ps.families, "point_codes", counting_codes)
    monkeypatch.setattr(analysis, "make_and_or", counting_make)
    ps.distance_to_and_or(f, 0.5, max_width=2)
    assert len(tables) == and_or_candidate_count(8, 2) == 3280
    assert codes == []


def test_distance_to_and_or_keeps_the_coordinates_of_largest_influence():
    """AND(x0, x1) on n = 4 with the point 1111 flipped, searched on
    max_support = 2 coordinates.  Coordinates 0 and 1 carry the largest
    influence, 2 and 3 the largest negative influence; the search keeps 0
    and 1 and finds the AND at 1/16, where ranking by negative influence
    kept 2 and 3 and reported (2)(3) at 7/16."""
    table = ps.make_and(4, [0, 1]).table.copy()
    table[0b1111] ^= 1
    f = ps.BooleanFunction(4, table)
    assert _search_coordinates(f, 0.5, 0.05, 2) == [0, 1]
    v = ps.distance_to_and_or(f, 0.5, max_width=2, max_support=2)
    assert v.witness.sorted_blocks() == ((0,), (1,)) and v.distance == 0.0625
    full = ps.distance_to_and_or(f, 0.5, max_width=2, max_support=4)
    assert full.witness == v.witness and full.distance == v.distance


def test_influence_ties_go_to_the_lower_coordinate():
    """AND(x0, x1, x2) on n = 4 with the point {x3} flipped: at p = 1/2 the
    influences are 3/8, 3/8, 3/8 and 1/8, the three ties bit-equal.  A
    search on max_support = 2 keeps {0, 1} and reports (0)(1) at 3/16; one
    on {1, 2} would report (1)(2)."""
    table = ps.make_and(4, [0, 1, 2]).table.copy()
    table[0b1000] ^= 1
    f = ps.BooleanFunction(4, table)
    assert [ps.influence(f, i, 0.5) for i in range(4)] == [0.375, 0.375, 0.375, 0.125]
    assert ps.influences.high_influence_coordinates(f, 0.5, 0.05) == [0, 1, 2, 3]
    v = ps.distance_to_and_or(f, 0.5, max_width=2, max_support=2)
    assert v.witness.sorted_blocks() == ((0,), (1,)) and v.distance == 0.1875


def test_distance_to_and_or_search_width_and_support_zero():
    """max_width 0 admits only the constant 1, max_support 0 no coordinate."""
    f = ps.BooleanFunction(3, [0, 1, 1, 1, 0, 0, 1, 0])
    for kwargs in ({"max_width": 0}, {"max_support": 0}):
        v = ps.distance_to_and_or(f, 0.5, **kwargs)
        assert v.witness.blocks == () and v.distance == 0.5


@pytest.mark.parametrize("n", [3, 8, 12, 18])
def test_monotone_junta_on_its_own_cube_matches_the_full_cube_pipeline(n, rng):
    """distance_to_monotone_junta averages, monotonizes and rounds on the
    junta's 2^k cube; it gives the bits of junta_project, full-cube
    monotonize, rounding at 1/2 and l1_distance.  monotonize in turn gives
    the bits of one shift per coordinate, on Boolean and bounded tables."""
    near = ps.make_and_or(n, ps.BlockPartition(({0, 2}, {1}))).table.copy()
    near[rng.choice(1 << n, size=3, replace=False)] ^= 1
    cases = [ps.BooleanFunction(n, near), random_boolean(n, rng)]
    for f, p in itertools.product(cases, (0.3, 0.5)):
        coords = ps.influences.high_influence_coordinates(f, p, 0.05)
        projected = junta_project(f, coords, p)
        mono = ps.monotonize(projected)
        rounded = ps.BooleanFunction(n, (mono.table >= 0.5).astype(np.uint8))
        v = ps.distance_to_monotone_junta(f, p)
        assert v.witness == frozenset(coords) and v.is_upper_bound
        assert v.distance.hex() == ps.l1_distance(f, rounded, p).hex(), (n, p)
    for f in (cases[1], projected):
        stepwise = f
        for i in range(n):
            stepwise = ps.shift(stepwise, i)
        mono = ps.monotonize(f)
        assert type(mono) is type(f) and ps.is_monotone(mono)
        assert mono.table.tobytes() == stepwise.table.tobytes()


def test_distance_to_monotone_junta_fixed_point():
    g = ps.make_and_or(5, ps.BlockPartition(({0}, {2, 4})))
    v = ps.distance_to_monotone_junta(g, 0.5, tau=0.05)
    assert v.is_upper_bound
    assert v.distance == pytest.approx(0.0, abs=1e-12)
    assert v.witness == frozenset({0, 2, 4})


# ---------------------------------------------------------------------------
# audits

def test_audit_exact_and_xor_pair():
    part = ps.BlockPartition(({0, 1}, {2}))
    f = ps.make_and_xor(4, part)
    g = ps.make_and_or(4, part)
    rep = ps.theorem_audit("2.2", f, g,
                           ps.NoiseParams(p=0.5, rho=0.5, lam=0.25))
    assert rep.theorem == "half-rho"
    assert rep.premise["eta_residual"] == pytest.approx(0.0, abs=1e-12)
    assert rep.conclusion["delta_g"] == pytest.approx(0.0, abs=1e-12)
    assert rep.conclusion["delta_f_avg_l1"] == pytest.approx(0.0, abs=1e-9)
    assert rep.passed(eta_max=1e-6, eps_max=1e-6)


def test_audit_perturbed_and_grows_with_k(rng):
    n = 8
    params = ps.NoiseParams(p=0.5, rho=0.5, lam=0.25)
    etas, deltas = [], []
    for k in (0, 4, 16):
        f = _perturb(ps.make_and(n, [0, 1]), k, np.random.default_rng(13))
        rep = ps.theorem_audit("2.4", f, f, params)
        etas.append(rep.premise["eta_residual"])
        deltas.append(rep.conclusion["delta_g"])
    assert etas[0] == pytest.approx(0.0, abs=1e-12)
    assert etas == sorted(etas)
    assert deltas[0] == 0.0 and deltas[-1] > 0.0
    # perturbed mass is exactly the structure distance for small k
    assert deltas[1] == pytest.approx(4 / 2 ** n, abs=1e-12)


def test_witness_size_bound_is_the_exact_ceiling_of_log2_of_2_over_lambda():
    """The bound is the least k with lam * 2^k >= 2 at each power of two
    2^-j in (0, 1] and one ulp either side of it, subnormals included.  The
    float formula ceil(log2(2 / lam)) gives the same at every one of them
    but two kinds: one ulp below 2^-j for j >= 3 it is one low, and below
    2^-1023 the quotient overflows."""
    g = ps.make_and(1, [0])
    for j in range(1075):
        power = math.ldexp(1.0, -j)
        for side, lam in enumerate((np.nextafter(power, 0.0), power, np.nextafter(power, 2.0))):
            lam = float(lam)
            if not 0.0 < lam <= 1.0:
                continue
            rep = ps.theorem_audit("small-rho", g, g, ps.NoiseParams(p=0.5, rho=0.5, lam=lam))
            num, den = lam.as_integer_ratio()
            want = (-(-2 * den // num) - 1).bit_length()
            assert rep.conclusion["witness_size_bound"] == want, lam
            if 2.0 / lam < math.inf and not (side == 0 and j >= 3):
                assert math.ceil(math.log2(2.0 / lam)) == want, lam


def test_audit_large_lambda_near_constant():
    n, lam = 12, 0.7
    rng = np.random.default_rng(21)
    f2 = ps.make_f2(n, lam, rng)
    from polyspec.lattice import popcounts
    import math
    heavy = ps.BooleanFunction(n, (popcounts(n) >= math.ceil(n / 3)).astype(np.uint8))
    rep = ps.theorem_audit("2.3", f2, heavy,
                           ps.NoiseParams(p=0.5, rho=0.5, lam=lam))
    assert rep.premise["lambda_minus_rho"] == pytest.approx(0.2)
    assert rep.conclusion["delta_g_const"] < 0.1       # g is near constant 1
    # E[f] tracks lam up to the measured premise:
    # |E_q[f] - lam*Gamma| <= eta + lam * delta_g
    bound = rep.premise["eta_residual"] + lam * rep.conclusion["delta_g_const"]
    assert rep.conclusion["delta_f_mean"] <= bound + 1e-12
    assert rep.verdict.kind == "constant"


def test_audit_triple_and():
    t = ps.make_and(4, [0, 1])
    rep = ps.theorem_audit("2.6", t, t, ps.NoiseParams(p=0.5, rho=0.5), h=t)
    assert rep.premise["epsilon_hom"] == pytest.approx(0.0, abs=1e-12)
    assert rep.conclusion["delta_f"] == 0.0
    assert rep.conclusion["delta_g"] == 0.0
    assert rep.conclusion["delta_h"] == 0.0


def test_audit_one_sided():
    g = ps.make_and_or(5, ps.BlockPartition(({0}, {1, 2})))
    params = ps.NoiseParams(p=0.5, rho=0.5, lam=0.1)
    rep = ps.theorem_audit("2.8", g, g, params)
    assert rep.premise["eta2"] == 0.0
    assert rep.conclusion["delta_g_monotone_junta"] == pytest.approx(0.0, abs=1e-12)


def test_audit_half_rho_notes_a_rho_other_than_one_half():
    part = ps.BlockPartition(({0, 1}, {2}))
    f, g = ps.make_and_xor(4, part), ps.make_and_or(4, part)
    for rho, notes in ((0.5, ()), (0.25, ("this audit is specific to rho = 1/2",))):
        rep = ps.theorem_audit("half-rho", f, g, ps.NoiseParams(p=0.5, rho=rho, lam=0.25))
        assert rep.notes == notes


def test_audit_passed_is_vacuous_when_the_premise_fails():
    rep = ps.AuditReport("monotone", {"eta_residual": 0.5, "max_negative_influence": 0.0},
                         {"delta_g": 0.9})
    assert rep.passed(eta_max=0.1, eps_max=0.1)        # eta_residual 0.5 > 0.1
    assert not rep.passed(eta_max=0.5, eps_max=0.1)    # premise holds, delta_g 0.9 > 0.1
    assert rep.passed(eta_max=0.5, eps_max=0.9)


@pytest.mark.parametrize("eta_max,eps_max,message", [
    (float("nan"), 0.1, "eta_max must be at least 0, got nan"),
    (-1.0, 0.1, "eta_max must be at least 0, got -1.0"),
    (0.5, float("nan"), "eps_max must be at least 0, got nan"),
    (0.5, -0.5, "eps_max must be at least 0, got -0.5"),
])
def test_audit_passed_rejects_thresholds_below_zero(eta_max, eps_max, message):
    """A NaN or negative threshold fails every comparison, which made the
    gate vacuous and so passed every audit."""
    rep = ps.AuditReport("monotone", {"eta_residual": 0.5}, {"delta_g": 0.9})
    with pytest.raises(ValueError) as err:
        rep.passed(eta_max, eps_max)
    assert str(err.value) == message
    assert rep.passed(0.0, 0.0)


def test_audit_monotone_premise_is_the_largest_negative_influence(rng):
    f = random_boolean(6, rng)
    params = ps.NoiseParams(p=0.5, rho=0.5, lam=0.25)
    rep = ps.theorem_audit("monotone", f, f, params)
    want = max(naive_negative_influence(f.table, 6, i, 0.25) for i in range(6))
    assert rep.premise["max_negative_influence"] == pytest.approx(want, abs=1e-15)
    assert rep.premise["max_negative_influence"] == max(
        ps.negative_influence(f, i, 0.25) for i in range(6))
    t = ps.constant(0, 1)
    rep = ps.theorem_audit("monotone", t, t, params)
    assert rep.premise["max_negative_influence"] == 0.0


# (t, count of functions with epsilon_hom <= t, largest delta among them) at
# p = rho = 1/2, where delta is the distance to a constant or an AND
DELTA_OF_EPSILON = {
    2: [(0, 5, 0), (1 / 128, 5, 0), (1 / 32, 5, 0), (1 / 16, 5, 0), (1 / 8, 8, 1 / 4),
        (1 / 4, 10, 1 / 4)],
    3: [(0, 9, 0), (1 / 128, 9, 0), (1 / 32, 15, 1 / 8), (1 / 16, 21, 1 / 8), (1 / 8, 61, 1 / 4),
        (1 / 4, 112, 3 / 8)],
    4: [(0, 17, 0), (1 / 128, 27, 1 / 16), (1 / 32, 163, 1 / 8), (1 / 16, 489, 3 / 16),
        (1 / 8, 2693, 5 / 16), (1 / 4, 15775, 3 / 8)],
}


@pytest.mark.parametrize("n", sorted(DELTA_OF_EPSILON))
def test_delta_of_epsilon_over_every_function(n):
    """Every Boolean function of dimension n, stacked through the batched
    cores of homomorphism_agreement and distance_to_constant_or_and: how
    many are epsilon-approximate AND-homomorphisms, and how far the farthest
    of them lies from a constant or an AND.  Every weight is dyadic, so
    both are compared exactly, and the verdict's tie tolerance cannot move
    a distance off the minimum gap."""
    tables = index_bits(1 << n, np.arange(1 << (1 << n)))
    epsilon = _defect_exact(tables, tables, tables, n, 0.5, 0.5)
    mean, dists, _ = _and_distances(tables, n, 0.5)
    delta = np.minimum(np.minimum(mean, 1.0 - mean), dists.min(axis=-1))
    for t, count, largest in DELTA_OF_EPSILON[n]:
        within = delta[epsilon <= t]
        assert (len(within), within.max()) == (count, largest)
    codes = 1 << np.arange(1 << n)
    ands = {int(codes @ ps.make_and(n, S).table) for S in subsets(n)}
    assert set(np.flatnonzero(epsilon == 0).tolist()) == {0} | ands


@pytest.mark.parametrize("n", [4, 8, 12])
def test_stacked_cores_give_each_row_the_bits_of_its_unstacked_call(n):
    """The exact defect and the AND gaps over a (2, 3, 2^n) stack of
    distinct f, g and h equal, bit for bit and row by row, the unstacked
    core and the public call on that row."""
    rng = np.random.default_rng(n)
    f_t, g_t, h_t = (rng.integers(0, 2, (2, 3, 1 << n), dtype=np.uint8) for _ in range(3))
    for p, rho in itertools.product((0.3, 0.5), (0.3, 0.7)):
        defect = _defect_exact(f_t, g_t, h_t, n, p, rho)
        mean, dists, _ = _and_distances(f_t, n, p)
        for i, j in np.ndindex(2, 3):
            one = _defect_exact(f_t[i, j], g_t[i, j], h_t[i, j], n, p, rho)
            f, g, h = (ps.BooleanFunction(n, t[i, j]) for t in (f_t, g_t, h_t))
            public = ps.homomorphism_agreement(f, p, rho, g=g, h=h).details["defect"]
            assert float(defect[i, j]).hex() == float(one).hex() == public.hex()
            one_mean, one_dists, _ = _and_distances(f_t[i, j], n, p)
            assert float(mean[i, j]).hex() == float(one_mean).hex()
            assert list(map(float.hex, dists[i, j].tolist())) == \
                list(map(float.hex, one_dists.tolist()))
            v = ps.distance_to_constant_or_and(f, p)
            want = (mean[i, j] if v.kind == "zero" else 1.0 - mean[i, j] if v.kind == "constant"
                    else dists[i, j, sum(1 << k for k in v.witness)])
            assert v.distance.hex() == float(want).hex()


AUDIT_ERRORS = [
    ("triple", {}, "the triple audit needs all three functions"),
    ("triple", {"f": ps.BoundedFunction(2, [0.0, 0.5, 0.5, 1.0]), "h": ps.make_and(2, [0])},
     "the triple audit needs a Boolean function, got BoundedFunction"),
    ("one-sided", {"lam": None}, "the one-sided audit needs params.lam"),
    *[(theorem, {"lam": None}, "this audit needs params.lam")
      for theorem in ("small-rho", "half-rho", "large-lambda", "monotone")],
]


@pytest.mark.parametrize("theorem,change,message", AUDIT_ERRORS)
def test_audit_rejects_missing_inputs(theorem, change, message):
    t = ps.make_and(2, [0])
    args = {"f": t, "h": None, "lam": 0.5, **change}
    with pytest.raises(ValueError, match=message):
        ps.theorem_audit(theorem, args["f"], t, ps.NoiseParams(p=0.5, rho=0.5, lam=args["lam"]),
                         h=args["h"])


BOOLEAN_ONLY = {
    "sensitivity": ps.sensitivity,
    "minterms": ps.minterms,
    "recognize_and_or": ps.recognize_and_or,
    "distance_to_and_or": lambda g: ps.distance_to_and_or(g, 0.3),
    # reaches distance_to_and_or, which names itself
    "half-rho": lambda g: ps.theorem_audit("half-rho", ps.make_and(2, [0]), g,
                                           ps.NoiseParams(p=0.5, rho=0.5, lam=0.25)),
    # the estimators' exact paths returned a number for a bounded function
    # and their sampled paths another one or numpy's TypeError
    "homomorphism_agreement": lambda f: ps.homomorphism_agreement(f, 0.5, 0.5),
    "homomorphism_agreement.sampled": lambda f: ps.homomorphism_agreement(
        f, 0.5, 0.5, samples=100, rng=1),
    "homomorphism_agreement.g": lambda g: ps.homomorphism_agreement(
        ps.make_and(2, [0]), 0.5, 0.5, g=g),
    "homomorphism_agreement.h": lambda h: ps.homomorphism_agreement(
        ps.make_and(2, [0]), 0.5, 0.5, h=h, samples=100, rng=1),
    # reaches homomorphism_agreement
    "prs_tester": ps.prs_tester,
    "prs_tester.sampled": lambda f: ps.prs_tester(f, samples=100, rng=1),
    "noise_sensitivity": lambda g: ps.noise_sensitivity(g, 0.5, 0.1),
    "noise_sensitivity.sampled": lambda g: ps.noise_sensitivity(g, 0.5, 0.1, samples=100, rng=1),
    # compared the table with its rounding as bits: a constant 0.3 read 1.0
    "distance_to_monotone_junta": lambda g: ps.distance_to_monotone_junta(g, 0.5),
    # reaches distance_to_monotone_junta
    "one-sided": lambda g: ps.theorem_audit("one-sided", ps.make_and(2, [0]), g,
                                            ps.NoiseParams(p=0.5, rho=0.5, lam=0.25)),
}


@pytest.mark.parametrize("name", sorted(BOOLEAN_ONLY))
def test_boolean_only_functions_reject_a_bounded_function(name):
    """Each function that reads a table as bits raises a ValueError naming
    itself on a bounded function, not numpy's TypeError from np.packbits;
    the estimators do so on their exact and their sampled paths."""
    expect = {"half-rho": "distance_to_and_or", "one-sided": "distance_to_monotone_junta",
              "prs_tester": "homomorphism_agreement"}.get(name.split(".")[0], name.split(".")[0])
    with pytest.raises(ValueError, match=f"^{expect} needs a Boolean function, got BoundedFunction$"):
        BOOLEAN_ONLY[name](ps.BoundedFunction(2, [0.0, 0.5, 0.5, 1.0]))


def test_witness_str_of_each_kind():
    part = ps.BlockPartition(({2, 0}, {1}))
    verdicts = [("zero", 0, "0"), ("constant", 1, "1"), ("and", frozenset({3, 1}), "1+3"),
                ("and", frozenset(), "()"), ("monotone_junta", frozenset({0}), "0"),
                ("and_or", part, "0+2;1"), ("and_or", ps.BlockPartition(()), "()"),
                ("none", None, "")]
    for kind, witness, text in verdicts:
        assert ps.StructureVerdict(kind, witness, 0.0).witness_str() == text


def test_audit_unknown_id(monkeypatch):
    """An unknown id is rejected first: before the missing lam is noticed,
    and before the 2^n residual is computed."""
    residuals = []
    monkeypatch.setattr(analysis, "residual", lambda *args: residuals.append(args) or 0.0)
    t = ps.make_and(2, [0])
    for theorem in ("9.9", "bogus"):
        for lam in (None, 0.5):
            with pytest.raises(ValueError) as err:
                ps.theorem_audit(theorem, t, t, ps.NoiseParams(p=0.5, rho=0.5, lam=lam))
            assert str(err.value) == f"unknown theorem id {theorem!r}"
    assert residuals == []
    ps.theorem_audit("2.1", t, t, ps.NoiseParams(p=0.5, rho=0.5, lam=0.5))
    assert len(residuals) == 1


# ---------------------------------------------------------------------------
# sweep

def test_sweep_deterministic_and_schema():
    cfg = ps.ExperimentConfig(family="and", sizes="6", perturbations="0,2", trials=2, seed=5)
    rows1 = ps.sweep_rows(cfg)
    rows2 = ps.sweep_rows(cfg)
    assert rows1 == rows2
    assert len(rows1) == 4
    header = ps.analysis.SWEEP_HEADER.split(",")
    assert header == ["seed", "n", "p", "rho", "lambda", "epsilon_hom",
                      "eta_residual", "delta_const_and", "delta_andor",
                      "verdict_kind", "witness"]
    for row in rows1:
        assert len(row.split(",")) == len(header)


def test_sweep_workers_match_serial():
    cfg = ps.ExperimentConfig(family="maj", sizes="6", perturbations="0,1", trials=2, seed=9)
    serial = ps.sweep_rows(cfg, workers=1)
    parallel = ps.sweep_rows(cfg, workers=2)
    assert serial == parallel


def test_sweep_never_starts_more_workers_than_rows(monkeypatch):
    """A pool gets min(workers, rows) processes, and none at one row or
    fewer; a recorder that maps serially stands in for the pool, so no
    process starts here."""
    import concurrent.futures

    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    for rows, workers, pool in ((0, 64, []), (1, 64, []), (3, 64, [3]), (3, 2, [2])):
        cfg = ps.ExperimentConfig(sizes="4", perturbations="1", trials=rows)
        started.clear()
        assert len(ps.sweep_rows(cfg, workers=workers)) == rows
        assert started == pool, (rows, workers)
        assert ps.sweep_rows(cfg, workers=workers) == ps.sweep_rows(cfg)


def test_sweep_semirandom_sits_at_the_barrier():
    # near-middle-slice coin flips: agreement bounded away from 1 (toward
    # the 3/4 floor) while no constant or AND comes close
    rows = ps.sweep_rows(ps.ExperimentConfig(family="semirandom", sizes="10,12",
                                             perturbations="0", trials=2, seed=77))
    for r in rows:
        parts = r.split(",")
        eps, delta = float(parts[5]), float(parts[7])
        assert 0.15 < eps < 0.4
        assert delta > 0.3


def test_sweep_unknown_family():
    with pytest.raises(ValueError):
        ps.ExperimentConfig(family="tribes", sizes="4", perturbations="0", trials=1, seed=1)
