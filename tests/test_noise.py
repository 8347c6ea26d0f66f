import inspect
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import polyspec as ps
from polyspec.fourier import synthesize_table, transform_table
from polyspec.lattice import index_bits, popcounts
from polyspec.noise import (downward_noise_table, inverse_noise_kernel, invert_downward,
                            noise_kernel)
from conftest import random_boolean, random_bounded
from oracles import (level_square_sums, naive_downward, naive_invert_half_rho, spectral_eigenvalue,
                     stagewise_kernel, subsets)


def test_and_eigenvalue_law():
    for rho in (0.3, 0.5, 0.7):
        for coords in subsets(4):
            f = ps.make_and(4, coords)
            tf = ps.downward_noise(f, rho)
            assert np.abs(tf.table - rho ** len(coords) * f.table).max() < 1e-12


def test_xor_to_or():
    tf = ps.downward_noise(ps.make_xor(2, [0, 1]), 0.5)
    assert np.allclose(tf.table, 0.5 * ps.make_or(2, [0, 1]).table, atol=1e-15)


def test_constant_fixed_point():
    c = ps.constant(3, 0.42)
    for rho in (0.2, 0.8):
        assert np.allclose(ps.downward_noise(c, rho).table, 0.42, atol=1e-15)


def test_downward_matches_naive(rng):
    for n in (1, 3, 5):
        f = random_bounded(n, rng)
        for rho in (0.25, 0.5, 0.6):
            fast = ps.downward_noise(f, rho)
            assert np.allclose(fast.table, naive_downward(f.table, n, rho), atol=1e-12)


def test_contraction_in_l1(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        f, g = random_bounded(n, rng), random_bounded(n, rng)
        p, rho = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))
        lhs = ps.l1_distance(ps.downward_noise(f, rho), ps.downward_noise(g, rho), p)
        # contraction from L1(mu_{rho p}) into L1(mu_p)
        assert lhs <= ps.l1_distance(f, g, rho * p) + 1e-12


def test_iterated_noise():
    f = ps.make_and(3, [0, 2])
    assert ps.iterated_noise(f, 0.6, 2) == ps.downward_noise(f, 0.6)
    t3 = ps.iterated_noise(f, 0.5, 3)
    assert np.abs(t3.table - 0.25 ** 2 * f.table).max() < 1e-12
    c = ps.constant(2, 0.3)
    assert np.allclose(ps.iterated_noise(c, 0.5, 4).table, 0.3, atol=1e-15)
    with pytest.raises(ValueError):
        ps.iterated_noise(f, 0.5, 1)


def test_iterated_noise_checks_rho_then_the_retention_of_m():
    f = ps.make_and(3, [0, 2])
    cases = [((bad, 3), f"rho must lie in (0,1), got {bad}")
             for bad in (0.0, 1.5, float("nan"))]
    # 0.5^1074 is the smallest subnormal; one more factor rounds to 0
    cases.append(((0.5, 1076), "arity m = 1076 underflows the retention 0.5^(m-1) to 0"))
    # an m past any float, at the largest rho below 1
    cases.append(((1 - 2 ** -53, 10 ** 400), f"arity m = {10 ** 400} underflows the "
                  "retention 0.9999999999999999^(m-1) to 0"))
    for (rho, m), message in cases:
        with pytest.raises(ValueError) as err:
            ps.iterated_noise(f, rho, m)
        assert str(err.value) == message
    dictator = ps.make_and(3, [0])     # T scales it by the retention
    assert ps.iterated_noise(dictator, 0.5, 1075).table.max() == 5e-324


def test_iterated_matches_composition(rng):
    f = random_bounded(5, rng)
    rho = 0.7
    twice = ps.downward_noise(ps.downward_noise(f, rho), rho)
    assert np.abs(ps.iterated_noise(f, rho, 3).table - twice.table).max() < 1e-12


def test_inversion_round_trip(rng):
    from polyspec.noise import downward_noise_table
    for n in (2, 6, 10):
        for rho in (0.25, 0.5, 0.75):
            f = random_bounded(n, rng)
            back = ps.invert_downward(ps.downward_noise(f, rho), rho)
            assert np.abs(back - f.table).max() < 1e-9
            # composing T after the inverse also returns the original
            raw = rng.random(1 << n)
            u = ps.invert_downward(raw, rho)
            assert np.abs(downward_noise_table(u, n, rho) - raw).max() < 1e-9


@pytest.mark.parametrize("rho", [0.123, 0.5, 0.9])
def test_noise_error_bounds_against_longdouble(rho):
    """The bounds of the two docstrings: each entry of downward_noise_table
    within (19/4) n 2^-53 (T|f|)(x), and of invert_downward within
    (19/4) n 2^-53 (|K|(x)...(x)|K| |h|)(x), of the same float64 kernel
    run stage by stage in longdouble (whose own 3 roundings a stage are
    added), on a random table in [-1, 1] at n = 12."""
    n = 12
    table = np.random.default_rng(n).uniform(-1.0, 1.0, 1 << n)
    u, u_ref = 2.0 ** -53, np.finfo(np.longdouble).eps / 2
    for run, kernel in ((downward_noise_table, noise_kernel(rho)),
                        (lambda t, n, rho: invert_downward(t, rho), inverse_noise_kernel(rho))):
        exact = stagewise_kernel(table.astype(np.longdouble), n, kernel)
        envelope = stagewise_kernel(np.abs(table), n, np.abs(kernel))
        bound = n * (4.75 * u + 3 * u_ref) * envelope
        assert np.all(np.abs(run(table, n, rho) - exact) <= bound), kernel


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_entries_spread_at_least_as_far_as_stage_by_stage(bad):
    """With one inf or NaN in the table, downward_noise_table and
    invert_downward are non-finite at least wherever the stagewise
    reference is (the points above it), at each of four positions; and at
    rho = 1e-70, where the inverse overflows on a random n = 8 table, its
    non-finite entries are the reference's, inf or NaN alike."""
    n = 8
    rng = np.random.default_rng(n)
    for x in (0, 5, 100, 255):
        table = rng.random(1 << n)
        table[x] = bad
        with np.errstate(invalid="ignore"):
            for run, kernel in ((downward_noise_table, noise_kernel(0.3)),
                                (lambda t, n, rho: invert_downward(t, rho),
                                 inverse_noise_kernel(0.3))):
                got = run(table, n, 0.3)
                ref = stagewise_kernel(table.copy(), n, kernel)
                assert np.all(~np.isfinite(got)[~np.isfinite(ref)]), (x, kernel)
    table = rng.random(1 << n)
    with np.errstate(over="ignore", invalid="ignore"):
        got = invert_downward(table, 1e-70)
        ref = stagewise_kernel(table.copy(), n, inverse_noise_kernel(1e-70))
    assert np.count_nonzero(~np.isfinite(ref)) > 0
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))


def test_closed_form_inverse_at_half(rng):
    for n in (1, 3, 6):
        f = random_boolean(n, rng)
        fast = ps.invert_downward(f, 0.5)
        slow = naive_invert_half_rho(f.table, n)
        assert np.array_equal(fast, slow)       # both integer-exact


def test_or_inverse_negative_entry():
    rho = 0.25
    u = ps.invert_downward(ps.make_or(2, [0, 1]), rho)
    assert u[0] == 0.0
    assert u[1] == pytest.approx(1.0 / rho, abs=1e-12)
    assert u[3] == pytest.approx((2 * rho - 1) / rho ** 2, abs=1e-12)
    assert u[3] < 0


def test_and_xor_inverse_of_and_or():
    part = ps.BlockPartition(({0, 1}, {2, 3}))
    g = ps.make_and_or(4, part)
    u = ps.invert_downward(g, 0.5)
    assert np.array_equal(u, 4.0 * ps.make_and_xor(4, part).table)


def test_spectral_action(rng):
    for p in (0.3, 0.5, 0.7):
        for rho in (0.3, 0.5, 0.7):
            f = random_bounded(6, rng)
            assert ps.spectral_action_check(f, p, rho) < 1e-9
    assert spectral_eigenvalue(0.5, 0.5) == pytest.approx(np.sqrt(1 / 3), abs=1e-15)
    assert ps.spectral_action_check(ps.constant(4, 0.5), 0.4, 0.6) < 1e-12


@pytest.mark.parametrize("n", [3, 9, 16])
def test_spectral_action_check_keeps_the_bits_of_one_factor_table(n):
    """The shrink factors multiply the coefficients block by block (four
    blocks at n = 16), with the bits of one product by the whole 2^n
    factor table."""
    f = random_bounded(n, np.random.default_rng(n))
    for p, rho in ((0.3, 0.5), (0.7, 0.35)):
        shrink = ((1.0 - p) * rho / (1.0 - rho * p)) ** 0.5
        coeffs = transform_table(f.table, n, rho * p) * (shrink ** np.arange(n + 1.0))[popcounts(n)]
        gap = np.abs(downward_noise_table(f.table, n, rho) - synthesize_table(coeffs, n, p)).max()
        assert ps.spectral_action_check(f, p, rho).hex() == float(gap).hex()


def test_residual_values():
    for coords in ([0], [0, 1]):
        f = ps.make_and(3, coords)
        params = ps.NoiseParams(p=0.5, rho=0.5, lam=0.5 ** len(coords))
        assert ps.residual(f, f, params) < 1e-12
    zero, one = ps.constant(2, 0), ps.constant(2, 1)
    params = ps.NoiseParams(p=0.3, rho=0.6, lam=0.77)
    assert ps.residual(zero, one, params) == pytest.approx(0.77, abs=1e-12)


def test_vanishing_tail_inequality(rng):
    # measured residual eta always dominates the tail: W_{>=k}[g] bounded by
    # 2 lam^-2 (eta + rho^k)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        f, g = random_bounded(n, rng), random_boolean(n, rng)
        p = float(rng.choice([0.3, 0.5, 0.7]))
        rho = float(rng.choice([0.25, 0.5, 0.75]))
        lam = float(rng.uniform(0.1, 1.0))
        eta = ps.residual(f, g, ps.NoiseParams(p=p, rho=rho, lam=lam))
        spec = ps.fourier_transform(g, p)
        for k in range(n + 1):
            bound = 2.0 / lam ** 2 * (eta + rho ** k)
            assert spec.tail_weight(k) <= bound + 1e-9


def test_noise_params_validation():
    with pytest.raises(ValueError):
        ps.NoiseParams(p=0.0, rho=0.5)
    with pytest.raises(ValueError):
        ps.NoiseParams(p=0.5, rho=1.0)
    with pytest.raises(ValueError):
        ps.NoiseParams(p=0.5, rho=0.5, lam=0.0)


def test_sample_dnu_marginals_and_dominance():
    n, size = 6, 500_000
    for nu in (0.05, 0.1):
        rng = np.random.default_rng(int(nu * 1000))
        y, m, x, z = ps.sample_dnu(nu, n, rng, size)
        yb, mb, xb, zb = (index_bits(n, a) for a in (y, m, x, z))
        assert np.all(yb <= mb)
        assert np.all(mb <= (xb & zb))
        targets = {"y": (yb, 0.25), "m": (mb, 0.5 - nu / 4),
                   "x": (xb, 0.5), "z": (zb, 0.5)}
        for name, (bits, mean) in targets.items():
            sigma = np.sqrt(mean * (1 - mean) / size)
            assert np.abs(bits.mean(axis=0) - mean).max() < 4 * sigma, name
        disagree = (xb != zb).mean(axis=0)
        sigma_d = np.sqrt((nu / 2) * (1 - nu / 2) / size)
        assert np.abs(disagree - nu / 2).max() < 4 * sigma_d
    with pytest.raises(ValueError):
        ps.sample_dnu(0.0, 3, np.random.default_rng(0), 10)


def test_noise_sensitivity_exact_values():
    assert ps.noise_sensitivity(ps.constant(3, 1), 0.5, 0.3).estimate == 0.0
    for p in (0.3, 0.5):
        for nu in (0.1, 0.4):
            got = ps.noise_sensitivity(ps.make_and(3, [0]), p, nu).estimate
            assert got == pytest.approx(2 * nu * p * (1 - p), abs=1e-12)


def test_exact_noise_sensitivity_memory_at_n20():
    """The coefficients are squared and weighted in place block by block,
    so the peak is the one 8 MiB float64 coefficient table plus
    apply_kernel's 1 MiB scratch block (9.00 MiB measured); squares and a
    flip-factor table beside it peaked at 16.06 MiB.  The value is within
    the bound of test_exact_noise_sensitivity_is_the_pointwise_sum."""
    n, p, nu = 20, 0.5, 0.1
    g = ps.BooleanFunction(n, np.random.default_rng(n).random(1 << n) < 0.3)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got = ps.noise_sensitivity(g, p, nu).estimate
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 19 << 19
    _check_noise_sensitivity_sum(got, transform_table(g.table, n, p), n, nu)


def test_noise_sensitivity_exact_vs_montecarlo(rng):
    g = random_boolean(5, rng)
    exact = ps.noise_sensitivity(g, 0.5, 0.15)
    assert exact.exact and exact.std_error == 0.0
    mc = ps.noise_sensitivity(g, 0.5, 0.15,
                              samples=300_000, rng=99)
    assert abs(mc.estimate - exact.estimate) < 4 * mc.std_error


def test_noise_sensitivity_monotone_in_nu(rng):
    g = random_boolean(6, rng)
    vals = [ps.noise_sensitivity(g, 0.4, nu).estimate
            for nu in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_tail_bounded_by_noise_sensitivity(rng):
    for n in (3, 6, 9):
        g = random_boolean(n, rng)
        spec = ps.fourier_transform(g, 0.5)
        for k in range(1, n + 1):
            nu = 1.0 / k if k > 1 else 1.0 - 1e-12
            ns = ps.noise_sensitivity(g, 0.5, nu).estimate
            assert spec.tail_weight(k) <= ns + 1e-9


P_GRID = (0.1, 0.25, 0.3, 0.45, 0.5, 0.6, 0.7, 0.9)
NU_GRID = (0.01, 0.1, 0.2, 0.35, 0.5, 0.9)


def test_level_power_tables_match_pointwise_pow():
    """x ** |S| through an (n + 1)-entry table indexed by popcount is the
    same pow call per point, so it equals the 2^n-point pow bit for bit."""
    bases = ([*P_GRID] + [1.0 - nu for nu in NU_GRID]
             + [spectral_eigenvalue(p, rho) for p in P_GRID for rho in (0.3, 0.5, 0.8)])
    for n in range(13):
        pc = popcounts(n)
        for x in bases:
            pointwise = x ** pc.astype(np.float64)
            assert (x ** np.arange(n + 1.0))[pc].tobytes() == pointwise.tobytes()


def _check_noise_sensitivity_sum(got, coeffs, n, nu):
    """got / 2 against the sum over S of (1 - (1 - nu)^|S|) coeffs[S]^2 of the
    float64 coefficients and flip factors: exact Fractions up to n = 12,
    longdouble above.  The terms are nonnegative, so the blocked dots are
    within a relative (B + 2^n / B) 2^-53, B = min(2^n, 2^14) points a
    block, the bound noise_sensitivity states; the longdouble reference,
    squares, products and a pairwise sum of 2^n terms, adds (2^n + 1) 2^-64."""
    flip = 1.0 - (1.0 - nu) ** np.arange(n + 1.0)
    block = min(1 << n, 1 << 14)
    bound = (block + (1 << n) // block) * 2.0 ** -53
    if n <= 12:
        want = sum(Fraction(float(f)) * s for f, s in zip(flip, level_square_sums(coeffs, n)))
        assert abs(Fraction(got) / 2 - want) <= Fraction(bound) * want
    else:
        c = coeffs.astype(np.longdouble)
        want = np.sum(c * c * flip[popcounts(n)])
        assert abs(np.longdouble(got) / 2 - want) <= (bound + ((1 << n) + 1) * 2.0 ** -64) * want


def test_exact_noise_sensitivity_is_the_pointwise_sum(rng):
    """Exact noise sensitivity is twice the sum over S of
    (1 - (1 - nu)^|S|) coeff(S)^2 within its stated bound, against Fraction
    sums at n = 1, 6 and 12 and longdouble sums at n = 16 and 20."""
    for n in (1, 6, 12, 16, 20):
        g = random_boolean(n, rng)
        for p in P_GRID if n <= 12 else P_GRID[::3]:
            coeffs = transform_table(g.table, n, p)
            for nu in NU_GRID if n <= 12 else NU_GRID[::2]:
                _check_noise_sensitivity_sum(ps.noise_sensitivity(g, p, nu).estimate,
                                             coeffs, n, nu)


def test_tester_report_invariant():
    with pytest.raises(ValueError):
        ps.TesterReport(estimate=0.5, std_error=0.1, samples=0, exact=True)


def test_invert_downward_names_a_bad_length():
    with pytest.raises(ValueError, match="length 6"):
        ps.invert_downward(np.ones((2, 6)), 0.5)


# Recorded from the separate per-estimator sampling loops that the shared
# batch helper replaced; 300001 samples cross the 2^17 batch boundary twice.
PINNED_MONTE_CARLO = {
    1000: {"ns": (0.209, 0.012857643641040918),
           "hom": (0.601, 0.015485444778888335),
           "prs": (0.617, 0.015372410351015223, 0.51)},
    200000: {"ns": (0.23629, 0.0009498869298500743),
             "hom": (0.605555, 0.0010928360855475994),
             "prs": (0.614605, 0.0010882685651414361, 0.50921)},
    300001: {"ns": (0.2368858770470765, 0.0007762524411874902),
             "hom": (0.6058813137289543, 0.0008921665603870525),
             "prs": (0.6120979596734678, 0.0008896314892374612,
                     0.5101216329278903)},
}


@pytest.mark.parametrize("samples", sorted(PINNED_MONTE_CARLO))
def test_monte_carlo_estimates_pinned(samples):
    f = ps.BooleanFunction.from_bits_hex(7, "e8d2a5179c3f60b14e97d3a0c52b7f18")
    want = PINNED_MONTE_CARLO[samples]
    ns = ps.noise_sensitivity(f, 0.3, 0.2, samples=samples, rng=11)
    assert (ns.estimate, ns.std_error, ns.samples) == (*want["ns"], samples)
    hom = ps.homomorphism_agreement(f, 0.6, 0.4,
                                    samples=samples, rng=11)
    assert (hom.estimate, hom.std_error) == want["hom"]
    prs = ps.prs_tester(f, 0.45, samples=samples, rng=11)
    assert (prs.estimate, prs.std_error, prs.details["expectation"]) == want["prs"]


_MAJ = ps.make_majority3(5)
ESTIMATORS = {
    "noise_sensitivity": lambda **kw: ps.noise_sensitivity(_MAJ, 0.5, 0.2, **kw),
    "homomorphism_agreement": lambda **kw: ps.homomorphism_agreement(_MAJ, 0.5, 0.5, **kw),
    "prs_tester": lambda **kw: ps.prs_tester(_MAJ, 0.5, **kw),
}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_samples_alone_selects_monte_carlo(name):
    call = ESTIMATORS[name]
    exact = call()
    assert exact.exact and exact.samples == 0 and exact.std_error == 0.0
    sampled = call(samples=1000, rng=1)
    assert not sampled.exact and sampled.samples == 1000 and sampled.std_error > 0.0
    with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
        call(samples=0, rng=1)
    params = inspect.signature(getattr(ps, name)).parameters
    assert "mode" not in params and "seed" not in params
    assert params["samples"].default is None and params["rng"].default is None


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_int_rng_draws_the_bits_of_its_generator(name):
    call = ESTIMATORS[name]
    by_seed = call(samples=300_001, rng=5)
    by_generator = call(samples=300_001, rng=np.random.default_rng(5))
    assert by_seed == by_generator
    assert by_seed.estimate.hex() == by_generator.estimate.hex()


def test_residual_needs_lambda():
    t = ps.make_and(2, [0])
    with pytest.raises(ValueError, match="params.lam is required for a residual"):
        ps.residual(t, t, ps.NoiseParams(p=0.5, rho=0.5))
