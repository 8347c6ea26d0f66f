"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned
here and nowhere else; random checks use fixed seeds so every run sees the
same data.
"""

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import polyspec as ps
from polyspec.analysis import _monotone_codes, _perturb
from polyspec.fourier import transform_table
from polyspec.lattice import index_bits, measure_weights, popcounts
from polyspec.noise import downward_noise_table
from oracles import all_and_or_tables, naive_invert_half_rho
from test_families import random_partition

P_GRID = (0.3, 0.5, 0.7)
RHO_GRID = (0.3, 0.5, 0.7)


def _report(criterion: str, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail})")


def test_criterion_01_eigenvalue_law():
    n = 12
    idx = np.arange(1 << n, dtype=np.int64)
    and_tables = ((idx[None, :] & idx[:, None]) == idx[:, None]).astype(np.float64)
    pc = popcounts(n).astype(np.float64)
    chunk = 32
    workers = max(1, int(os.environ.get("POLYSPEC_THREADS",
                                        min(2, os.cpu_count() or 1))))

    def check_block(args):
        rho, lo = args
        block = and_tables[lo:lo + chunk]
        out = downward_noise_table(block, n, rho)
        lam = (rho ** pc)[lo:lo + chunk, None]
        return float(np.abs(out - lam * block).max())

    per_rho_times = {}
    worst = 0.0
    for rho in RHO_GRID:
        t0 = time.perf_counter()
        tasks = [(rho, lo) for lo in range(0, 1 << n, chunk)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            worst = max(worst, max(pool.map(check_block, tasks)))
        per_rho_times[rho] = time.perf_counter() - t0
    # the operator does not involve p; the identity therefore holds at every
    # grid p once verified per retention value
    assert worst < 1e-12
    for rho, dt in per_rho_times.items():
        assert dt < 1.0, f"retention {rho} check took {dt:.2f}s"
    _report("01 eigenvalue-law",
            f"all 4096 subsets at n=12, worst dev {worst:.1e}, "
            f"per-retention times {[f'{t:.2f}s' for t in per_rho_times.values()]}, "
            f"p grid {P_GRID} shares the computation")


def test_criterion_02_exhaustive_eigen_classification():
    t0 = time.perf_counter()
    hits = ps.classify_boolean_eigens(4, 0.5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert len(hits) == 17
    got = {f.table.tobytes(): lam for f, lam in hits}
    from oracles import subsets
    for coords in subsets(4):
        f = ps.make_and(4, coords)
        assert got[f.table.tobytes()] == pytest.approx(0.5 ** len(coords), abs=1e-12)
    assert got[ps.constant(4, 0).table.tobytes()] is None
    _report("02 eigen-classification",
            f"{len(_monotone_codes(4))} monotone candidates -> zero + 16 ANDs "
            f"in {elapsed:.2f}s")


def test_criterion_03_exact_pair_classification():
    t0 = time.perf_counter()
    n = 4
    tables = index_bits(1 << n, np.arange(1 << (1 << n), dtype=np.int64))
    raw = tables.astype(np.float64)

    # retention 1/2: feasible set is the zero function plus every AND-OR,
    # and each preimage is exactly 2^width times the matching AND-XOR
    pre_half = ps.invert_downward(raw, 0.5)
    feasible_half = {int(c) for c in np.flatnonzero(pre_half.min(axis=1) >= 0)}
    family = all_and_or_tables(n)
    expected_half = {int(np.packbits(t, bitorder="little")
                         .view(np.uint16)[0]) for t, _ in family.values()}
    expected_half.add(0)
    assert feasible_half == expected_half
    for code in feasible_half:
        if code == 0:
            continue
        g = ps.BooleanFunction(n, tables[code])
        part = ps.recognize_and_or(g)
        assert part is not None
        phi = ps.make_and_xor(n, part)
        assert np.array_equal(pre_half[code], 2.0 ** part.width * phi.table)

    # retention 1/4: only the zero function, the constants and the ANDs
    pre_quarter = ps.invert_downward(raw, 0.25)
    feasible_quarter = {int(c) for c in np.flatnonzero(pre_quarter.min(axis=1) >= 0)}
    expected_quarter = {0}
    from oracles import subsets
    for coords in subsets(n):
        code = int(np.packbits(ps.make_and(n, coords).table,
                               bitorder="little").view(np.uint16)[0])
        expected_quarter.add(code)
    assert feasible_quarter == expected_quarter
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("03 exact-pair-classification",
            f"65536 right-hand sides: 53 feasible at rho=1/2, "
            f"17 at rho=1/4, {elapsed:.2f}s")


def test_criterion_04_and_xor_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        part = random_partition(n, min(4, n), rng)
        phi = ps.make_and_xor(n, part)
        g = ps.make_and_or(n, part)
        t = ps.downward_noise(phi, 0.5)
        worst = max(worst, float(np.abs(t.table - 2.0 ** -part.width * g.table).max()))
    assert worst < 1e-12
    _report("04 and-xor-identity", f"200 random partitions, worst dev {worst:.1e}")


def test_criterion_05_spectral_action():
    rng = np.random.default_rng(505)
    worst = 0.0
    for p in P_GRID:
        for rho in RHO_GRID:
            for _ in range(100):
                n = int(rng.integers(1, 9))
                f = ps.BoundedFunction(n, rng.random(1 << n))
                worst = max(worst, ps.spectral_action_check(f, p, rho))
    assert worst < 1e-9
    _report("05 spectral-action",
            f"100 functions x 9 grid points, worst dev {worst:.1e}")


def test_criterion_06_inversion_round_trip():
    # the inverse kernel has norm (2/rho - 1)^n, about 1.4e10 at the
    # rho = 1/4, n = 12 corner, so the 1e-9 round trip runs the same kernel
    # stages at extended precision there; plain float64 is also asserted
    # wherever its conditioning allows the stated tolerance
    rng = np.random.default_rng(606)
    worst = 0.0
    for rho in (0.25, 0.5, 0.75):
        for n in (2, 6, 12):
            f = rng.random(1 << n)
            back = ps.invert_downward(
                downward_noise_table(f.astype(np.longdouble), n, rho), rho)
            worst = max(worst, float(np.abs(back.astype(np.float64) - f).max()))
            if (2.0 / rho - 1.0) ** n < 1e7:
                back64 = ps.invert_downward(downward_noise_table(f, n, rho), rho)
                assert np.abs(back64 - f).max() < 1e-9
    assert worst < 1e-9
    for n in (1, 3, 6):
        f = ps.BooleanFunction(n, rng.integers(0, 2, 1 << n))
        assert np.array_equal(ps.invert_downward(f, 0.5),
                              naive_invert_half_rho(f.table, n))
    _report("06 inversion-round-trip",
            f"n up to 12, rho in {{1/4, 1/2, 3/4}}, worst dev {worst:.1e}; "
            f"closed form exact at n<=6")


def test_criterion_07_tail_bound():
    rng = np.random.default_rng(707)
    for trial in range(500):
        n = int(rng.integers(2, 13))
        f = ps.BoundedFunction(n, rng.random(1 << n))
        g = ps.BooleanFunction(n, rng.integers(0, 2, 1 << n))
        p = float(rng.choice(P_GRID))
        rho = float(rng.choice((0.25, 0.5, 0.75)))
        lam = float(rng.uniform(0.05, 1.0))
        eta = ps.residual(f, g, ps.NoiseParams(p=p, rho=rho, lam=lam))
        spec = ps.fourier_transform(g, p)
        for k in range(n + 1):
            assert spec.tail_weight(k) <= 2.0 / lam ** 2 * (eta + rho ** k) + 1e-9
    _report("07 tail-bound", "500 random triples, all levels")


def test_criterion_08_noise_sensitivity():
    rng = np.random.default_rng(808)
    worst_z = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 9))
        g = ps.BooleanFunction(n, rng.integers(0, 2, 1 << n))
        nu = float(rng.uniform(0.05, 0.5))
        exact = ps.noise_sensitivity(g, 0.5, nu).estimate
        mc = ps.noise_sensitivity(g, 0.5, nu, mode="montecarlo",
                                  samples=1_000_000, seed=trial)
        z = abs(mc.estimate - exact) / mc.std_error
        worst_z = max(worst_z, z)
        assert z < 4.0
    for n in range(2, 11):
        g = ps.BooleanFunction(n, rng.integers(0, 2, 1 << n))
        spec = ps.fourier_transform(g, 0.5)
        for k in range(1, n + 1):
            nu = 1.0 / k if k > 1 else 1.0 - 1e-12
            assert spec.tail_weight(k) <= ps.noise_sensitivity(g, 0.5, nu).estimate + 1e-9
    _report("08 noise-sensitivity",
            f"50 MC checks at 1e6 samples, worst z={worst_z:.2f}; "
            "tail dominated for k <= n <= 10")


def test_criterion_09_dnu_sampler():
    n, size = 8, 1_000_000
    for nu in (0.05, 0.1):
        rng = np.random.default_rng(900 + int(nu * 100))
        y, m, x, z = ps.sample_dnu(nu, n, rng, size)
        yb, mb, xb, zb = (index_bits(n, a) for a in (y, m, x, z))
        assert np.all(yb <= mb) and np.all(mb <= (xb & zb))
        for bits, mean in ((yb, 0.25), (mb, 0.5 - nu / 4), (xb, 0.5), (zb, 0.5)):
            sigma = math.sqrt(mean * (1 - mean) / size)
            assert np.abs(bits.mean(axis=0) - mean).max() < 4 * sigma
        sigma_d = math.sqrt((nu / 2) * (1 - nu / 2) / size)
        assert np.abs((xb != zb).mean(axis=0) - nu / 2).max() < 4 * sigma_d
    _report("09 dnu-sampler",
            "1e6 samples per nu in {0.05, 0.1}: marginals in 4 sigma, "
            "dominance everywhere")


def test_criterion_10_monotonization():
    from polyspec.influences import is_monotone
    rng = np.random.default_rng(1010)
    for trial in range(500):
        n = int(rng.integers(1, 9))
        p = float(rng.choice(P_GRID))
        if trial % 2:
            f = ps.BoundedFunction(n, rng.random(1 << n))
        else:
            f = ps.BooleanFunction(n, rng.integers(0, 2, 1 << n))
        m = ps.monotonize(f)
        assert is_monotone(m)
        tau = 0.0
        for i in range(n):
            ni = ps.negative_influence(f, i, p)
            tau = max(tau, ni)
            assert ps.l1_distance(ps.shift(f, i), f, p) <= ni + 1e-12
        bound = ((1 - p) * p) ** (-n) * n * tau
        assert ps.l1_distance(f, m, p) <= bound + 1e-12
    _report("10 monotonization",
            "500 random functions at n <= 8: output monotone, per-shift and "
            "aggregate displacement bounds hold")


def _sens_and_deg_batch(block: np.ndarray, n: int):
    coeffs = transform_table(block, n, 0.5)
    pc = popcounts(n).astype(np.int64)
    degs = np.where(np.abs(coeffs) > 1e-9, pc[None, :], -1).max(axis=1)
    idx = np.arange(1 << n)
    flips = np.zeros(block.shape, dtype=np.int64)
    for i in range(n):
        flips += block != block[:, idx ^ (1 << i)]
    return flips.max(axis=1), degs


def test_criterion_11_huang_inequality():
    # all functions at n = 4
    tables = index_bits(16, np.arange(1 << 16, dtype=np.int64))
    sens, degs = _sens_and_deg_batch(tables, 4)
    assert np.all(sens * sens >= np.maximum(degs, 0))

    # 10^4 random functions at n = 12
    rng = np.random.default_rng(1111)
    checked = 0
    for _ in range(20):
        block = rng.integers(0, 2, size=(500, 1 << 12), dtype=np.uint8)
        sens, degs = _sens_and_deg_batch(block, 12)
        assert np.all(sens * sens >= np.maximum(degs, 0))
        checked += block.shape[0]
    assert checked == 10_000
    _report("11 huang-inequality",
            "all 65536 functions at n=4 and 10^4 random at n=12")


def test_criterion_12_tester_values():
    for coords in ([], [0], [1, 3], [0, 1, 2]):
        f = ps.make_and(4, coords)
        assert ps.homomorphism_agreement(f, 0.5, 0.5).estimate == \
            pytest.approx(1.0, abs=1e-13)
    maj = ps.homomorphism_agreement(ps.make_majority3(), 0.5, 0.5).estimate
    xor2 = ps.homomorphism_agreement(ps.make_xor(2, [0, 1]), 0.5, 0.5).estimate
    assert maj == pytest.approx(58 / 64, abs=1e-13)
    assert xor2 == pytest.approx(10 / 16, abs=1e-13)
    _report("12 tester-values",
            f"ANDs -> 1, MAJ3 -> {maj:.6f} (58/64), XOR2 -> {xor2:.4f} (10/16)")


def test_criterion_13_counterexamples():
    sizes = (12, 16, 20)
    lam_f2 = 0.7

    f1_res, f1_dist = [], []
    for n in sizes:
        f1 = ps.make_f1(n)
        f1_res.append(ps.residual(f1, f1, ps.NoiseParams(p=0.5, rho=0.5, lam=0.5)))
        f1_dist.append(ps.distance_to_constant_or_and(f1, 0.5).distance)
    assert f1_res[0] > f1_res[1] > f1_res[2]
    assert f1_res[-1] < 0.1
    assert all(d > 0.15 for d in f1_dist)
    assert ps.expectation(ps.make_f1(20), 0.5) == pytest.approx(0.75, abs=0.05)

    f2_res = []
    for n in sizes:
        f2 = ps.make_f2(n, lam_f2, np.random.default_rng(42))
        f2_res.append(ps.residual(f2, f2,
                                  ps.NoiseParams(p=0.5, rho=0.5, lam=lam_f2)))
        assert ps.expectation(f2, 0.5) > lam_f2
    assert f2_res[0] > f2_res[1] > f2_res[2]
    assert f2_res[-1] < 0.1
    _report("13 counterexamples",
            f"f1 residuals {[f'{r:.3f}' for r in f1_res]} (struct dist "
            f"{f1_dist[-1]:.3f} > 0.15); f2(lam=0.7) residuals "
            f"{[f'{r:.3f}' for r in f2_res]}")


def test_criterion_14_sweep_qualitative():
    t0 = time.perf_counter()
    and_rows = ps.sweep_rows("and", [8, 10, 12], [0, 1, 2, 4, 8, 16], 3,
                             0.5, 0.5, seed=1414)
    maj_rows = ps.sweep_rows("maj", [8, 12], [0], 3, 0.5, 0.5, seed=1414)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0

    def parse(rows):
        out = []
        for r in rows:
            parts = r.split(",")
            out.append((float(parts[5]), float(parts[7])))   # eps_hom, delta
        return out

    and_pts = parse(and_rows)
    # unperturbed rows are exact fixed points
    assert all(d == 0.0 for e, d in and_pts if e == 0.0)
    assert any(e == 0.0 for e, d in and_pts)
    # the structure distance vanishes with the homomorphism defect
    assert all(d <= 0.011 for e, d in and_pts if e <= 0.004)
    assert all(d <= 0.05 for e, d in and_pts if e <= 0.015)
    eps = np.array([e for e, _ in and_pts])
    dlt = np.array([d for _, d in and_pts])
    corr = float(np.corrcoef(eps, dlt)[0, 1])
    assert corr > 0.7

    # majority stays bounded away in both coordinates, at the exact values
    maj_pts = parse(maj_rows)
    for e, d in maj_pts:
        assert e == pytest.approx(6 / 64, abs=1e-12)
        assert d == pytest.approx(0.25, abs=1e-12)
    _report("14 sweep-qualitative",
            f"{len(and_rows)}+{len(maj_rows)} rows in {elapsed:.1f}s; "
            f"AND family corr(eps, delta)={corr:.2f} with delta -> 0, "
            "MAJ3 fixed at (6/64, 1/4)")
