import dataclasses
import math

import numpy as np
import pytest

import polyspec as ps
from polyspec.influences import high_influence_coordinates, is_monotone
from conftest import random_boolean, random_bounded
from polyspec.lattice import measure_weights
from oracles import (edge_influence, edge_negative_influence, naive_influence,
                     naive_junta_project, naive_negative_influence,
                     naive_sensitivity, naive_shift, sensitivity_degree_gap,
                     spectrum_degree)


def test_dictator_influence():
    f = ps.make_and(3, [1])
    for p in (0.2, 0.5, 0.9):
        assert ps.influence(f, 1, p) == pytest.approx(1.0, abs=1e-12)
        assert ps.influence(f, 0, p) == 0.0


def test_monotone_has_no_negative_influence(rng):
    f = ps.make_and_or(4, ps.BlockPartition(({0, 1}, {3})))
    for i in range(4):
        assert ps.negative_influence(f, i, 0.4) == 0.0


def test_negation_negative_influence():
    f = ps.BooleanFunction(1, [1, 0])
    for p in (0.25, 0.5, 0.8):
        assert ps.negative_influence(f, 0, p) == pytest.approx(1.0, abs=1e-12)


def test_influences_match_naive(rng):
    for _ in range(10):
        n = int(rng.integers(1, 6))
        f = random_bounded(n, rng)
        p = float(rng.uniform(0.1, 0.9))
        for i in range(n):
            assert ps.influence(f, i, p) == pytest.approx(
                naive_influence(f.table, n, i, p), abs=1e-12)
            assert ps.negative_influence(f, i, p) == pytest.approx(
                naive_negative_influence(f.table, n, i, p), abs=1e-12)


def bit_identity_cases(rng) -> list:
    """Boolean, bounded and monotone inputs for n <= 10; the monotone ones
    have negative influences that are exactly zero.  The bounded tables
    include ones of signed zeros only and ones of 1-decimal values, whose
    edges are often flat."""
    cases = []
    for n in range(11):
        f = random_boolean(n, rng)
        signed_zeros = np.where(rng.random(1 << n) < 0.5, -0.0, 0.0)
        decimals = rng.integers(0, 11, 1 << n) / 10.0
        cases += [f, random_bounded(n, rng), ps.monotonize(f),
                  ps.BoundedFunction(n, signed_zeros), ps.BoundedFunction(n, decimals)]
    return cases


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 0.123])
def test_profile_and_candidates_match_per_coordinate_bits(p, rng):
    """Both influences keep the bits of the two-pass edge helpers; float.hex
    tells -0.0 from 0.0, so the sign of every zero is compared."""
    for f in bit_identity_cases(rng):
        table = f.table.astype(np.float64)
        w = measure_weights(max(f.n - 1, 0), p)
        infl = [edge_influence(table, i, w).hex() for i in range(f.n)]
        neg = [edge_negative_influence(table, i, w).hex() for i in range(f.n)]
        assert [ps.influence(f, i, p).hex() for i in range(f.n)] == infl
        assert [ps.negative_influence(f, i, p).hex() for i in range(f.n)] == neg
        prof = ps.influence_profile(f, p)
        assert [x.hex() for x in prof.influences] == infl
        assert [x.hex() for x in prof.negative_influences] == neg
        for tau in (0.0, 0.05, 0.2):
            assert high_influence_coordinates(f, p, tau) == [
                i for i in range(f.n) if ps.influence(f, i, p) >= tau]
        if f.n:
            rho = 0.75      # the audit measures at bias rho * params.p, near p
            params = ps.NoiseParams(p=p / rho, rho=rho, lam=0.25)
            g = ps.make_and(f.n, [0])
            audit = ps.theorem_audit("monotone", f, g, params)
            assert audit.premise["max_negative_influence"].hex() == max(
                ps.negative_influence(f, i, rho * params.p) for i in range(f.n)).hex()


def test_influence_fourier_identity(rng):
    # I_i equals the mass of coefficients containing i divided by p(1-p)
    for p in (1.0 / 3.0, 0.5):
        f = random_boolean(6, rng)
        spec = ps.fourier_transform(f, p)
        for i in range(6):
            assert ps.influence(f, i, p) * p * (1 - p) == pytest.approx(
                spec.set_influence([i]), abs=1e-9)


def test_sensitivity_and_degree_of_parity_and_and():
    n = 5
    parity = ps.make_xor(n, range(n))
    assert ps.sensitivity(parity) == n
    assert ps.degree(parity) == n
    for coords in ([0], [1, 3], [0, 2, 4]):
        f = ps.make_and(n, coords)
        assert ps.sensitivity(f) == len(coords)
        assert ps.degree(f) == len(coords)


def test_huang_inequality_random(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        f = random_boolean(n, rng)
        s, d = ps.sensitivity(f), ps.degree(f)
        assert s * s >= d
        assert sensitivity_degree_gap(f) >= 0.0


def test_shift_examples():
    f = ps.BooleanFunction(1, [1, 0])
    assert ps.shift(f, 0).table.tolist() == [0, 1]
    mono = ps.make_and(3, [0, 1])
    for i in range(3):
        assert ps.shift(mono, i) == mono


def test_shift_displacement_bounded_by_negative_influence(rng):
    for _ in range(30):
        n = int(rng.integers(1, 8))
        f = random_bounded(n, rng)
        p = float(rng.uniform(0.15, 0.85))
        for i in range(n):
            moved = ps.l1_distance(ps.shift(f, i), f, p)
            assert moved <= ps.negative_influence(f, i, p) + 1e-12


def test_shift_controls_other_negative_influences(rng):
    for _ in range(30):
        n = int(rng.integers(2, 7))
        f = random_bounded(n, rng)
        p = float(rng.uniform(0.15, 0.85))
        i, j = rng.choice(n, size=2, replace=False)
        before = ps.negative_influence(f, j, p)
        after = ps.negative_influence(ps.shift(f, int(i)), j, p)
        assert after <= before / (p * (1 - p)) + 1e-12


def test_monotonize(rng):
    for _ in range(30):
        n = int(rng.integers(1, 8))
        f = random_bounded(n, rng)
        m = ps.monotonize(f)
        assert is_monotone(m)
        assert ps.monotonize(m) == m            # idempotent
    g = ps.make_and_or(4, ps.BlockPartition(({0}, {1, 2})))
    assert ps.monotonize(g) == g


def test_monotonize_aggregate_bound(rng):
    for _ in range(30):
        n = int(rng.integers(1, 7))
        f = random_bounded(n, rng)
        p = float(rng.uniform(0.2, 0.8))
        tau = max(ps.negative_influence(f, i, p) for i in range(n))
        bound = ((1 - p) * p) ** (-n) * n * tau
        assert ps.l1_distance(f, ps.monotonize(f), p) <= bound + 1e-12


def test_junta_project_fixes_juntas(rng):
    base = random_boolean(3, rng)
    # lift to 5 coordinates: depends only on 0, 2, 4
    lifted = np.zeros(32, dtype=np.uint8)
    for x in range(32):
        key = ((x >> 0) & 1) | (((x >> 2) & 1) << 1) | (((x >> 4) & 1) << 2)
        lifted[x] = base.table[key]
    f = ps.BooleanFunction(5, lifted)
    proj = ps.junta_project(f, [0, 2, 4], 0.3)
    assert np.allclose(proj.table, f.table, atol=1e-12)


def test_junta_project_dictator_to_empty():
    d = ps.make_and(2, [0])
    for p, want in ((0.7, 1), (0.3, 0)):
        rounded = (ps.junta_project(d, [], p).table >= 0.5).astype(np.uint8)
        assert ps.BooleanFunction(2, rounded) == ps.constant(2, want)


def test_junta_project_decreases_negative_influence(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        f = random_bounded(n, rng)
        p = float(rng.uniform(0.2, 0.8))
        keep = [i for i in range(n) if rng.random() < 0.6]
        proj = ps.junta_project(f, keep, p)
        for j in keep:
            assert (ps.negative_influence(proj, j, p)
                    <= ps.negative_influence(f, j, p) + 1e-12)


def test_influence_profile(rng):
    f = ps.make_majority3()
    prof = ps.influence_profile(f, 0.5)
    assert prof.max_sensitivity == 2 and prof.degree == 3
    assert prof.monotone
    assert prof.influences == (0.5, 0.5, 0.5)
    assert prof.negative_influences == (0.0, 0.0, 0.0)
    d = dataclasses.asdict(prof)
    assert set(d) == {"p", "influences", "negative_influences",
                      "max_sensitivity", "degree", "monotone"}


def test_degree_cross_check_biases(rng):
    for _ in range(10):
        f = random_boolean(5, rng)
        assert ps.degree(f) == spectrum_degree(f.table, f.n, p=1 / 3)


def test_degree_of_bounded_tables_ignores_rounding(rng):
    # 0.1 + 0.2 x0 + 0.3 x1: its {0, 1} Moebius coefficient rounds to -2.8e-17
    assert ps.degree(ps.BoundedFunction(2, [0.1, 0.3, 0.4, 0.6])) == 1
    for n in range(1, 8):
        f = random_bounded(n, rng)
        assert ps.degree(f) == spectrum_degree(f.table, n) == n


def test_degree_matches_spectrum_oracle(rng):
    funcs = [ps.constant(n, v) for n in (0, 1, 6) for v in (0, 1)]
    for _ in range(60):
        n = int(rng.integers(1, 11))
        coords = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
        blocks = np.array_split(np.array(coords), int(rng.integers(1, len(coords) + 1)))
        sparse = np.zeros(1 << n, dtype=np.uint8)
        sparse[rng.integers(0, 1 << n, 3)] = 1
        funcs += [random_boolean(n, rng), ps.make_and(n, coords), ps.make_xor(n, coords),
                  ps.make_and_or(n, ps.BlockPartition(tuple(map(set, blocks)))),
                  ps.BooleanFunction(n, sparse)]
    for f in funcs:
        assert ps.degree(f) == spectrum_degree(f.table, f.n), f


def test_degree_exact_at_n20():
    assert ps.degree(ps.make_and(20, range(20))) == 20
    assert ps.degree(ps.make_xor(20, range(20))) == 20


def test_sensitivity_matches_pointwise(rng):
    for n in range(7):
        for _ in range(5):
            f = random_boolean(n, rng)
            assert ps.sensitivity(f) == naive_sensitivity(f.table, n)


def test_shift_matches_pointwise(rng):
    for n in range(1, 7):
        for f in (random_boolean(n, rng), random_bounded(n, rng)):
            for i in range(n):
                moved = ps.shift(f, i)
                assert type(moved) is type(f)
                assert np.array_equal(moved.table, naive_shift(f.table, n, i))


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_junta_project_matches_pointwise(p, rng):
    for n in range(1, 7):
        for f in (random_boolean(n, rng), random_bounded(n, rng)):
            coords = rng.choice(n, size=int(rng.integers(0, n + 1)),
                                replace=False).tolist()
            want = naive_junta_project(f.table, n, coords, p)
            got = ps.junta_project(f, coords, p)
            assert got.n == n
            assert np.abs(got.table - want).max() <= 1e-12
            rounded = got.table >= 0.5
            clear = np.abs(want - 0.5) > 1e-12
            assert np.array_equal(rounded[clear], (want[clear] >= 0.5))
