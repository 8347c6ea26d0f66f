import numpy as np
import pytest

import polyspec as ps
from polyspec.fourier import synthesize_table, transform_table
from conftest import random_boolean, random_bounded
from oracles import character_table, naive_fourier_coeff, set_influence, subsets


def test_constant_spectrum():
    spec = ps.fourier_transform(ps.constant(3, 1), 0.4)
    assert spec.coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(spec.coeffs[1:]).max() < 1e-12


def test_dictator_spectrum():
    for p in (0.2, 0.5, 0.75):
        spec = ps.fourier_transform(ps.make_and(1, [0]), p)
        assert spec.coeffs[0] == pytest.approx(p, abs=1e-12)
        assert spec.coeffs[1] == pytest.approx(np.sqrt(p * (1 - p)), abs=1e-12)


def test_and2_spectrum_uniform():
    spec = ps.fourier_transform(ps.make_and(2, [0, 1]), 0.5)
    assert np.allclose(spec.coeffs, 0.25, atol=1e-12)
    # Parseval: four coefficients of 1/16 against E[f^2] = 1/4
    assert np.sum(spec.coeffs ** 2) == pytest.approx(0.25, abs=1e-12)


def test_transform_matches_naive(rng):
    for n in (1, 2, 4):
        f = random_bounded(n, rng)
        for p in (0.3, 0.5, 0.7):
            spec = ps.fourier_transform(f, p)
            for S in subsets(n):
                mask = sum(1 << i for i in S)
                assert spec.coeffs[mask] == pytest.approx(
                    naive_fourier_coeff(f.table, n, p, S), abs=1e-10)


def test_transform_rejects_bad_bias(rng):
    with pytest.raises(ValueError):
        ps.fourier_transform(random_boolean(2, rng), 1.0)


def test_orthonormality():
    n = 5
    for p in (0.3, 0.5, 0.7):
        from polyspec.lattice import measure_weights
        w = measure_weights(n, p)
        chars = {tuple(S): character_table(n, S, p) for S in subsets(n)}
        for S in subsets(n):
            for T in subsets(n):
                inner = float(w @ (chars[tuple(S)] * chars[tuple(T)]))
                assert inner == pytest.approx(1.0 if S == T else 0.0, abs=1e-10)


def test_parseval_random(rng):
    for n in (4, 8, 12):
        f = random_boolean(n, rng)
        for p in (0.3, 0.5, 0.7):
            spec = ps.fourier_transform(f, p)
            energy = ps.expectation(f, p)        # f Boolean: E[f^2] = E[f]
            assert np.sum(spec.coeffs ** 2) == pytest.approx(energy, abs=1e-9)


def test_round_trip(rng):
    for n in (1, 5, 9):
        f = random_bounded(n, rng)
        for p in (0.3, 0.5, 0.7):
            back = synthesize_table(transform_table(f.table, n, p), n, p)
            assert np.abs(back - f.table).max() < 1e-10


def test_mean_coefficient_matches_expectation(rng):
    for _ in range(10):
        n = int(rng.integers(1, 9))
        f = random_bounded(n, rng)
        p = float(rng.uniform(0.1, 0.9))
        spec = ps.fourier_transform(f, p)
        assert spec.coeffs[0] == pytest.approx(ps.expectation(f, p), abs=1e-12)


def test_tail_weight_values():
    # parity written 0/1-valued: mass 1/4 at level 0 and 1/4 on the top set,
    # so the whole nonconstant weight sits at level n
    n = 5
    parity = ps.make_xor(n, range(n))
    spec = ps.fourier_transform(parity, 0.5)
    assert spec.tail_weight(n) == pytest.approx(0.25, abs=1e-12)
    assert spec.tail_weight(1) == pytest.approx(0.25, abs=1e-12)
    assert spec.tail_weight(0) == pytest.approx(0.5, abs=1e-12)  # E[f^2]

    const = ps.fourier_transform(ps.constant(3, 1), 0.5)
    assert const.tail_weight(1) == 0.0

    and2 = ps.fourier_transform(ps.make_and(2, [0, 1]), 0.5)
    assert and2.tail_weight(2) == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_tail_weight_monotone(rng):
    f = random_boolean(7, rng)
    spec = ps.fourier_transform(f, 0.4)
    tails = [spec.tail_weight(k) for k in range(9)]
    assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))
    with pytest.raises(ValueError):
        spec.tail_weight(9)


def test_set_influence_values():
    for p in (0.25, 0.5, 0.6):
        spec = ps.fourier_transform(ps.make_and(3, [0]), p)
        assert set_influence(spec, [0]) == pytest.approx(p * (1 - p), abs=1e-12)
    const = ps.fourier_transform(ps.constant(3, 1), 0.5)
    assert set_influence(const, [1]) == 0.0
    # 0/1-valued parity: the only coefficient over {0,1} is the top one, 1/4
    parity = ps.fourier_transform(ps.make_xor(2, [0, 1]), 0.5)
    assert set_influence(parity, [0, 1]) == pytest.approx(0.25, abs=1e-12)
    assert set_influence(parity, [0, 1]) == parity.tail_weight(2)


def test_set_influence_superset_monotone(rng):
    f = random_boolean(5, rng)
    spec = ps.fourier_transform(f, 0.5)
    assert set_influence(spec, []) == pytest.approx(ps.expectation(f, 0.5), abs=1e-9)
    for S in subsets(5):
        for extra in range(5):
            if extra in S:
                continue
            assert (set_influence(spec, list(S) + [extra])
                    <= set_influence(spec, S) + 1e-15)


def test_batched_transform_agrees(rng):
    tables = rng.random((7, 16))
    batch = transform_table(tables, 4, 0.3)
    for row in range(7):
        single = transform_table(tables[row], 4, 0.3)
        assert np.allclose(batch[row], single, atol=1e-15)
