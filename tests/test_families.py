import math
import tracemalloc

import numpy as np
import pytest

import polyspec as ps
from polyspec import families
from polyspec.families import _minterms, make_f1, make_midslice
from polyspec.influences import is_monotone, sensitivity
from polyspec.lattice import index_bits, popcounts
from conftest import random_boolean
from oracles import (all_and_or_tables, bit, edge_is_monotone, edge_minterms,
                     edge_sensitivity, naive_and, naive_f1, naive_majority3, naive_midslice,
                     naive_minterms, naive_or, naive_xor, or_width_cap)


def random_partition(n, max_width, rng, max_block=None):
    coords = list(rng.permutation(n))
    width = int(rng.integers(1, min(max_width, n) + 1))
    blocks, at = [], 0
    for k in range(width):
        size = int(rng.integers(1, (max_block or (n - at - (width - k - 1))) + 1))
        size = min(size, n - at - (width - k - 1))
        blocks.append(frozenset(int(c) for c in coords[at:at + size]))
        at += size
    return ps.BlockPartition(tuple(blocks))


def test_block_partition_validation():
    """The public constructor checks every partition; the unchecked one
    the AND-OR search uses per candidate builds the same value."""
    with pytest.raises(ValueError, match="disjoint"):
        ps.BlockPartition(({0, 1}, {1, 2}))     # overlap
    with pytest.raises(ValueError, match="nonempty"):
        ps.BlockPartition(({0}, frozenset()))   # empty block
    part = ps.BlockPartition(({2}, {0, 1}))
    assert part.width == 2 and part.support() == {0, 1, 2}
    trusted = ps.BlockPartition._trusted(part.blocks)
    assert trusted == part and trusted.blocks is part.blocks
    with pytest.raises(ValueError, match="disjoint"):
        ps.BlockPartition(trusted.blocks + (frozenset({0}),))


def test_singleton_blocks_give_plain_and():
    part = ps.BlockPartition(({0}, {1}))
    assert ps.make_and_or(3, part) == ps.make_and(3, [0, 1])


def test_and_or_and_xor_tables_point_by_point(rng):
    for _ in range(10):
        n = int(rng.integers(1, 7))
        part = random_partition(n, 3, rng)
        bits = [[bit(x, i) for i in range(n)] for x in range(1 << n)]
        want_or = [all(any(b[i] for i in blk) for blk in part.blocks) for b in bits]
        want_xor = [all(sum(b[i] for i in blk) % 2 for blk in part.blocks)
                    for b in bits]
        assert ps.make_and_or(n, part).table.tolist() == [int(v) for v in want_or]
        assert ps.make_and_xor(n, part).table.tolist() == [int(v) for v in want_xor]


def test_xor_rows_match_the_point_by_point_parity():
    """families._xor_row builds the parity of a mask's coordinates by
    doubling; it equals naive_xor for every mask at n <= 6, as bool."""
    for n in range(7):
        for mask in range(1 << n):
            row = families._xor_row(n, mask)
            assert row.dtype == bool
            coords = [i for i in range(n) if bit(mask, i)]
            assert row.astype(int).tolist() == naive_xor(n, coords), (n, mask)


def test_constructors_match_point_by_point_oracles(rng):
    for n in range(11):
        # numpy integer coordinates must give the same tables as Python ints
        coord_sets = [[], list(range(n)), [0, 0] if n else [],
                      rng.integers(0, max(n, 1), 4) if n else []]
        for coords in coord_sets:
            assert ps.make_and(n, coords).table.tolist() == naive_and(n, coords)
            assert ps.make_or(n, coords).table.tolist() == naive_or(n, coords)
            assert ps.make_xor(n, coords).table.tolist() == naive_xor(n, coords)
    assert ps.make_xor(3, [0, 0]) == ps.make_and(3, [0])
    assert ps.make_and_or(0, ps.BlockPartition(())).table.tolist() == [1]
    assert ps.make_and_xor(0, ps.BlockPartition(())).table.tolist() == [1]
    for n in range(3, 11):
        assert ps.make_majority3(n).table.tolist() == naive_majority3(n)
        assert make_f1(n).table.tolist() == naive_f1(n)
        for scale in (0.1, 0.5, 1.0, 10.0):
            assert make_midslice(n, scale).table.tolist() == naive_midslice(n, scale)


def test_block_tables_match_bit_matrix_tables_across_the_row_cache_edge(rng):
    """The OR rows are shared and memoised up to n = 10 and fresh above; on
    both sides, and on a second call that reads the memoised rows, the
    block tables match tables built from a bit matrix, and every call hands
    out its own read-only table, never a shared row."""
    for n in range(13):
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        parts = [ps.BlockPartition(())] + [random_partition(n, 3, rng) for _ in range(3) if n]
        for part in parts:
            want_or = np.ones(1 << n, dtype=bool)
            want_xor = np.ones(1 << n, dtype=bool)
            for blk in part.blocks:
                want_or &= bits[:, sorted(blk)].any(axis=1)
                want_xor &= bits[:, sorted(blk)].sum(axis=1) % 2 == 1
            for _ in range(2):
                tables = [ps.make_and_or(n, part).table, ps.make_and_or(n, part).table,
                          ps.make_and_xor(n, part).table]
                assert np.array_equal(tables[0], want_or) and np.array_equal(tables[2], want_xor)
                for blk in part.blocks:
                    tables.append(ps.make_or(n, blk).table)
                    assert np.array_equal(tables[-1], bits[:, sorted(blk)].any(axis=1))
                rows = [families._small_or_row(n, sum(1 << i for i in blk))
                        for blk in part.blocks if n <= 10]
                for k, t in enumerate(tables):
                    assert not t.flags.writeable, (n, part)
                    assert not any(np.shares_memory(t, o) for o in tables[k + 1:] + rows)


@pytest.mark.parametrize("n", [4, 12])
def test_out_of_range_coordinate_raises_on_every_call(n):
    """A bad coordinate raises the same error on a repeated call: the row
    cache keeps no entry and no exception for it."""
    message = rf"coordinate {n} outside \[0, {n}\)"
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            ps.make_or(n, [0, n])
        with pytest.raises(ValueError, match=message):
            ps.make_and_or(n, ps.BlockPartition(({1}, {2, n})))
        assert ps.make_or(n, [0]) == ps.make_and(n, [0])


def _constructor_calls(n: int) -> dict:
    """One call of each family constructor at dimension n, on coordinates
    0..8 where n has them; the constructors that need n >= 3 are left out
    below that."""
    coords = [i for i in (0, 3, 7) if i < n]
    part = ps.BlockPartition(b for b in ([i for i in blk if i < n] for blk in
                                         ([0, 1, 2], [3, 4], [5, 6, 7, 8])) if b)
    calls = {
        "and": lambda: ps.make_and(n, coords),
        "or": lambda: ps.make_or(n, coords),
        "xor": lambda: ps.make_xor(n, coords),
        "and_or": lambda: ps.make_and_or(n, part),
        "and_xor": lambda: ps.make_and_xor(n, part),
    }
    if n >= 3:
        calls.update({
            "majority3": lambda: ps.make_majority3(n),
            "f1": lambda: make_f1(n),
            "f2": lambda: ps.families.make_f2(n, 0.3, np.random.default_rng(0)),
            "midslice": lambda: make_midslice(n, 1.0),
            "semirandom": lambda: ps.families.make_semirandom(n, 1.0, np.random.default_rng(0)),
        })
    return calls


def test_constructors_peak_below_56_mib_at_n22():
    n = 22
    popcounts(n)
    peaks = {}
    for name, build in _constructor_calls(n).items():
        tracemalloc.start()
        try:
            build()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= 56 << 20, peaks


def test_constructors_reject_n25_before_allocating():
    calls = _constructor_calls(25)
    assert len(calls) == 10
    for name, build in calls.items():
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dimension 25 outside"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (name, peak)


def test_constructor_tables_are_read_only_uint8_bits():
    """The constructors wrap their tables without the BooleanFunction
    re-scan, so they must hand over exactly what the re-scan would give."""
    for n in range(11):
        for name, build in _constructor_calls(n).items():
            t = build().table
            assert t.dtype == np.uint8 and t.shape == (1 << n,), (name, n)
            assert t.flags.c_contiguous and not t.flags.writeable, (name, n)
            assert t.max(initial=0) <= 1, (name, n)
            with pytest.raises(ValueError):
                t[0] = 1


def test_single_block_and_xor_is_xor():
    part = ps.BlockPartition(({0, 1},))
    assert ps.make_and_xor(2, part) == ps.make_xor(2, [0, 1])


def test_and_or_monotone_and_xor_not(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        part = random_partition(n, 3, rng)
        assert is_monotone(ps.make_and_or(n, part))
        if any(len(b) >= 2 for b in part.blocks):
            assert not is_monotone(ps.make_and_xor(n, part))


def test_and_xor_maps_to_and_or(rng):
    # downward noise at retention 1/2 sends the AND-XOR to 2^-m times the
    # AND-OR on the same blocks
    for _ in range(40):
        n = int(rng.integers(2, 13))
        part = random_partition(n, min(4, n), rng)
        phi = ps.make_and_xor(n, part)
        g = ps.make_and_or(n, part)
        t = ps.downward_noise(phi, 0.5)
        assert np.abs(t.table - 2.0 ** -part.width * g.table).max() < 1e-12


def test_minterms_examples():
    assert ps.minterms(ps.make_and(3, [0, 2])) == {frozenset({0, 2})}
    assert ps.minterms(ps.make_or(2, [0, 1])) == {frozenset({0}), frozenset({1})}
    assert ps.minterms(ps.make_majority3()) == {
        frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}
    assert ps.minterms(ps.constant(2, 0)) == set()
    assert ps.minterms(ps.constant(2, 1)) == {frozenset()}
    with pytest.raises(ValueError):
        ps.minterms(ps.make_xor(2, [0, 1]))


def test_minterms_match_naive(rng):
    for _ in range(30):
        n = int(rng.integers(1, 11))
        f = ps.monotonize(random_boolean(n, rng))
        assert ps.minterms(f) == naive_minterms(f.table, n)


def test_and_or_minterms_are_transversals(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        part = random_partition(n, 3, rng)
        mins = ps.minterms(ps.make_and_or(n, part))
        count = 1
        for b in part.blocks:
            count *= len(b)
        assert len(mins) == count
        for m in mins:
            assert all(len(m & b) == 1 for b in part.blocks)


def test_recognize_round_trip(rng):
    for _ in range(40):
        n = int(rng.integers(1, 11))
        part = random_partition(n, min(4, n), rng)
        g = ps.make_and_or(n, part)
        got = ps.recognize_and_or(g)
        assert got is not None
        assert ps.make_and_or(n, got) == g
        assert sorted(map(sorted, got.blocks)) == sorted(map(sorted, part.blocks))


def test_recognize_checks_monotonicity_once(rng, monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return is_monotone(f)

    monkeypatch.setattr(families, "is_monotone", counted)
    for n in (1, 5, 9):
        g = ps.make_and_or(n, random_partition(n, min(4, n), rng))
        calls.clear()
        assert ps.recognize_and_or(g) is not None
        assert calls == [g]
    calls.clear()
    with pytest.raises(ValueError, match="monotone"):
        ps.minterms(ps.make_xor(2, [0, 1]))
    assert len(calls) == 1


def test_recognize_rejections():
    assert ps.recognize_and_or(ps.make_majority3()) is None
    assert ps.recognize_and_or(ps.make_xor(2, [0, 1])) is None   # not monotone
    assert ps.recognize_and_or(ps.constant(2, 0)) is None
    got = ps.recognize_and_or(ps.constant(2, 1))
    assert got is not None and got.width == 0


def test_recognize_against_exhaustive_oracle():
    # every one of the 2^16 tables at n = 4: recognized iff it is in the
    # brute-force family, and every hit rebuilds the table
    n = 4
    family = all_and_or_tables(n)
    tables = index_bits(1 << n, np.arange(1 << (1 << n)))
    hits = 0
    for table in tables:
        f = ps.BooleanFunction(n, table)
        got = ps.recognize_and_or(f)
        assert (got is not None) == (f.table.tobytes() in family)
        if got is not None:
            assert ps.make_and_or(n, got) == f
            hits += 1
    assert hits == len(family)


def _assert_packed_predicates_match_edge_passes(f):
    """is_monotone, _minterms and sensitivity on packed bits give what the
    byte-per-point edge passes give, minterm codes in the same order."""
    assert is_monotone(f) == edge_is_monotone(f.table, f.n), f
    got, want = _minterms(f), edge_minterms(f.table, f.n)
    assert got.dtype == want.dtype and np.array_equal(got, want), f
    assert sensitivity(f) == edge_sensitivity(f.table, f.n), f


def test_packed_predicates_on_every_table_up_to_n3():
    # n < 3 leaves padding bits in the one packed byte
    for n in range(4):
        for table in index_bits(1 << n, np.arange(1 << (1 << n))):
            _assert_packed_predicates_match_edge_passes(ps.BooleanFunction(n, table))


def test_packed_predicates_on_seeded_tables(rng):
    for n in range(4, 13):
        part = random_partition(n, min(4, n), rng)
        for f in (random_boolean(n, rng), ps.monotonize(random_boolean(n, rng)),
                  ps.make_and_or(n, part), ps.make_and_xor(n, part)):
            _assert_packed_predicates_match_edge_passes(f)


def test_packed_predicates_on_members_and_one_point_perturbations(rng):
    for n in (18, 20):
        part = random_partition(n, 4, rng)
        for g in (ps.make_and_or(n, part), ps.make_and_xor(n, part)):
            _assert_packed_predicates_match_edge_passes(g)
            table = g.table.copy()
            table[rng.integers(1 << n)] ^= 1
            _assert_packed_predicates_match_edge_passes(ps.BooleanFunction(n, table))


def test_packed_predicates_peak_below_the_edge_passes_at_n22():
    """Peak traced bytes at n = 22 on an AND-OR (monotone, so every
    coordinate is checked): is_monotone 1.50 MiB, _minterms 1.52 MiB and
    sensitivity 4.01 MiB, where the byte-per-point edge passes peak at
    2.02, 10.02 and 6.02 MiB."""
    n = 22
    g = ps.make_and_or(n, ps.BlockPartition((range(7), range(7, 14), range(14, n))))
    bounds = {"is_monotone": (is_monotone, edge_is_monotone, 1.75),
              "_minterms": (_minterms, edge_minterms, 2.5),
              "sensitivity": (sensitivity, edge_sensitivity, 4.5)}
    for name, (packed, edge, mib) in bounds.items():
        peaks = []
        for run in (lambda: packed(g), lambda: edge(g.table, n)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
            finally:
                tracemalloc.stop()
        assert peaks[0] < mib < peaks[1], (name, peaks)


def test_truncation_dominates_and_is_close(rng):
    p = 0.5
    for _ in range(20):
        n = int(rng.integers(3, 11))
        part = random_partition(n, 3, rng)
        cap = int(rng.integers(1, n + 1))
        cut = ps.BlockPartition(b for b in part.blocks if len(b) <= cap)
        g = ps.make_and_or(n, part)
        psi = ps.make_and_or(n, cut)
        assert np.all(psi.table >= g.table)
        gamma = (1 - p) ** cap
        assert ps.l1_distance(g, psi, p) <= part.width * gamma + 1e-12


def test_close_and_ors_truncate_identically(rng):
    # two AND-ORs differing only in a wide extra OR collapse to the same
    # truncation once blocks above the derived cap are removed
    p = 0.5
    for _ in range(20):
        n = int(rng.integers(6, 13))
        base_coords = list(range(n - 4))
        part1 = random_partition(n - 4, 2, rng)
        wide_block = frozenset(range(n - 4, n))
        part2 = ps.BlockPartition(part1.blocks + (wide_block,))
        g1 = ps.make_and_or(n, part1)
        g2 = ps.make_and_or(n, part2)
        eps = ps.l1_distance(g1, g2, p)
        d = max(part1.width, part2.width)
        gamma = 2 * p ** -d * eps
        # the cap always lands below the wide block's size when eps > 0
        cap = or_width_cap(p, gamma) if gamma < 1 else 0
        if not 1 <= cap < 4:
            continue
        cut1 = ps.BlockPartition(b for b in part1.blocks if len(b) <= cap)
        cut2 = ps.BlockPartition(b for b in part2.blocks if len(b) <= cap)
        assert (sorted(map(sorted, cut1.blocks))
                == sorted(map(sorted, cut2.blocks)))
        assert ps.l1_distance(g1, ps.make_and_or(n, cut1), p) <= d * gamma + 1e-12


def test_f1_mean_and_structure():
    f1 = ps.make_f1(20)
    assert ps.expectation(f1, 0.5) == pytest.approx(0.75, abs=0.05)
    # on heavy inputs the function is the OR of the first two coordinates
    assert f1.table[(1 << 20) - 1] == 1
    assert f1.table[0b111000] == 0             # three ones, OR of x0,x1 = 0


def test_f2_mean_exceeds_lambda(rng):
    lam = 0.7
    f2 = ps.make_f2(16, lam, rng)
    mean = ps.expectation(f2, 0.5)
    assert mean > lam
    assert mean == pytest.approx(1.0, abs=0.06)


def test_f2_reproducible():
    a = ps.make_f2(10, 0.4, np.random.default_rng(5))
    b = ps.make_f2(10, 0.4, np.random.default_rng(5))
    assert a == b


def test_f2_residual_small_against_heavy_slice():
    # with g the heavy-slice indicator the pair (f2, g) is a near solution,
    # improving with n
    from polyspec.lattice import popcounts
    lam = 0.7
    etas = {}
    for n in (12, 16):
        f2 = ps.make_f2(n, lam, np.random.default_rng(7))
        heavy = ps.BooleanFunction(
            n, (popcounts(n) >= math.ceil(n / 3)).astype(np.uint8))
        etas[n] = ps.residual(f2, heavy, ps.NoiseParams(p=0.5, rho=0.5, lam=lam))
    assert etas[16] < etas[12]
    assert etas[16] < 0.2


def test_midslice_band_structure():
    n = 12
    f = ps.make_midslice(n, window_scale=0.5)
    w = 0.5 * math.sqrt(n * math.log(n))     # about 2.7 at n = 12
    mid = 0b111111000000                     # weight 6 = n/2: inside the band
    assert abs(bin(mid).count("1") - n / 2) <= w
    assert f.table[mid] == 0                 # OR of x0, x1 on the band
    assert f.table[mid | 0b11] == 1
    low = 0b110                              # weight 2: outside, XOR branch
    assert abs(bin(low).count("1") - n / 2) > w
    assert f.table[low] == 1                 # x0 xor x1 = 0 xor 1
    # a huge window turns the function into the plain OR of x0, x1
    wide = ps.make_midslice(n, window_scale=10.0)
    assert ps.expectation(wide, 0.5) == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("scale", [-1.0, float("nan")])
def test_middle_band_families_reject_negative_or_nan_scale(scale):
    for make in (lambda: make_midslice(4, scale),
                 lambda: ps.make_semirandom(4, scale, np.random.default_rng(0))):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == f"window_scale must be at least 0, got {scale}"
    assert make_midslice(4, 0.0).table.tolist() == naive_midslice(4, 0.0)   # scale 0 is allowed


def test_semirandom_structure():
    n = 12
    f = ps.make_semirandom(n, 0.5, np.random.default_rng(3))
    w = 0.5 * math.sqrt(n * math.log(n))
    pc = ps.lattice.popcounts(n)
    off_band = np.abs(pc.astype(float) - n / 2.0) > w
    assert not f.table[off_band].any()          # zero off the band
    on = f.table[~off_band]
    assert 0.3 < on.mean() < 0.7                # roughly balanced on it
    assert ps.make_semirandom(n, 0.5, np.random.default_rng(3)) == f


def test_family_dimension_guards():
    with pytest.raises(ValueError):
        ps.make_f1(2)
    with pytest.raises(ValueError):
        ps.make_f2(8, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        ps.make_majority3(2)


SMALL_N_GUARDS = {
    "make_f1": lambda n: ps.make_f1(n),
    "make_f2": lambda n: ps.make_f2(n, 0.5, np.random.default_rng(0)),
    "make_midslice": lambda n: ps.make_midslice(n),
    "make_semirandom": lambda n: ps.make_semirandom(n, 0.5, np.random.default_rng(0)),
}


@pytest.mark.parametrize("name", sorted(SMALL_N_GUARDS))
def test_constructors_that_need_three_coordinates_reject_fewer(name):
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match=f"{name} needs n >= 3"):
            SMALL_N_GUARDS[name](n)
    assert SMALL_N_GUARDS[name](3).n == 3
