import os
import re
import subprocess
import sys
import tracemalloc
from math import inf
from pathlib import Path

import numpy as np
import pytest

from polyspec import lattice
from polyspec.fourier import (analysis_kernel, synthesis_kernel, synthesize_table,
                              transform_table)
from polyspec.lattice import (_by_level, apply_kernel, coordinate_pairs,
                              measure_weights, mobius_subsets, point_codes,
                              popcounts, subcube_codes, zeta_subsets,
                              zeta_supersets)
from polyspec.noise import (downward_noise_table, inverse_noise_kernel, invert_downward,
                            noise_kernel)
from oracles import bit, stagewise_kernel

SRC = Path(__file__).resolve().parents[1] / "src" / "polyspec"


def test_coordinate_pairs_is_the_edge_view():
    for n in range(7):
        values = np.arange(3 << n).reshape(3, 1 << n)
        for i in range(n):
            view = coordinate_pairs(values, i)
            assert view.shape == (3, 1 << (n - i - 1), 2, 1 << i)
            assert np.shares_memory(view, values)
            for x in range(1 << n):
                at = view[:, x >> (i + 1), bit(x, i), x & ((1 << i) - 1)]
                assert np.array_equal(at, values[:, x])


@pytest.mark.parametrize("coords", [[], [0], [3, 1], [0, 2, 4, 5],
                                    [5, 4, 3, 2, 1, 0]])
def test_subcube_codes_definition(coords):
    codes = subcube_codes(6, coords)
    assert codes.shape == (64,)
    for x in range(64):
        assert codes[x] == sum(bit(x, i) << k for k, i in enumerate(coords))


@pytest.mark.parametrize("c, dtype", [(0, np.uint8), (8, np.uint8), (9, np.uint16),
                                      (16, np.uint16), (17, np.uint32)])
def test_subcube_codes_smallest_dtype(c, dtype):
    n = max(c, 1)
    codes = subcube_codes(n, range(c))
    assert codes.dtype == dtype
    assert np.array_equal(codes, np.arange(1 << n) & ((1 << c) - 1))


@pytest.mark.parametrize("n, dtype", [(0, np.uint8), (8, np.uint8), (9, np.uint16),
                                      (16, np.uint16), (17, np.uint32), (24, np.uint32)])
def test_point_codes_smallest_dtype(n, dtype):
    codes = point_codes(n)
    assert codes.dtype == dtype and codes.shape == (1 << n,)
    assert codes[0] == 0 and codes[-1] == (1 << n) - 1
    assert np.all(np.diff(codes.astype(np.int64)) == 1)


def test_point_codes_values_dtypes_and_read_only():
    """Every result is read-only, with the values of an arange in the
    smallest unsigned dtype that holds them."""
    for n in range(21):
        codes = point_codes(n)
        dtype = np.uint8 if n <= 8 else np.uint16 if n <= 16 else np.uint32
        assert codes.dtype == dtype
        assert np.array_equal(codes, np.arange(1 << n)), n
        assert not codes.flags.writeable
        with pytest.raises(ValueError):
            codes[0] = 1


def test_only_lattice_builds_point_indices():
    """Every other module takes the 2^n point codes from lattice.point_codes."""
    modules = sorted(SRC.glob("*.py"))
    assert any(m.name == "lattice.py" for m in modules)
    offenders = [m.name for m in modules
                 if m.name != "lattice.py" and "np.arange(1 <<" in m.read_text()]
    assert offenders == []


@pytest.mark.parametrize("n", range(21))
def test_by_level_is_the_popcount_gather(n):
    """Row gather of a per-level table: the values, dtype and shape of
    values[..., popcounts(n)], for 1-D and stacked tables, float and bool."""
    rng = np.random.default_rng(n)
    for values in (rng.standard_normal(n + 1), rng.standard_normal((2, 3, n + 1)),
                   rng.random(n + 1) < 0.5, rng.random((3, n + 1)) < 0.5):
        got, expect = _by_level(values, n), values[..., popcounts(n)]
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("p", [0.123, 0.3, 0.5, 0.9])
def test_measure_weights_is_the_per_point_closed_form(p):
    """p^|x| * (1-p)^(n-|x|) evaluated at every point has the same bits."""
    for n in (0, 1, 7, 8, 9, 12, 16):
        k = popcounts(n).astype(np.float64)
        assert same_bits(measure_weights(n, p), p ** k * (1.0 - p) ** (n - k)), n


def test_only_lattice_indexes_by_popcounts():
    """Every other module spreads a per-level table over the cube through
    lattice._by_level, which gathers whole rows."""
    modules = sorted(SRC.glob("*.py"))
    assert any(m.name == "lattice.py" for m in modules)
    gather = re.compile(r"\[(\.\.\., *)?popcounts\(")
    offenders = [m.name for m in modules
                 if m.name != "lattice.py" and gather.search(m.read_text())]
    assert offenders == []


def test_only_lattice_spells_the_edge_reshape():
    """Every other module reaches the two ends of an i-edge through
    lattice.coordinate_pairs."""
    modules = sorted(SRC.glob("*.py"))
    assert any(m.name == "lattice.py" for m in modules)
    offenders = [m.name for m in modules
                 if m.name != "lattice.py" and "reshape(-1, 2, 1 <<" in m.read_text()]
    assert offenders == []


KERNELS = {
    "noise": noise_kernel(0.3),
    "inverse": inverse_noise_kernel(0.4),
    "analysis": analysis_kernel(0.3),
    "synthesis": synthesis_kernel(0.7),
    "zeta": np.array([[1.0, 0.0], [1.0, 1.0]]),
    "mobius": np.array([[1.0, 0.0], [-1.0, 1.0]]),
    "supersets": np.array([[1.0, 1.0], [0.0, 1.0]]),
    # [[1, 0], [-1, 2]]: one entry away from Moebius, so it must keep the
    # multiply form
    "inverse-half": inverse_noise_kernel(0.5),
    # neither triangular nor a Fourier kernel; no zero entry, so it runs as
    # group products
    "general": np.array([[0.6, 0.4], [0.25, 0.5]]),
}


def stage_orders(n: int) -> dict:
    """Runs of ascending coordinates that cross run and tile boundaries for
    the last axis 2^n; test_staged_upper_run_matches_stagewise_bits adds
    14..19 at n = 20."""
    return {
        "default": None,
        "ascending": list(range(1, n)),
        # at n = 17 the run 2..16 is cut into column slices two wide, so the
        # transposed low stages write back through a non-contiguous view
        "from-2": list(range(2, n)),
    }


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    # array_equal identifies -0.0 with 0.0, so signs are compared too
    return (x.dtype == y.dtype and np.array_equal(x, y)
            and np.array_equal(np.signbit(x), np.signbit(y)))


def fourier_error_bound(values: np.ndarray, n: int, kernel: np.ndarray, coords) -> np.ndarray:
    """Entrywise first-order bound on the gap between the group products
    and the stagewise kernel run in longdouble: 19/4 roundings per stage
    (see fourier.transform_table) and the reference's 3, each of the
    envelope |K| applied to |values| stage by stage."""
    start = np.abs(values).astype(np.float64)
    stages = n if coords is None else len(coords)
    u, u_ref = np.finfo(values.dtype).eps / 2, np.finfo(np.longdouble).eps / 2
    return stages * (4.75 * u + 3 * u_ref) * stagewise_kernel(start, n, np.abs(kernel), coords)


def assert_kernel_result(got, base, n, name, coords, note):
    """Every kernel that the form rule runs as group products (analysis,
    synthesis and general, and no other) within fourier_error_bound of the
    stagewise kernel run in longdouble; every other kernel with its
    stagewise bits."""
    kernel = KERNELS[name]
    grouped = lattice._groups(kernel, got.dtype) is not None
    assert grouped == (name in ("analysis", "synthesis", "general")), note
    if grouped:
        exact = stagewise_kernel(base.astype(np.longdouble), n, kernel, coords)
        assert np.all(np.abs(got - exact) <= fourier_error_bound(base, n, kernel, coords)), note
    else:
        assert same_bits(got, stagewise_kernel(base.copy(), n, kernel, coords)), note


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("shape", [(1 << 15,), (1 << 16,), (1 << 17,), (1 << 18,),
                                   (7, 16), (1024, 64), (3, 1 << 17),
                                   (4096, 16), (256, 4096)])
def test_apply_kernel_matches_stagewise_bits(shape, dtype):
    """The tiled engine does each element's stage arithmetic in the old
    order, on both sides of the one-tile size 2^16, whether a tile's low
    stages run in place or on a transposed copy.  The kernels that run four
    stages at a time as matrix products instead are held to their error
    bound against a longdouble stagewise run, in every run of stages."""
    n = shape[-1].bit_length() - 1
    base = np.random.default_rng(n).standard_normal(shape).astype(dtype)
    base[..., ::5] = 0.0
    for name, kernel in KERNELS.items():
        for order, coords in stage_orders(n).items():
            got = base.copy()
            out = apply_kernel(got, n, kernel, coords)
            assert out is got
            assert_kernel_result(got, base, n, name, coords, (name, order))


@pytest.mark.parametrize("coords", [None, list(range(14, 20))], ids=["default", "14-19"])
def test_staged_upper_run_matches_stagewise_bits(coords):
    """At n = 20 the runs 15..19 (of the default order) and 14..19 are cut
    into column tiles of 2048- and 1024-element runs, which take all their
    stages on a copy in the scratch block; every kernel that runs stage by
    stage keeps its stagewise bits there, and the grouped ones keep their
    error bound.  float64 only, since a longdouble engine run at 2^20 costs
    seconds."""
    n = 20
    base = np.random.default_rng(n).standard_normal(1 << n)
    base[::5] = 0.0
    for name, kernel in KERNELS.items():
        got = apply_kernel(base.copy(), n, kernel, coords)
        assert_kernel_result(got, base, n, name, coords, name)


def test_only_column_tiles_of_short_runs_are_staged(monkeypatch):
    """A run's stages go to the scratch block when its tiles are column
    slices of at most lattice._MAX_STAGED_COLS contiguous elements: the run
    15..19 at n = 20 (2048 elements), not 15..18 at n = 19 (4096), not
    15..17 at n = 18 (8192), and never a single stage.  A wrapper around the
    stage update records whether each stage's halves lie in the table; the
    noise kernel runs stage by stage."""
    in_table = []
    stage_update = lattice._stage_update

    def recorded(kernel, scratch):
        update = stage_update(kernel, scratch)

        def record(a, b):
            in_table.append(np.may_share_memory(a, values))
            update(a, b)
        return record

    monkeypatch.setattr(lattice, "_stage_update", recorded)
    for n, coords, staged in ((20, range(15, 20), True), (19, range(15, 19), False),
                              (18, range(15, 18), False), (20, [19], False)):
        values = np.ones(1 << n)
        in_table.clear()
        apply_kernel(values, n, KERNELS["noise"], list(coords))
        assert in_table and set(in_table) == {not staged}, (n, list(coords))


@pytest.mark.parametrize("shape", [(7, 16), (65536, 16), (256, 4096), (3, 1 << 17)])
def test_stacked_fourier_rows_keep_the_bits_of_their_unstacked_calls(shape):
    """The grouped form's matrix products give each element the same bits
    whatever the batch shape and the element's place in it: every row of a
    stacked transform and synthesis has the bits of its own call.  Compared
    as uint64, so -0.0 counts."""
    n = shape[-1].bit_length() - 1
    base = np.random.default_rng(n).standard_normal(shape)
    for run, p in ((transform_table, 0.3), (synthesize_table, 0.7)):
        stacked = run(base, n, p).view(np.uint64)
        for row in range(shape[0]):
            assert np.array_equal(run(base[row], n, p).view(np.uint64), stacked[row]), \
                (run.__name__, row)


def test_fourier_bits_do_not_depend_on_blas_threads():
    """The matrix products go through BLAS; with one and with two BLAS
    threads an n = 20 transform and a (256, 4096) batch have the same
    bytes, since each product is small enough to run on one thread."""
    script = ("import hashlib, numpy as np\n"
              "from polyspec.fourier import transform_table\n"
              "rng = np.random.default_rng(7)\n"
              "h = hashlib.sha256(transform_table(rng.random(1 << 20), 20, 0.3).tobytes())\n"
              "h.update(transform_table(rng.random((256, 4096)), 12, 0.3).tobytes())\n"
              "print(h.hexdigest())\n")
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(SRC.parent)] + sys.path)}
        run = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True)
        digests.add(run.stdout.strip())
    assert len(digests) == 1, digests


@pytest.mark.parametrize("p", [1e-300, 1e-160, 1e-100, 5e-324, 1 - 1e-16])
def test_extreme_bias_falls_back_to_the_stagewise_bits(p):
    """At every bias the Fourier kernels run as group products, with
    smaller groups where K(x)K(x)K(x)K leaves the normal range (see
    test_group_rule_decides_extreme_kernels_without_warnings).  Analysis
    and synthesis stay entrywise within fourier_error_bound plus the float64
    stagewise run's own gap to the longdouble reference, which float64
    underflow sets at tiny p (9.5e-118 for the analysis at p = 1e-100), on
    a 0/1 table and a random one."""
    n = 12
    rng = np.random.default_rng(n)
    for table in (rng.integers(0, 2, 1 << n).astype(np.float64), rng.random(1 << n)):
        coeffs = transform_table(table, n, p)
        values = synthesize_table(coeffs, n, p)
        for kernel, base, got in ((analysis_kernel(p), table, coeffs),
                                  (synthesis_kernel(p), coeffs, values)):
            assert lattice._groups(kernel, got.dtype) is not None
            exact = stagewise_kernel(base.astype(np.longdouble), n, kernel)
            own = np.abs(stagewise_kernel(base.copy(), n, kernel) - exact)
            bound = fourier_error_bound(base, n, kernel, None) + own
            assert np.all(np.abs(got - exact) <= bound), kernel


# the group size the form rule picks for the Fourier kernels in float64
EXTREME_GROUPS = {1e-100: (3, 4), 1e-160: (1, 3), 1e-200: (1, 3), 1e-300: (1, 2),
                  5e-324: (1, 1), 1 - 1e-16: (4, 4)}


def test_group_rule_decides_extreme_kernels_without_warnings():
    """The form rule computes every library kernel's group matrices at
    extreme parameters with no RuntimeWarning (the test configuration makes
    one an error), though a product overflows and inf*0 gives NaN.  The
    cache is bypassed, so an earlier call under np.errstate cannot hide a
    warning.  Noise and its inverse run stage by stage at every rho; the
    Fourier kernels run as group products of the pinned size in float64,
    and of at least that size in longdouble.  The inverse at rho = 1e-200
    and 1e-160 still maps the constant one to [1, 0]."""
    uncached = lattice._group_matrices.__wrapped__
    for rho in (1e-160, 1e-200, 1e-300):
        for kernel in (noise_kernel(rho), inverse_noise_kernel(rho)):
            for dtype in (np.float64, np.longdouble):
                assert lattice._groups(kernel, np.dtype(dtype)) is None, (kernel, dtype)
            # asked directly, the rule meets inf*0 here and gives K alone
            assert len(uncached(*kernel.ravel().tolist(), np.dtype(np.float64))) == 1
    for p, sizes in EXTREME_GROUPS.items():
        for kernel, g in zip((analysis_kernel(p), synthesis_kernel(p)), sizes):
            assert len(uncached(*kernel.ravel().tolist(), np.dtype(np.float64))) == g, (p, kernel)
            assert len(uncached(*kernel.ravel().tolist(), np.dtype(np.longdouble))) >= g
    for rho in (1e-200, 1e-160):
        assert same_bits(invert_downward(np.ones(2), rho), np.array([1.0, 0.0]))


def test_stagewise_kernels_build_no_group_matrices():
    """The noise kernel, its inverse and the three subset-sum kernels are
    told apart from their entries alone: cycling 40 values of rho, more
    than the cache holds, never reaches the cached Kronecker products."""
    before = lattice._group_matrices.cache_info()
    row = np.random.default_rng(4).random(16)
    for rho in np.linspace(0.05, 0.95, 40):
        invert_downward(downward_noise_table(row, 4, rho), rho)
    for run in (zeta_subsets, mobius_subsets, zeta_supersets):
        run(row.copy(), 4)
    assert lattice._group_matrices.cache_info() == before


@pytest.mark.parametrize("shape", [(1 << 10,), (64, 256), (1 << 20,)])
def test_kernels_beside_the_difference_forms_keep_their_bits(shape):
    """Kernels that leave one half of each stage as it is run stage by
    stage whatever their other entries, bit for bit as the stagewise
    reference, compared as uint64 so that infinities and NaN count:
    inverse_noise_kernel(1e-200) is [[1, 0], [-1e200, 1e200]],
    noise_kernel(1e-300) is [[1, 0], [1, 1e-300]], and the three unit
    kernels.  2^20 takes the staged upper run."""
    n = shape[-1].bit_length() - 1
    base = np.random.default_rng(n).standard_normal(shape)
    base[..., ::5] = 0.0
    kernels = {"inverse-1e-200": inverse_noise_kernel(1e-200),
               "noise-1e-300": noise_kernel(1e-300),
               **{k: KERNELS[k] for k in ("zeta", "mobius", "supersets")}}
    with np.errstate(over="ignore", invalid="ignore"):
        for name, kernel in kernels.items():
            got = apply_kernel(base.copy(), n, kernel).view(np.uint64)
            expect = stagewise_kernel(base.copy(), n, kernel).view(np.uint64)
            assert np.array_equal(got, expect), name


@pytest.mark.parametrize("shape", [(1 << 10,), (1 << 17,), (64, 256)])
def test_multiply_form_keeps_nan_payloads(shape):
    """The multiply-form stages give each NaN the payload of the plain
    expressions k00*a + k01*b and k10*a + k11*b, products added in that
    order.  same_bits cannot show it, since NaN never compares equal, so
    the bits are compared as uint64.  A tenth of the entries start as
    quiet NaNs with distinct payloads, so many stages add two NaNs.  The
    unit kernels are left out: their adds may return the other operand's
    payload (see the lattice module docstring)."""
    n = shape[-1].bit_length() - 1
    rng = np.random.default_rng(n)
    base = rng.standard_normal(shape)
    nan = rng.random(shape) < 0.1
    payloads = rng.integers(1, 1 << 51, np.count_nonzero(nan), dtype=np.uint64)
    base.view(np.uint64)[nan] = np.uint64(0x7FF8 << 48) | payloads
    for name in ("noise", "inverse", "inverse-half"):
        got = apply_kernel(base.copy(), n, KERNELS[name]).view(np.uint64)
        expect = stagewise_kernel(base.copy(), n, KERNELS[name]).view(np.uint64)
        assert np.array_equal(got, expect), name


@pytest.mark.parametrize("n", range(7))
def test_zeta_supersets_matches_superset_sums(n):
    """Integer-valued inputs, so every sum is exact whatever its order."""
    values = np.random.default_rng(n).integers(-4, 5, (3, 1 << n)).astype(np.float64)
    expect = np.zeros_like(values)
    for x in range(1 << n):
        for y in range(1 << n):
            if x & y == x:
                expect[:, x] += values[:, y]
    assert np.array_equal(zeta_supersets(values, n), expect)


def test_zeta_supersets_leaves_the_upper_half():
    """The x_i = 1 half of a stage is not recomputed as 0*a + b: an
    infinite entry reaches only its subsets and the top point keeps -0.0."""
    assert same_bits(zeta_supersets(np.array([inf, 0.0]), 1), np.array([inf, 0.0]))
    got = zeta_supersets(np.array([inf, 0.0, 1.0, 0.0]), 2)
    assert same_bits(got, np.array([inf, 0.0, 1.0, 0.0]))
    got = zeta_supersets(np.array([2.0, 1.0, 0.5, -0.0]), 2)
    assert same_bits(got, np.array([3.5, 1.0, 0.5, -0.0]))
    # Tables that take the transposed low stages.  Integer entries make every
    # finite sum exact: expected are the finite sums, with inf on the subsets
    # of each row's infinite point and -0.0 kept at the top point.
    for shape in ((1 << 14,), (64, 256)):
        n = shape[-1].bit_length() - 1
        rng = np.random.default_rng(n)
        values = rng.integers(-4, 5, shape).astype(np.float64).reshape(-1, 1 << n)
        values[:, -1] = 0.0
        expect = stagewise_kernel(values.copy(), n, KERNELS["supersets"])
        codes = point_codes(n)
        for row, x in enumerate(rng.integers(0, (1 << n) - 1, len(values))):
            values[row, x] = inf
            values[row, -1] = -0.0
            expect[row, codes & ~x == 0] = inf
            expect[row, -1] = -0.0
        got = zeta_supersets(values.reshape(shape), n)
        assert same_bits(got, expect.reshape(shape)), shape


def test_subset_zeta_and_mobius_keep_signed_zero_and_inf():
    """Hand-worked unit stages: -0.0 + -0.0 is -0.0, -0.0 - -0.0 is +0.0,
    and an infinite entry reaches its supersets with the Moebius sign."""
    assert same_bits(zeta_subsets(np.array([-0.0, -0.0]), 1), np.array([-0.0, -0.0]))
    assert same_bits(mobius_subsets(np.array([-0.0, -0.0]), 1), np.array([-0.0, 0.0]))
    got = zeta_subsets(np.array([-0.0, inf, 1.0, 0.5]), 2)
    assert same_bits(got, np.array([-0.0, inf, 1.0, inf]))
    got = mobius_subsets(np.array([inf, 1.0, -0.0, 0.5]), 2)
    assert same_bits(got, np.array([inf, -inf, -inf, inf]))
    # 2*b - a, not the b - a of the Moebius stage
    got = apply_kernel(np.array([1.0, 1.0]), 1, KERNELS["inverse-half"])
    assert same_bits(got, np.array([1.0, 1.0]))


@pytest.mark.parametrize("shape", [(1 << 8,), (1 << 14,), (64, 256)])
def test_unit_stages_match_the_multiply_form_on_edge_bits(shape):
    """Subset zeta and Moebius run each stage as one in-place add or
    subtract; on -0.0 and infinite entries that gives the bits of the
    multiply form k10*a + k11*b, on the in-place path (n = 8) and on the
    transposed low stages (n = 14 and a batch of n = 8 rows).  The first
    quarter of each row holds only signed zeros, so zero signs reach the
    output; each row's one infinity, +inf or -inf, never meets another in a
    stage, so no NaN arises.  The inverse noise kernel at rho = 1/2 runs on
    the same tables and keeps the multiply form."""
    n = shape[-1].bit_length() - 1
    rng = np.random.default_rng(n)
    values = rng.integers(-4, 5, shape).astype(np.float64).reshape(-1, 1 << n)
    values[:, ::3] = -0.0
    quarter = 1 << (n - 2)
    values[:, :quarter] = rng.choice([0.0, -0.0], (len(values), quarter))
    for row, x in enumerate(rng.integers(quarter, 1 << n, len(values))):
        values[row, x] = -inf if row % 2 else inf
    values = values.reshape(shape)
    runs = {"zeta": zeta_subsets, "mobius": mobius_subsets,
            "inverse-half": lambda v, n: apply_kernel(v, n, KERNELS["inverse-half"])}
    for name, run in runs.items():
        expect = stagewise_kernel(values.copy(), n, KERNELS[name])
        assert same_bits(run(values.copy(), n), expect), name


@pytest.mark.parametrize("values, n", [
    (np.arange(32.0).reshape(4, 8)[:, :4], 2),
    (np.asfortranarray(np.random.default_rng(3).random((8, 64))), 6),
    (np.random.default_rng(4).random((3, 1 << 17))[:, ::2], 16),
])
def test_apply_kernel_non_contiguous_in_place(values, n):
    expect = apply_kernel(np.ascontiguousarray(values), n, KERNELS["analysis"])
    out = apply_kernel(values, n, KERNELS["analysis"])
    assert out is values
    assert same_bits(values, expect)


def test_apply_kernel_rejects_a_missing_coordinate():
    with pytest.raises(ValueError, match="coordinate 3"):
        apply_kernel(np.zeros((2, 12)), 4, KERNELS["noise"])


@pytest.mark.parametrize("coords", [[3, 2, 1, 0], [0, 1, 1, 2], [0, 2, 3], [1, 0]],
                         ids=["descending", "repeated", "non-adjacent", "swapped"])
def test_apply_kernel_rejects_stages_outside_one_ascending_run(coords):
    """coords is one run of consecutive ascending coordinates; any other
    list raises before a stage runs, for either form, and the table is left
    as it was."""
    for kernel in (KERNELS["noise"], KERNELS["analysis"]):
        values = np.arange(16.0)
        with pytest.raises(ValueError, match="not consecutive ascending"):
            apply_kernel(values, 4, kernel, coords)
        assert np.array_equal(values, np.arange(16.0))


def test_apply_kernel_transient_memory_stays_tile_sized():
    """At n = 20 the whole-table passes peaked at ~12 MiB of temporaries;
    tiles, with the transposed copy of one tile, keep the peak under 2 MiB,
    also for a batch of n = 4 rows."""
    for shape in ((1 << 20,), (4096, 16)):
        n = shape[-1].bit_length() - 1
        values = np.random.default_rng(5).random(shape)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            for kernel in (KERNELS["analysis"], KERNELS["zeta"]):
                apply_kernel(values, n, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, shape


def test_small_tables_and_single_stages_make_no_transposed_copy(monkeypatch):
    """A 1-D table at n <= 8 and a single-stage coords=[i] call read every
    stage's halves from the table itself; the copy would cost more than the
    short stages it speeds up.  A wrapper around the stage update records
    the halves each stage is given, and a full pass at n = 16 shows it sees
    the copy."""
    halves = []
    stage_update = lattice._stage_update

    def recorded(kernel, scratch):
        update = stage_update(kernel, scratch)

        def record(a, b):
            halves.extend((a, b))
            update(a, b)
        return record

    monkeypatch.setattr(lattice, "_stage_update", recorded)

    def copied(values, n, kernel, coords=None):
        halves.clear()
        apply_kernel(values, n, kernel, coords)
        assert halves
        return sum(not np.may_share_memory(h, values) for h in halves)

    big = np.ones(1 << 16)
    kernel = np.array([[1.0, 0.0], [0.5, 1.0]])
    for n in range(1, 9):
        assert copied(np.ones(1 << n), n, kernel) == 0
    for i in range(16):
        assert copied(big, 16, kernel, [i]) == 0
    assert copied(big, 16, kernel) > 0
