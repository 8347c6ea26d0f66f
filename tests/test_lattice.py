import os
import re
import subprocess
import sys
import tracemalloc
from itertools import accumulate
from math import inf
from pathlib import Path

import numpy as np
import pytest

from polyspec import fourier, lattice, noise
from polyspec.fourier import (analysis_kernel, synthesis_kernel, synthesize_table,
                              transform_table)
from polyspec.lattice import (_by_level, _level_blocks, apply_kernel, coordinate_pairs,
                              measure_weights, mobius_subsets, point_codes,
                              popcounts, subcube_codes, zeta_subsets)
from polyspec.noise import (downward_noise_table, inverse_noise_kernel, invert_downward,
                            noise_kernel)
from oracles import bit, stagewise_kernel, tiled_kernel, zeta_supersets

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


@pytest.mark.parametrize("n", range(21))
def test_level_blocks_are_slices_of_by_level(n):
    """Every block of _level_blocks equals its slice of _by_level, in values,
    dtype and shape, for 1-D and stacked tables, float and bool, and the
    parts tile the last axis in order; tables from n = 15 up (2^14 points a
    block) come in more than one block.  Both read one cached row index per
    n."""
    rng = np.random.default_rng(n)
    count = max(1, 1 << n >> 14)
    for values in (rng.standard_normal(n + 1), rng.standard_normal((2, 3, n + 1)),
                   rng.random(n + 1) < 0.5, rng.random((3, n + 1)) < 0.5):
        whole = _by_level(values, n)
        blocks = list(_level_blocks(values, n))
        assert len(blocks) == count
        assert [b.start for b, _ in blocks] == [k << 14 for k in range(count)]
        for part, block in blocks:
            expect = whole[..., part]
            assert block.dtype == expect.dtype and block.shape == expect.shape
            assert np.array_equal(block, expect)
    assert lattice._level_rows(n) is lattice._level_rows(n)


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
    # [[1, 0], [-1, 2]]: integer entries, one away from Moebius
    "inverse-half": inverse_noise_kernel(0.5),
    # neither triangular nor a Fourier kernel
    "general": np.array([[0.6, 0.4], [0.25, 0.5]]),
}
# the kernels with no zero entry, which group in every dtype
FULL = ("analysis", "synthesis", "general")


def stage_orders(n: int) -> dict:
    """Runs of ascending coordinates that cross group and tile boundaries
    for the last axis 2^n; test_staged_upper_run_matches_stagewise_bits
    adds 14..19 at n = 20."""
    return {
        "default": None,
        "ascending": list(range(1, n)),
        # at n = 17 the groups from coordinate 2 are cut into column slices
        "from-2": list(range(2, n)),
    }


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    # array_equal identifies -0.0 with 0.0, so signs are compared too
    return (x.dtype == y.dtype and np.array_equal(x, y)
            and np.array_equal(np.signbit(x), np.signbit(y)))


def envelope(values: np.ndarray, n: int, kernel: np.ndarray, coords) -> np.ndarray:
    """|K| applied stage by stage to |values|, in float64."""
    return stagewise_kernel(np.abs(values).astype(np.float64), n, np.abs(kernel), coords)


def group_error_bound(values: np.ndarray, n: int, kernel: np.ndarray, coords,
                      env: np.ndarray | None = None) -> np.ndarray:
    """Entrywise first-order bound on the gap between the group products
    and the stagewise kernel run in longdouble: 19/4 roundings per stage
    (see fourier.transform_table; any grouped kernel, since the bound is
    taken on the envelope |K| applied to |values|) and the reference's 3."""
    stages = n if coords is None else len(coords)
    u, u_ref = np.finfo(values.dtype).eps / 2, np.finfo(np.longdouble).eps / 2
    if env is None:
        env = envelope(values, n, kernel, coords)
    return stages * (4.75 * u + 3 * u_ref) * env


def groups(kernel: np.ndarray, dtype) -> list | None:
    """The group matrices apply_kernel runs a kernel with, None for one it
    runs stage by stage."""
    return lattice._group_matrices(*kernel.ravel().tolist(), np.dtype(dtype))


def assert_kernel_result(got, base, n, name, coords, note, exact, env=None):
    """A kernel that runs as group products (every kernel in float64, and
    the ones with no zero entry in longdouble) within group_error_bound of
    ``exact``, the stagewise kernel run in longdouble; any other kernel
    with the bits of ``exact``."""
    kernel = KERNELS[name]
    grouped = groups(kernel, got.dtype) is not None
    assert grouped == (got.dtype == np.float64 or name in FULL), note
    if grouped:
        bound = group_error_bound(base, n, kernel, coords, env)
        assert np.all(np.abs(got - exact) <= bound), note
    else:
        assert same_bits(got, exact), note


@pytest.fixture(scope="module")
def references():
    """Longdouble stagewise results and envelopes of
    test_apply_kernel_matches_stagewise_bits, built once per (kernel,
    shape, stage order) and shared by the float64 and longdouble cases of
    a shape, which run one after the other; only one shape's are kept."""
    return {}


def reference(cache: dict, base: np.ndarray, n: int, name: str, order: str, coords):
    key = (base.shape, name, order)
    if key not in cache:
        if any(k[0] != base.shape for k in cache):
            cache.clear()
        kernel = KERNELS[name]
        cache[key] = (stagewise_kernel(base.astype(np.longdouble), n, kernel, coords),
                      envelope(base, n, kernel, coords))
    return cache[key]


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("shape", [(1 << 15,), (1 << 16,), (1 << 17,), (1 << 18,),
                                   (7, 16), (1024, 64), (3, 1 << 17),
                                   (4096, 16), (256, 4096)])
def test_apply_kernel_matches_stagewise_bits(shape, dtype, references):
    """Every kernel, in every run of stages and on both sides of the
    one-tile size 2^16, stays within its error bound of the stagewise
    kernel run in longdouble where it runs as group products; a kernel
    with a zero entry runs stage by stage in longdouble and keeps the
    stagewise bits there."""
    n = shape[-1].bit_length() - 1
    base = np.random.default_rng(n).standard_normal(shape)
    base[..., ::5] = 0.0
    base = base.astype(dtype)
    for name, kernel in KERNELS.items():
        for order, coords in stage_orders(n).items():
            exact, env = reference(references, base, n, name, order, coords)
            got = base.copy()
            out = apply_kernel(got, n, kernel, coords)
            assert out is got
            assert_kernel_result(got, base, n, name, coords, (name, order), exact, env)


@pytest.mark.parametrize("coords", [None, list(range(14, 20))], ids=["default", "14-19"])
def test_staged_upper_run_matches_stagewise_bits(coords):
    """At n = 20 the groups above coordinate 16 are cut into column tiles
    of 4096 contiguous elements or fewer; every kernel stays within its
    error bound there.  float64 only, since a longdouble engine run at
    2^20 costs seconds."""
    n = 20
    base = np.random.default_rng(n).standard_normal(1 << n)
    base[::5] = 0.0
    for name, kernel in KERNELS.items():
        got = apply_kernel(base.copy(), n, kernel, coords)
        exact = stagewise_kernel(base.astype(np.longdouble), n, kernel, coords)
        assert_kernel_result(got, base, n, name, coords, name, exact)


def kronecker_groups(kernel: np.ndarray, dtype):
    """The form rule by its definition: K(x)...(x)K through np.kron, and
    the largest g <= 4 whose matrix has exactly nnz(K)^g nonzero entries,
    each a normal number; None where a kernel with a zero entry runs stage
    by stage."""
    k = kernel.astype(dtype)
    nnz = np.count_nonzero(k)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        mats = list(accumulate([k] * 4, np.kron))
        g = 0
        for m in mats:
            a = np.abs(m[m != 0])
            if a.size != nnz ** (g + 1) or not np.all((np.finfo(dtype).tiny <= a) & (a < inf)):
                break
            g += 1
    if nnz < 4 and (g < 2 or np.dtype(dtype) == np.longdouble):
        return None
    return mats[:max(g, 1)]


def test_group_rule_matches_the_kronecker_definition():
    """The form rule decides g from the smallest and largest entry of K,
    before any matrix is built; on noise, its inverse and the Fourier
    kernels over 60 parameters from 1e-320 to 1/2, the unit kernels, a swap
    and kernels with a subnormal or a large entry, in float64 and
    longdouble, it gives the group size and the matrix bits that the
    definition gives through np.kron.  Longdouble is compared by value,
    since its padding bytes are not set."""
    kernels = [KERNELS[name] for name in ("zeta", "mobius", "supersets", "general")]
    kernels += [np.array(k) for k in ([[0.0, 1.0], [1.0, 0.0]], [[1e-310, 1.0], [1.0, 1.0]],
                                      [[1e80, 0.0], [1.0, 1e80]], [[1.0, 0.0], [1.0, 5e-324]])]
    for r in np.logspace(-320, np.log10(0.5), 60):
        kernels += [noise_kernel(r), analysis_kernel(r), synthesis_kernel(r)]
        if r > 1e-300:
            kernels.append(inverse_noise_kernel(r))
    rule = lattice._group_matrices.__wrapped__
    sizes = set()
    for kernel in kernels:
        for dtype in (np.float64, np.longdouble):
            got = rule(*kernel.ravel().tolist(), np.dtype(dtype))
            expect = kronecker_groups(kernel, dtype)
            note = (kernel.tolist(), dtype)
            assert (got is None) == (expect is None), note
            if got is not None:
                assert len(got) == len(expect), note
                assert all(same_bits(a, b) for a, b in zip(got, expect)), note
            sizes.add(None if got is None else len(got))
    assert sizes == {None, 1, 2, 3, 4}


@pytest.mark.parametrize("shape", [(7, 16), (65536, 16), (256, 4096), (3, 1 << 17)])
def test_stacked_fourier_rows_keep_the_bits_of_their_unstacked_calls(shape):
    """The grouped form's matrix products give each element the same bits
    whatever the batch shape and the element's place in it: every row of a
    stacked transform and synthesis has the bits of its own call, and so
    does every row of noise, its inverse and the three subset sums (of the
    65536 rows, every 37th, which meets each of the 128 places in an
    operand).  Compared as uint64, so -0.0 counts."""
    n = shape[-1].bit_length() - 1
    base = np.random.default_rng(n).standard_normal(shape)
    for run, p in ((transform_table, 0.3), (synthesize_table, 0.7)):
        stacked = run(base, n, p).view(np.uint64)
        for row in range(shape[0]):
            assert np.array_equal(run(base[row], n, p).view(np.uint64), stacked[row]), \
                (run.__name__, row)
    runs = {"noise": lambda v: downward_noise_table(v, n, 0.3),
            "inverse": lambda v: invert_downward(v, 0.4),
            **{f.__name__: (lambda v, f=f: f(v.copy(), n))
               for f in (zeta_subsets, mobius_subsets, zeta_supersets)}}
    for name, run in runs.items():
        stacked = run(base).view(np.uint64)
        for row in range(0, shape[0], 37 if shape[0] > 4096 else 1):
            assert np.array_equal(run(base[row]).view(np.uint64), stacked[row]), (name, row)


def test_fourier_bits_do_not_depend_on_blas_threads():
    """The matrix products go through BLAS; with one and with two BLAS
    threads an n = 20 table and a (256, 4096) batch have the same bytes
    under the transform, noise, its inverse, the two subset sums and the
    weighted superset sums behind the exact defect and the AND distance,
    since each product is small enough to run on one thread."""
    script = ("import hashlib, numpy as np\n"
              "from polyspec.fourier import transform_table\n"
              "from polyspec.lattice import apply_kernel, mobius_subsets, zeta_subsets\n"
              "from polyspec.noise import downward_noise_table, invert_downward\n"
              "rng = np.random.default_rng(7)\n"
              "h = hashlib.sha256()\n"
              "for t, n in ((rng.random(1 << 20), 20), (rng.random((256, 4096)), 12)):\n"
              "    h.update(transform_table(t, n, 0.3).tobytes())\n"
              "    h.update(downward_noise_table(t, n, 0.3).tobytes())\n"
              "    h.update(invert_downward(t, 0.4).tobytes())\n"
              "    for f in (zeta_subsets, mobius_subsets):\n"
              "        h.update(f(t.copy(), n).tobytes())\n"
              "    kernel = np.array([[0.7, 0.3], [0.0, 0.3]])\n"
              "    h.update(apply_kernel(t.copy(), n, kernel).tobytes())\n"
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
    and synthesis stay entrywise within group_error_bound plus the float64
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
            assert groups(kernel, got.dtype) is not None
            exact = stagewise_kernel(base.astype(np.longdouble), n, kernel)
            own = np.abs(stagewise_kernel(base.copy(), n, kernel) - exact)
            bound = group_error_bound(base, n, kernel, None) + own
            assert np.all(np.abs(got - exact) <= bound), kernel


# the group size the form rule picks in float64: for noise and its inverse
# (None: stage by stage), and for analysis and synthesis
NOISE_GROUPS = {0.5: (4, 4), 1e-70: (4, 4), 1e-100: (3, 3), 1e-150: (2, 2),
                1e-160: (None, None), 1e-200: (None, None), 1e-300: (None, None)}
EXTREME_GROUPS = {1e-100: (3, 4), 1e-160: (1, 3), 1e-200: (1, 3), 1e-300: (1, 2),
                  5e-324: (1, 1), 1 - 1e-16: (4, 4)}


def test_group_rule_decides_extreme_kernels_without_warnings():
    """The form rule decides every library kernel at extreme parameters
    with no RuntimeWarning (the test configuration makes one an error),
    though a product of entries overflows.  The cache is bypassed, so an
    earlier call under np.errstate cannot hide a warning.  Noise and its
    inverse group down to rho = 1e-150 and run stage by stage below, and
    always in longdouble; the Fourier kernels run as group products of the
    pinned size in float64, and of at least that size in longdouble.  The
    inverse at rho = 1e-200 and 1e-160 still maps the constant one to
    [1, 0]."""
    rule = lattice._group_matrices.__wrapped__

    def size(kernel, dtype):
        mats = rule(*kernel.ravel().tolist(), np.dtype(dtype))
        return None if mats is None else len(mats)

    for rho, sizes in NOISE_GROUPS.items():
        for kernel, g in zip((noise_kernel(rho), inverse_noise_kernel(rho)), sizes):
            assert size(kernel, np.float64) == g, (rho, kernel)
            assert size(kernel, np.longdouble) is None, (rho, kernel)
    for p, sizes in EXTREME_GROUPS.items():
        for kernel, g in zip((analysis_kernel(p), synthesis_kernel(p)), sizes):
            assert size(kernel, np.float64) == g, (p, kernel)
            assert size(kernel, np.longdouble) >= g
    for rho in (1e-200, 1e-160):
        assert same_bits(invert_downward(np.ones(2), rho), np.array([1.0, 0.0]))


def test_stagewise_kernels_build_no_group_matrices(monkeypatch):
    """A kernel that runs stage by stage is told apart before any Kronecker
    product: with lattice._kron recording its calls, the uncached rule
    builds no matrix for noise and its inverse at rho = 1e-160, 1e-200 and
    1e-300 in float64, nor for any kernel with a zero entry in longdouble,
    and g - 1 products for a kernel it groups."""
    calls = []
    kron = lattice._kron
    monkeypatch.setattr(lattice, "_kron", lambda m, k: calls.append(len(m)) or kron(m, k))
    rule = lattice._group_matrices.__wrapped__
    stagewise = [(k, np.float64) for rho in (1e-160, 1e-200, 1e-300)
                 for k in (noise_kernel(rho), inverse_noise_kernel(rho))]
    stagewise += [(KERNELS[name], np.longdouble) for name in KERNELS if name not in FULL]
    for kernel, dtype in stagewise:
        assert rule(*kernel.ravel().tolist(), np.dtype(dtype)) is None, (kernel, dtype)
    assert calls == []
    for kernel, g in ((noise_kernel(1e-100), 3), (KERNELS["zeta"], 4)):
        assert len(rule(*kernel.ravel().tolist(), np.dtype(np.float64))) == g
    assert calls == [2, 4, 2, 4, 8]


@pytest.mark.parametrize("shape", [(1 << 10,), (64, 256), (1 << 20,)])
def test_kernels_beside_the_difference_forms_keep_their_bits(shape):
    """Kernels that run stage by stage keep the stagewise reference's bits,
    compared as uint64 (or by value and sign in longdouble) so that
    infinities and NaN count: in float64 inverse_noise_kernel(1e-200),
    [[1, 0], [-1e200, 1e200]], and noise_kernel(1e-300), [[1, 0], [1,
    1e-300]], whose K(x)K leaves the normal range; in longdouble the three
    unit kernels and noise at rho = 1/2.  2^20 takes whole-table stages."""
    n = shape[-1].bit_length() - 1
    base = np.random.default_rng(n).standard_normal(shape)
    base[..., ::5] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for name, kernel in (("inverse-1e-200", inverse_noise_kernel(1e-200)),
                             ("noise-1e-300", noise_kernel(1e-300))):
            got = apply_kernel(base.copy(), n, kernel).view(np.uint64)
            expect = stagewise_kernel(base.copy(), n, kernel).view(np.uint64)
            assert np.array_equal(got, expect), name
    if n < 20:
        wide = base.astype(np.longdouble)
        for name in ("zeta", "mobius", "supersets", "inverse-half"):
            got = apply_kernel(wide.copy(), n, KERNELS[name])
            assert same_bits(got, stagewise_kernel(wide.copy(), n, KERNELS[name])), name


@pytest.mark.parametrize("shape", [(1 << 12,), (64, 256), (1 << 16,)])
def test_integer_and_dyadic_tables_come_out_exact(shape):
    """Where every value on the way is representable the group products are
    exact, whatever their summation order: subset zeta, Moebius and
    superset zeta on 0/1 tables and on integers below 2^20 (absolute sums
    below 2^53), noise at rho = 1/2 on 0/1 tables and on multiples of 1/8
    below 4, and its inverse at rho = 1/2 on the noise of a 0/1 table,
    which gives the table back."""
    n = shape[-1].bit_length() - 1
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, shape).astype(np.float64)
    ints = rng.integers(-(1 << 20), 1 << 20, shape).astype(np.float64)
    eighths = rng.integers(-31, 32, shape) / 8.0
    for name in ("zeta", "mobius", "supersets"):
        for table in (bits, ints):
            expect = stagewise_kernel(table.copy(), n, KERNELS[name])
            assert np.array_equal(apply_kernel(table.copy(), n, KERNELS[name]), expect), name
    for table in (bits, eighths):
        noisy = downward_noise_table(table, n, 0.5)
        assert np.array_equal(noisy, stagewise_kernel(table.copy(), n, noise_kernel(0.5)))
    assert np.array_equal(invert_downward(downward_noise_table(bits, n, 0.5), 0.5), bits)


def assert_non_finite_covers(got: np.ndarray, ref: np.ndarray, note) -> None:
    """got is non-finite at least wherever ref is; inf against NaN, and
    which further entries of a group it spreads to, are not specified."""
    assert np.all(~np.isfinite(got)[~np.isfinite(ref)]), note


@pytest.mark.parametrize("shape", [(1 << 10,), (1 << 17,), (64, 256)])
def test_multiply_form_keeps_nan_payloads(shape):
    """The stage-by-stage form gives each NaN the payload of the plain
    expressions k10*a + k11*b, products added in that order, compared as
    uint64 since NaN never compares equal: noise at rho = 1e-300 and its
    inverse at rho = 1e-200.  A tenth of the entries start as quiet NaNs
    with distinct payloads, so many stages add two NaNs.  The grouped
    noise, inverse and inverse-half kernels give NaN or inf at least
    wherever the stagewise reference does."""
    n = shape[-1].bit_length() - 1
    rng = np.random.default_rng(n)
    base = rng.standard_normal(shape)
    nan = rng.random(shape) < 0.1
    payloads = rng.integers(1, 1 << 51, np.count_nonzero(nan), dtype=np.uint64)
    base.view(np.uint64)[nan] = np.uint64(0x7FF8 << 48) | payloads
    with np.errstate(over="ignore", invalid="ignore"):
        for kernel in (noise_kernel(1e-300), inverse_noise_kernel(1e-200)):
            got = apply_kernel(base.copy(), n, kernel).view(np.uint64)
            expect = stagewise_kernel(base.copy(), n, kernel).view(np.uint64)
            assert np.array_equal(got, expect), kernel
        for name in ("noise", "inverse", "inverse-half"):
            got = apply_kernel(base.copy(), n, KERNELS[name])
            assert_non_finite_covers(got, stagewise_kernel(base.copy(), n, KERNELS[name]), name)


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
    """On a finite table the x_i = 1 half of a stage keeps its values, as
    0*a + b, so out(top) = in(top); an infinite entry makes at least its
    subsets non-finite.  Integer entries make every finite sum exact."""
    for dtype in (np.float64, np.longdouble):
        got = zeta_supersets(np.array([2.0, 1.0, 0.5, -0.0], dtype=dtype), 2)
        assert np.array_equal(got, np.array([3.5, 1.0, 0.5, 0.0])), dtype
    for shape in ((1 << 14,), (64, 256)):
        n = shape[-1].bit_length() - 1
        rng = np.random.default_rng(n)
        values = rng.integers(-4, 5, shape).astype(np.float64).reshape(-1, 1 << n)
        expect = stagewise_kernel(values.copy(), n, KERNELS["supersets"])
        got = zeta_supersets(values.copy().reshape(shape), n).reshape(values.shape)
        assert np.array_equal(got, expect), shape
        assert np.array_equal(got[:, -1], values[:, -1]), shape
        codes = point_codes(n)
        for row, x in enumerate(rng.integers(0, (1 << n) - 1, len(values))):
            values[row, x] = inf
            expect[row, codes & ~x == 0] = inf
        with np.errstate(invalid="ignore"):
            got = zeta_supersets(values.reshape(shape), n)
        assert_non_finite_covers(got.reshape(expect.shape), expect, shape)


def test_subset_zeta_and_mobius_keep_signed_zero_and_inf():
    """Hand-worked stages, run stage by stage in longdouble with these
    bits: -0.0 + -0.0 is -0.0, -0.0 - -0.0 is +0.0, and an infinite entry
    reaches its supersets with the Moebius sign.  In float64, as group
    products, the same values come out, with NaN or inf at least where the
    infinities are.  The inverse noise kernel at rho = 1/2 computes 2*b - a,
    not the b - a of the Moebius stage."""
    cases = ((zeta_subsets, [-0.0, -0.0], [-0.0, -0.0]),
             (mobius_subsets, [-0.0, -0.0], [-0.0, 0.0]),
             (zeta_subsets, [-0.0, inf, 1.0, 0.5], [-0.0, inf, 1.0, inf]),
             (mobius_subsets, [inf, 1.0, -0.0, 0.5], [inf, -inf, -inf, inf]))
    for run, values, expect in cases:
        n = len(values).bit_length() - 1
        wide = np.array(values, dtype=np.longdouble)
        assert same_bits(run(wide, n), np.array(expect, dtype=np.longdouble)), values
        with np.errstate(invalid="ignore"):
            got = run(np.array(values), n)
        expect = np.array(expect)
        assert_non_finite_covers(got, expect, values)
        assert np.array_equal(got[np.isfinite(got)], expect[np.isfinite(got)]), values
    for dtype in (np.float64, np.longdouble):
        got = apply_kernel(np.array([1.0, 1.0], dtype=dtype), 1, KERNELS["inverse-half"])
        assert same_bits(got, np.array([1.0, 1.0], dtype=dtype))


@pytest.mark.parametrize("shape", [(1 << 8,), (1 << 14,), (64, 256)])
def test_unit_stages_match_the_multiply_form_on_edge_bits(shape):
    """Subset zeta, Moebius and the inverse noise kernel at rho = 1/2 on
    integer tables with signed zeros and one infinity per row, +inf or
    -inf: stage by stage in longdouble they give the stagewise reference's
    bits, zero signs and infinities included; as group products in float64
    they give NaN or inf at least where the reference does, and the
    reference's values wherever they are finite.  The first quarter of each
    row holds only signed zeros, so zero signs reach the output."""
    n = shape[-1].bit_length() - 1
    rng = np.random.default_rng(n)
    values = rng.integers(-4, 5, shape).astype(np.float64).reshape(-1, 1 << n)
    values[:, ::3] = -0.0
    quarter = 1 << (n - 2)
    values[:, :quarter] = rng.choice([0.0, -0.0], (len(values), quarter))
    for row, x in enumerate(rng.integers(quarter, 1 << n, len(values))):
        values[row, x] = -inf if row % 2 else inf
    values = values.reshape(shape)
    for name in ("zeta", "mobius", "inverse-half"):
        wide = values.astype(np.longdouble)
        expect = stagewise_kernel(wide.copy(), n, KERNELS[name])
        assert same_bits(apply_kernel(wide, n, KERNELS[name]), expect), name
        with np.errstate(invalid="ignore"):
            got = apply_kernel(values.copy(), n, KERNELS[name])
        expect = expect.astype(np.float64)
        assert_non_finite_covers(got, expect, name)
        finite = np.isfinite(got)
        assert np.array_equal(got[finite], expect[finite]), name


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


# the kernels behind every fused copy, and noise at rho = 1e-300, which runs
# stage by stage
FUSED = {**{name: KERNELS[name] for name in
            ("noise", "inverse", "analysis", "synthesis", "zeta", "mobius")},
         "weighted-supersets": np.array([[0.7, 0.3], [0.0, 0.3]]),
         "noise-1e-300": noise_kernel(1e-300)}
# padded rows at n = 0..6 and (3, 64), a partial last chunk at (20, 4096),
# chunks inside a row at (3, 2^17), and groups past coordinate 16 at n = 17
# and 20; longdouble on the shapes it runs in milliseconds
FUSED_CASES = ([((1 << n,), dtype) for n in range(7)
                for dtype in (np.bool_, np.uint8, np.float32, np.float64, np.longdouble)]
               + [((3, 64), np.longdouble), ((20, 4096), np.longdouble)]
               + [(shape, dtype) for shape in ((3, 64), (20, 4096), (3, 1 << 17),
                                               (1 << 17,), (1 << 20,))
                  for dtype in (np.bool_, np.uint8, np.float32, np.float64)])


def fused_source(shape, dtype) -> np.ndarray:
    """0/1 entries for bool and uint8; otherwise normal ones with a -0.0
    and a +0.0 every seventh entry, so that signs of zeros are compared."""
    rng = np.random.default_rng(int(np.prod(shape)))
    if np.dtype(dtype).kind in "bu":
        return (rng.random(shape) < 0.4).astype(dtype)
    values = rng.standard_normal(shape)
    values[..., ::7], values[..., 3::7] = -0.0, 0.0
    return values.astype(dtype)


@pytest.mark.parametrize("shape, dtype", FUSED_CASES,
                         ids=[f"{s}-{np.dtype(d).name}" for s, d in FUSED_CASES])
def test_fused_copy_keeps_the_bits_of_the_tiled_working_copy(shape, dtype):
    """apply_kernel(..., copy=True) casts each chunk into its first group on
    the way; every kernel gives the dtype and bits, signs of zeros included,
    of the old working copy run group by group over the whole table
    (oracles.tiled_kernel), and the source is left as it was."""
    n = shape[-1].bit_length() - 1
    base = fused_source(shape, dtype)
    before = base.copy()
    for name, kernel in FUSED.items():
        with np.errstate(over="ignore", invalid="ignore"):
            got = apply_kernel(base, n, kernel, copy=True)
            want = tiled_kernel(base, n, kernel)
        assert same_bits(got, want) and got.flags.c_contiguous, name
        assert same_bits(base, before), name


@pytest.mark.parametrize("coords", [None, list(range(2, 17))], ids=["all", "2-16"])
def test_fused_copy_reads_non_contiguous_and_read_only_sources(coords):
    """A strided or Fortran-ordered source, read-only or not, gives the bits
    of its contiguous copy, in float64, and comes back unchanged, also for
    a run of coordinates that starts past 0."""
    rng = np.random.default_rng(17)
    wide = rng.standard_normal((3, 1 << 18))
    sources = [wide[:, ::2], np.asfortranarray(wide[:, :1 << 17]),
               (rng.random((6, 1 << 17)) < 0.5)[::2]]
    for values in sources:
        values.flags.writeable = False
        before = values.copy()
        for name, kernel in FUSED.items():
            got = apply_kernel(values, 17, kernel, coords, copy=True)
            assert same_bits(got, tiled_kernel(np.ascontiguousarray(values), 17, kernel, coords))
            assert same_bits(values, before) and not values.flags.writeable, name


def test_table_operators_make_one_apply_kernel_call(monkeypatch):
    """transform_table, synthesize_table, downward_noise_table and
    invert_downward each run their cast and stages as one apply_kernel
    call, the rule perfbench's --trace 1 checks for transform_table."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return apply_kernel(*args, **kwargs)

    for module in (lattice, fourier, noise):
        monkeypatch.setattr(module, "apply_kernel", counted)
    table = np.random.default_rng(6).integers(0, 2, (3, 1 << 17), dtype=np.uint8)
    for run in (lambda: transform_table(table, 17, 0.3), lambda: synthesize_table(table, 17, 0.3),
                lambda: downward_noise_table(table, 17, 0.3), lambda: invert_downward(table, 0.3)):
        calls.clear()
        run()
        assert len(calls) == 1


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
    tiles, with a scratch block of two tiles, keep the peak under 2 MiB,
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


def test_single_stages_run_as_two_by_two_group_products(monkeypatch):
    """A full pass runs groups of four coordinates from coordinate 0, the
    last group shorter; a single stage coords=[i] runs as one 2 x 2 group
    product (K itself), the form the per-stage benchmark rows time.  A
    wrapper around lattice._group_product records each matrix's order,
    one record per tile."""
    orders = []
    group_product = lattice._group_product

    def recorded(tile, out, m, block):
        orders.append(len(m))
        group_product(tile, out, m, block)

    monkeypatch.setattr(lattice, "_group_product", recorded)
    for name in ("noise", "zeta", "analysis"):
        for n in range(1, 9):
            orders.clear()
            apply_kernel(np.ones(1 << n), n, KERNELS[name])
            assert orders == [16] * (n // 4) + [1 << (n % 4)] * (n % 4 > 0), (name, n)
        big = np.ones(1 << 16)
        for i in range(16):
            orders.clear()
            apply_kernel(big, 16, KERNELS[name], [i])
            assert orders == [2], (name, i)
