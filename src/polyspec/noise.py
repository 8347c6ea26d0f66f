"""The one-sided (downwards) noise operator and its relatives.

The operator at retention rho maps a table f to
(T f)(x) = expectation over z ~ mu_rho of f(x AND z);
AND_S is an eigenvector with eigenvalue rho^|S|.  T carries functions living
on the mu_{rho*p} measure to functions on mu_p, and is an L1 contraction.

The per-coordinate kernel is [[1, 0], [1-rho, rho]]: a point with x_i = 0
cannot see the x_i = 1 half, while a point with x_i = 1 mixes both.  The
inverse uses the inverse kernel [[1, 0], [-(1-rho)/rho, 1/rho]] in the
same O(n*2^n) butterflies, not Moebius sums over the lattice; the closed
form, stated for rho = 1/2 only (other rho extend it through the kernel),
is kept in the test suite as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (AnyFunction, BooleanFunction, BoundedFunction, _check_boolean,
                   _check_open_unit, _check_same_dimension)
from .fourier import synthesize_table, transform_table
from .lattice import _level_blocks, apply_kernel, measure_weights, pack_bits

DEFAULT_SAMPLES = 1_000_000
_SAMPLE_BATCH = 1 << 17


@dataclass(frozen=True)
class NoiseParams:
    """Scalar knobs of the eigenvalue problem: T f compared against lam * g.

    p: bias of the output measure; rho: retention of the downwards step
    (the input measure has bias q = rho * p); lam: eigenvalue candidate.
    Noise-sensitivity experiments take their resampling rate nu directly.
    """

    p: float
    rho: float
    lam: float | None = None

    def __post_init__(self):
        for name in ("p", "rho"):
            _check_open_unit(name, getattr(self, name))
        _check_lam(self.lam)


def _check_lam(lam: float | None) -> None:
    if lam is not None and not 0.0 < lam <= 1.0:
        raise ValueError(f"lam must lie in (0,1], got {lam}")


@dataclass(frozen=True)
class TesterReport:
    """Estimate with sampling metadata; exact results carry zero error."""

    estimate: float
    std_error: float
    samples: int
    exact: bool = False
    details: dict | None = None
    accepted: bool | None = None

    def __post_init__(self):
        if self.exact and self.std_error != 0.0:
            raise ValueError("exact reports must have zero standard error")


def noise_kernel(rho: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [1.0 - rho, rho]])


def inverse_noise_kernel(rho: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [-(1.0 - rho) / rho, 1.0 / rho]])


def downward_noise_table(table: np.ndarray, n: int, rho: float) -> np.ndarray:
    """Apply the operator to a raw table (supports leading batch axes).

    The stages run as group products (see :mod:`polyspec.lattice`), as in
    fourier.transform_table: to first order each entry is within
    (19/4) n u (T|f|)(x) <= (19/4) n u max|f| of the exact result of the
    float64 kernel, u = 2^-53 (2^-64 for a longdouble table, which runs
    stage by stage).  At rho = 1/2 a table of integer multiples k 2^e of
    one power of two with |k| < 2^(53 - n), so every 0/1 table, comes out
    exact: each value on the way is a multiple of 2^(e - n) no larger than
    max|f|.

    No entry is checked for inf or NaN, which would cost a pass over the
    table.  An inf or NaN entry makes non-finite at least every entry that
    a stagewise run does (the points above it), and possibly more.
    """
    _check_open_unit("rho", rho)
    return apply_kernel(table, n, noise_kernel(rho), copy=True)


def downward_noise(f: AnyFunction, rho: float) -> BoundedFunction:
    """(T f)(x) = sum over z of mu_rho(z) f(x AND z)."""
    return BoundedFunction(f.n, downward_noise_table(f.table, f.n, rho))


def iterated_noise(f: AnyFunction, rho: float, m: int) -> BoundedFunction:
    """m-ary variant: AND of m-1 independent masks, retention rho^(m-1) > 0."""
    _check_open_unit("rho", rho)
    if m < 2:
        raise ValueError(f"arity m must be at least 2, got {m}")
    # every rho < 1 underflows at 2^64; a larger int overflows as a float
    retention = rho ** min(m - 1, 1 << 64)
    if retention == 0.0:
        raise ValueError(f"arity m = {m} underflows the retention {rho}^(m-1) to 0")
    return downward_noise(f, retention)


def invert_downward(h, rho: float) -> np.ndarray:
    """Solve T u = h for u; returns the raw table.

    The output is not clamped to [0,1]: a negative entry certifies that h
    has no preimage among bounded functions, which is exactly what the
    feasibility classifiers look at.

    The stages run as group products (see :mod:`polyspec.lattice`): to
    first order each entry is within (19/4) n u (|K|(x)...(x)|K| |h|)(x)
    <= (19/4) n u (2/rho - 1)^|x| max|h| of the exact result of the
    float64 kernel K = inverse_noise_kernel(rho), u = 2^-53 (2^-64 for a
    longdouble table, which runs stage by stage).  At rho = 1/2, where
    K = [[1, 0], [-1, 2]], a table of integer multiples k 2^e of one power
    of two with 3^n |k| < 2^53 comes out exact, so the inverse of the
    noise of every 0/1 table up to n = 20 is that table.

    No entry is checked for inf or NaN, which would cost a pass over the
    table.  An entry that overflows (entries grow like (2/rho - 1)^|x|) is
    inf or NaN, which of the two is not specified.  An inf or NaN entry of
    h makes non-finite at least every entry that a stagewise run does, and
    possibly more.
    """
    _check_open_unit("rho", rho)
    if isinstance(h, (BooleanFunction, BoundedFunction)):
        table, n = h.table, h.n
    else:
        table = np.asarray(h)
        size = int(table.shape[-1]) if table.ndim else 0
        n = size.bit_length() - 1
        if n < 0 or size != 1 << n:
            raise ValueError(f"table of shape {table.shape} has last-axis length {size}, "
                             "not a power of two")
    return apply_kernel(table, n, inverse_noise_kernel(rho), copy=True)


def spectral_action_check(f: AnyFunction, p: float, rho: float) -> float:
    """Max pointwise gap between the two routes for computing T f.

    Route one applies the per-coordinate kernels.  Route two transforms f at
    bias rho*p, shrinks level k coefficients by
    ((1-p) rho / (1 - rho p))^(k/2), and re-synthesizes at bias p.
    """
    direct = downward_noise_table(f.table, f.n, rho)
    coeffs = transform_table(f.table, f.n, rho * p)
    shrink = ((1.0 - p) * rho / (1.0 - rho * p)) ** 0.5
    for part, factors in _level_blocks(shrink ** np.arange(f.n + 1.0), f.n):
        coeffs[part] *= factors
    via_spectrum = synthesize_table(coeffs, f.n, p)
    return float(np.abs(direct - via_spectrum).max())


def residual(f: AnyFunction, g: AnyFunction, params: NoiseParams) -> float:
    """L1 gap (under mu_p) between T f and lam * g.

    Allocates three 2^n float64 tables, besides the kernel's scratch block:
    T f, which becomes |T f - lam g| in place, lam g, and the mu_p weights.
    Each entry takes the same operations in the same order as
    abs(T f - lam * g.table.astype(float64)), so the bits are the same.
    """
    if params.lam is None:
        raise ValueError("params.lam is required for a residual")
    _check_same_dimension(f, g)
    gap = downward_noise_table(f.table, f.n, params.rho)
    gap -= np.multiply(g.table, params.lam, dtype=np.float64)
    return float(measure_weights(f.n, params.p) @ np.abs(gap, out=gap))


# ---------------------------------------------------------------------------
# Samplers.  All draw from an explicit Generator so concurrent trials are
# reproducible; samples are integer point codes.

def _biased_bits(rng: np.random.Generator, shape, p: float) -> np.ndarray:
    return (rng.random(shape) < p).astype(np.uint8)


def _monte_carlo(count_hits, samples: int, rng) -> TesterReport:
    """Hit rate over ``samples`` draws, in batches of at most _SAMPLE_BATCH;
    count_hits(gen, batch) draws batch samples from gen = default_rng(rng),
    which passes a Generator through, and returns how many hit.  Memory
    stays bounded by one batch whatever the sample count."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    gen = np.random.default_rng(rng)
    hits = 0
    for start in range(0, samples, _SAMPLE_BATCH):
        hits += count_hits(gen, min(_SAMPLE_BATCH, samples - start))
    est = hits / samples
    se = math.sqrt(max(est * (1.0 - est), 1.0 / samples) / samples)
    return TesterReport(estimate=est, std_error=se, samples=samples)


def sample_dnu(nu: float, n: int, rng: np.random.Generator,
               size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quadruple (y, m, x, z) coupling a correlated pair with downward walks.

    m ~ mu_{1/2 - nu/4} and y is a downward step from m with marginal
    mu_{1/4}.  Where m_i = 1 both x_i and z_i are 1; where m_i = 0 the pair
    (x_i, z_i) is (1,0) or (0,1) with probability theta = nu/(2+nu) each,
    else (0,0).  Then x, z ~ mu_{1/2}, the pair (x, z) is (1-nu)-correlated
    (coordinates agree with probability 1 - nu/2, independently), and
    y <= m <= x AND z on every sample.
    """
    _check_open_unit("nu", nu)
    theta = nu / (2.0 + nu)
    pm = 0.5 - nu / 4.0
    m = _biased_bits(rng, (size, n), pm)
    w = _biased_bits(rng, (size, n), 0.25 / pm)
    y = m & w
    u = rng.random((size, n))
    x = np.where(m == 1, 1, (u < theta).astype(np.uint8))
    z = np.where(m == 1, 1, ((u >= theta) & (u < 2 * theta)).astype(np.uint8))
    return pack_bits(y), pack_bits(m), pack_bits(x), pack_bits(z)


def sample_correlated_pair(p: float, nu: float, n: int,
                           rng: np.random.Generator,
                           size: int) -> tuple[np.ndarray, np.ndarray]:
    """(1-nu)-correlated pair under mu_p: each coordinate of y copies x
    with probability 1-nu and is redrawn from mu_p otherwise."""
    x = _biased_bits(rng, (size, n), p)
    fresh = _biased_bits(rng, (size, n), p)
    redraw = rng.random((size, n)) < nu
    y = np.where(redraw, fresh, x)
    return pack_bits(x), pack_bits(y)


def noise_sensitivity(g: BooleanFunction, p: float, nu: float,
                      samples: int | None = None, rng=None) -> TesterReport:
    """Probability that a (1-nu)-correlated resample changes g.

    Exact by default: 2 * sum over S of (1 - (1-nu)^|S|) coeff(S)^2 from the
    bias-p spectrum, a dot per block of B = min(2^n, 2^14) points; the terms
    are nonnegative, so it is within a relative (B + 2^n/B) 2^-53 of the
    exact sum of the float64 coefficients' terms.  An int samples draws
    that many correlated pairs from rng (a seed, a Generator or None) instead.
    """
    _check_boolean("noise_sensitivity", g)
    _check_open_unit("bias p", p)
    _check_open_unit("nu", nu)
    if samples is None:
        coeffs, total = transform_table(g.table, g.n, p), 0.0
        for part, flip in _level_blocks(1.0 - (1.0 - nu) ** np.arange(g.n + 1.0), g.n):
            total += float(np.square(coeffs[part], out=coeffs[part]) @ flip)
        return TesterReport(estimate=2.0 * total, std_error=0.0, samples=0, exact=True)

    def flips(gen: np.random.Generator, batch: int) -> int:
        x, y = sample_correlated_pair(p, nu, g.n, gen, batch)
        return int(np.count_nonzero(g.table[x] != g.table[y]))

    return _monte_carlo(flips, samples, rng)
