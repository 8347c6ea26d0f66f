"""Kernel timings outside any workload: the size grid and per-stage groups.

They run untraced, inside the traced run only, because n = 24 alone costs
several seconds.  No roofline ratio is reported: a memory-bandwidth probe
would need an array four times the last-level cache, and this class of
machine reports a 300 MiB shared L3, i.e. a 1.2 GiB array on a small shared
host.  Bytes and flops are reported as computed from shape and dtype.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from polyspec import fourier, lattice, noise

GRID_REPS = {12: 41, 16: 11, 20: 3, 22: 2, 24: 1}
STAGE_N = 22
STAGE_REPS = 3
STAGE_GROUPS = {"lo": range(0, 4), "mid": range(4, 15), "hi": range(15, STAGE_N)}


def _median_s(call, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def size_grid(rng: np.random.Generator) -> dict[str, float]:
    """ns per element per stage of transform_table and downward_noise_table
    (their mean) on one random Boolean table at each n."""
    out = {}
    for n, reps in GRID_REPS.items():
        table = rng.integers(0, 2, 1 << n, dtype=np.uint8)
        t = (_median_s(lambda: fourier.transform_table(table, n, 0.3), reps)
             + _median_s(lambda: noise.downward_noise_table(table, n, 0.5), reps)) / 2
        out[f"lattice.kernel_ns_per_elem_stage.n{n}"] = t * 1e9 / ((1 << n) * n)
    return out


def stage_groups(rng: np.random.Generator) -> dict[str, float]:
    """ns per element of single stages at n = 22, timed through
    apply_kernel(..., coords=[i]) with the analysis and noise kernels and
    averaged over the stages of each group."""
    n = STAGE_N
    base = rng.random(1 << n)
    work = np.empty_like(base)
    kernels = (fourier.analysis_kernel(0.3), noise.noise_kernel(0.5))
    per_stage = []
    for i in range(n):
        per_kernel = []
        for kernel in kernels:
            times = []
            for _ in range(STAGE_REPS):
                work[...] = base
                t0 = time.perf_counter()
                lattice.apply_kernel(work, n, kernel, coords=[i])
                times.append(time.perf_counter() - t0)
            per_kernel.append(statistics.median(times))
        per_stage.append(statistics.fmean(per_kernel) * 1e9 / (1 << n))
    return {f"lattice.stage_{g}_ns": statistics.fmean(per_stage[i] for i in stages)
            for g, stages in STAGE_GROUPS.items()}
