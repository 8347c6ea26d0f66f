"""Host speed, measured inside the workload's own process.

The benchmark's reference machine is a 2-vCPU guest whose cores are shared
with other tenants.  Its speed drifts by 20-60% over tens of seconds to
minutes: a fixed pure-Python loop took 25 ms in one minute and 41 ms in the
next, with steal time under 2% and thread CPU time tracking wall time.  Runs
of the same code minutes apart then differ by more than any bound a
benchmark could set, however long each run is.

So the timed ops are interleaved with a fixed reference kernel that calls no
polyspec code, sampled at op boundaries once per ``EVERY_S`` seconds passed
(several times in a row after a long op).  It has three parts of a few
milliseconds each, one per kind of work the workloads do: interpreter-bound Python (the CLI, the verdict layer and the partition
search), numpy calls on 64 KiB arrays (short rows and small tables), and
streaming over 2 MiB arrays, which exceed the per-core L2 (the big tables).
A part's relative speed is its ``NOMINAL_S`` over the median of the
``WINDOW`` samples nearest in time; the host's speed is the mean of the
three.  Every timed value is multiplied by the speed around it, which gives
the time the op would take on the host when the reference kernel runs at
its nominal speed.  The raw wall-clock values are kept in the provenance.

The kernel works in place on arrays allocated once (4 MiB in all), so it
adds a small constant to peak RSS and allocates nothing while it runs.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

EVERY_S = 0.5
WINDOW = 11
MAX_BURST = 4
SETUP_SAMPLES = 3
# Median seconds of each part over 200 samples on the reference machine
# (Intel Xeon guest, Python 3.11, numpy 2.4).  Only ratios to them matter;
# they keep normalized times close to wall-clock times on that machine.
NOMINAL_S = {"interp": 3.9e-3, "cache": 2.9e-3, "stream": 3.45e-3}


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.random(1 << 13)
        self._small_out = np.empty_like(self._small)
        self._big = rng.random(1 << 18)
        self._big_out = np.empty_like(self._big)
        self.samples: list[tuple[float, dict[str, float]]] = []
        self._last = -float("inf")
        self._run_parts()      # first pass warms code paths and caches; not recorded

    @staticmethod
    def _interp():
        acc, table = 0, {}
        for i in range(25000):
            acc += i * i
            table[i & 511] = acc
        return ",".join(str(v) for v in table.values())

    def _cache(self):
        a, out = self._small, self._small_out
        for _ in range(150):
            np.multiply(a, 1.0001, out=out)
            out += a
            np.sqrt(out, out=out)

    def _stream(self):
        a, out = self._big, self._big_out
        for _ in range(6):
            np.multiply(a, 1.0001, out=out)
            out += a
            out *= 0.5

    def _run_parts(self) -> dict[str, float]:
        parts = {}
        for name, fn in (("interp", self._interp), ("cache", self._cache), ("stream", self._stream)):
            t0 = time.perf_counter()
            fn()
            parts[name] = time.perf_counter() - t0
        return parts

    def sample(self) -> None:
        t = time.perf_counter()
        self.samples.append((t, self._run_parts()))
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """One sample per EVERY_S passed since the last (at most MAX_BURST),
        so that ops longer than EVERY_S are bracketed as densely as short ones."""
        due = int((time.perf_counter() - self._last) / EVERY_S)
        for _ in range(min(due, MAX_BURST)):
            self.sample()

    def speed(self, t: float) -> float:
        """Host speed around time t: 1 at nominal, below 1 when slower."""
        starts = [s for s, _ in self.samples]
        j = bisect.bisect(starts, t)
        lo = max(0, min(j - WINDOW // 2, len(self.samples) - WINDOW))
        near = [parts for _, parts in self.samples[lo:lo + WINDOW]]
        return statistics.fmean(NOMINAL_S[k] / statistics.median(p[k] for p in near) for k in NOMINAL_S)

    def part_medians(self) -> dict[str, float]:
        return {k: statistics.median(p[k] for _, p in self.samples) for k in NOMINAL_S}
