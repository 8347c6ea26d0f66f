"""Time each step of a file-based command-line session and count the minor
page faults it takes.

    PYTHONPATH=src python tools/op_faults.py [--cycles K]

Runs, in this process and in a temporary directory, K cycles (default 12)
of the session ``make`` (andor and andxor) -> ``noise`` -> ``transform``
-> ``profile`` -> ``solve`` -> ``audit --theorem 2.2`` -> ``ns`` on one
AND-OR partition at dimension n = 18 through
``polyspec.cli.main``, and prints one line per step: its median wall time
in ms and its median count of minor page faults
(``resource.getrusage(RUSAGE_SELF).ru_minflt``) over the cycles.  A minor
fault is the kernel handing the process a fresh zeroed page, so a step that
builds table-sized temporaries the allocator has returned to the kernel
shows them here.  The first cycle is a warm-up and is not counted.
glibc's dynamic mmap and trim thresholds follow the sizes a process has
freed, so a count depends on everything the process ran before the step:
compare two trees with this same script, never with counts taken in
another program.  Standard library, numpy and polyspec only; Unix only
(``resource``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import resource
import statistics
import tempfile
import time
from pathlib import Path

from polyspec import cli

N = 18
BLOCKS = "0,1,2;3,4,5;6,7;8,9"   # width 4, so lambda = 2^-4


def session(d: Path) -> list[tuple[str, list[str]]]:
    f, g = str(d / "f.json"), str(d / "g.json")
    lam = repr(2.0 ** -len(BLOCKS.split(";")))
    make = ["make", "--n", str(N), "--blocks", BLOCKS, "--family"]
    return [
        ("make-andor", make + ["andor", "--out", g]),
        ("make-andxor", make + ["andxor", "--out", f]),
        ("noise", ["noise", "--rho", "0.5", "--in", f, "--out", str(d / "tf.json")]),
        ("transform", ["transform", "--p", "0.5", "--in", g, "--out", str(d / "spec.json")]),
        ("profile", ["profile", "--p", "0.5", "--in", g, "--out", str(d / "prof.json")]),
        ("solve", ["solve", "--rho", "0.5", "--in", g, "--out", str(d / "sol.json")]),
        ("audit", ["audit", "--theorem", "2.2", "--f", f, "--g", g, "--lambda", lam,
                   "--out", str(d / "audit.json")]),
        ("ns", ["ns", "--nu", "0.1", "--in", g, "--out", str(d / "ns.json")]),
    ]


def measure(cycles: int) -> dict[str, tuple[list[float], list[int]]]:
    """Wall seconds and minor faults of each step, one entry per counted cycle."""
    with tempfile.TemporaryDirectory() as tmp:
        steps = session(Path(tmp))
        got: dict[str, tuple[list[float], list[int]]] = {name: ([], []) for name, _ in steps}
        for cycle in range(cycles + 1):
            for name, argv in steps:
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv)
                wall = time.perf_counter() - start
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                if rc != 0:
                    raise SystemExit(f"{name} exited {rc}")
                if cycle:
                    got[name][0].append(wall)
                    got[name][1].append(faults)
    return got


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cycles", type=int, default=12)
    args = parser.parse_args(argv)
    if args.cycles < 1:
        parser.error("--cycles must be at least 1")
    print(f"n = {N}, {args.cycles} cycles: step, median ms, median minor faults")
    for name, (walls, faults) in measure(args.cycles).items():
        print(f"{name:12s} {statistics.median(walls) * 1e3:9.2f} {statistics.median(faults):9.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
