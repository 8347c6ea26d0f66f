#!/usr/bin/env python3
"""polyspec benchmark: one workload per invocation, every output checked.

    python3 perfbench/run.py --workload bigtable --seed 1 --seconds 20 --trace 0

Run it from the root of a polyspec checkout; it imports the package from
that checkout's ``src/`` and fails (exit code 2, no result) without it.
The workload runs in a fresh child process with one thread
(POLYSPEC_THREADS and the BLAS/OpenMP thread counts set to 1), in a closed
loop: one client, the next op starts when the last one returns.  It runs
whole cycles of ops until --seconds have passed.

--trace 0 prints the end-to-end metrics; their times are normalized to the
host's nominal speed, measured between the ops (hostspeed.py), and the raw
wall-clock values are in the provenance.  --trace 1 runs ops untraced for
half of --seconds and the same ops traced, then the tracing-completeness
checks and the kernel size grid, and prints the per-layer metrics.  Every run prints a
provenance line and, last, one JSON object with the keys correct,
attempted, failed and metrics; both are also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("bigtable", "batch", "sweep", "pipeline")
THREAD_ENV = {"POLYSPEC_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170
SETUP_REPS = 5    # processes set up per run, before and after the workload; setup_s is their median
TAIL_BEYOND = 10

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s",
              "peak_rss_mib": "MiB", "ok_frac": "frac"}

LAYERS = ("lattice", "core", "fourier", "noise", "influences", "families", "analysis", "cli")
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in LAYERS
       for m, u in (("calls", "count"), ("self_s", "s"), ("errors", "count"))},
    "lattice.kernel_self_s": "s",
    "lattice.kernel_ns_per_elem_stage": "ns",
    "lattice.kernel_bytes_computed": "B",
    "lattice.kernel_flops_per_byte": "flop/B",
    "lattice.stage_lo_ns": "ns",
    "lattice.stage_mid_ns": "ns",
    "lattice.stage_hi_ns": "ns",
    **{f"lattice.kernel_ns_per_elem_stage.n{n}": "ns" for n in (12, 16, 20, 22, 24)},
    "core.ctor_calls": "count",
    "core.ctor_self_s": "s",
    "core.json_io_s": "s",
    "core.json_bytes": "B",
    "families.make_calls": "count",
    "families.make_self_s": "s",
    "families.recognize_self_s": "s",
    "analysis.andor_candidates_per_row": "count",
    "analysis.andor_recognized_frac": "frac",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}


# ---------------------------------------------------------------------------
# child: one workload in a fresh process

def run_ops(wl, speed, seconds: float | None = None, count: int | None = None, tracer=None,
            min_ops: int = 1):
    """Run ops 0, 1, ... until `count` ops have run or, at a cycle boundary
    and after at least `min_ops`, `seconds` have passed; the host speed is
    sampled between ops.  Returns (start time, seconds, kind) per op and the
    errors."""
    ops, errors = [], []
    stop = time.perf_counter() + seconds if seconds is not None else float("inf")
    i = 0
    while i != count:
        if i % wl.unit_ops == 0 and i >= min_ops and time.perf_counter() >= stop:
            break
        speed.maybe_sample()
        kind, call = wl.op(i)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out, err = call(), None
        except (Exception, SystemExit) as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        ops.append((t0, time.perf_counter() - t0, kind))
        if err is None:
            try:
                err = wl.check(i, out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            errors.append(f"op {i} {kind}: {err}")
        i += 1
    speed.sample()
    return ops, errors


def child(spec: dict) -> None:
    import resource
    import shutil
    import tempfile

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import polyspec
    if not Path(polyspec.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"polyspec imported from {polyspec.__file__}, not from this checkout")
    import hostspeed
    import kernels
    import tracer
    import workloads
    import_s = time.monotonic() - spec["t_spawn"]

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        wl = workloads.WORKLOADS[spec["workload"]](spec["seed"], workdir)
        wl.generate()
        wl.warm_up()
        setup_s = time.monotonic() - spec["t_spawn"]
        speed = hostspeed.HostSpeed()
        for _ in range(hostspeed.SETUP_SAMPLES):
            speed.sample()
        setup = {"setup_s": setup_s, "setup_speed": speed.speed(time.perf_counter())}
        if spec.get("setup_only"):
            print(json.dumps(setup))
            return
        wl.prepare_checks()
        res = {"import_s": import_s, **setup, "numpy": np.__version__, "polyspec": polyspec.__version__}
        seconds = spec["seconds"]
        if not spec["trace"]:
            ops, op_errors = run_ops(wl, speed, seconds, min_ops=wl.min_ops)
            errors = list(op_errors) + wl.final_checks()
            errors += [f"wrapper installed in an untraced run: {b}" for b in tracer.foreign_bindings()]
        else:
            plain, op_errors = run_ops(wl, speed, seconds / 2)
            with tracer.Tracer() as t:
                traced, traced_errors = run_ops(wl, speed, count=len(plain), tracer=t)
            op_errors += traced_errors
            errors = list(op_errors)
            errors += [f"wrapper left installed after tracing: {b}" for b in tracer.foreign_bindings()]
            errors += tracer.completeness_errors()
            layer = t.layer_metrics()
            t.save(OUT_DIR / f"spans-{spec['workload']}-seed{spec['seed']}.npz")
            rng = np.random.default_rng(spec["seed"])
            layer.update(kernels.stage_groups(rng))
            layer.update(kernels.size_grid(rng))
            layer["trace.overhead_frac"] = sum(dt for _, dt, _ in traced) / sum(dt for _, dt, _ in plain) - 1.0
            ops = plain + traced
            res["layer"] = layer
        res.update(times=[dt for _, dt, _ in ops], kinds=[kind for _, _, kind in ops],
                   speeds=[speed.speed(t0) for t0, _, _ in ops], speed_parts_ms=
                   {k: v * 1e3 for k, v in speed.part_medians().items()},
                   speed_samples=len(speed.samples), samples=speed.samples,
                   starts=[t0 for t0, _, _ in ops], failed=len(op_errors), errors=errors,
                   peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(res))


# ---------------------------------------------------------------------------
# parent: spawn, summarize, report

def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polyspec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tail(times: list[float]) -> tuple[float, dict]:
    """Highest order statistic with TAIL_BEYOND samples beyond it (the
    maximum, with fewer beyond, when there are too few ops)."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], {"percentile": round(100.0 * rank / len(ordered), 2), "rank": rank,
                               "samples": len(ordered), "samples_beyond": len(ordered) - rank}


def summarize(args, raw: dict) -> tuple[dict, dict]:
    """End-to-end or per-layer metrics, and the provenance.  End-to-end times
    are normalized to the host's nominal speed (see hostspeed.py); per-layer
    times are wall clock."""
    wall, kinds, failed = raw["times"], raw["kinds"], raw["failed"]
    times = [dt * s for dt, s in zip(wall, raw["speeds"])]
    setups = [out["setup_s"] * out["setup_speed"] for out in raw["setup_runs"]]
    attempted = len(times)
    prov = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ops": attempted, "fail_frac": failed / attempted,
            "errors": raw["errors"][:20], "git_commit": git_commit(),
            "src_sha256": source_digest(), "python": platform.python_version(),
            "numpy": raw["numpy"], "polyspec": raw["polyspec"], "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), "thread_env": THREAD_ENV,
            "import_s": raw["import_s"],
            "host_speed": {"op_median": statistics.median(raw["speeds"]),
                           "op_min": min(raw["speeds"]), "op_max": max(raw["speeds"]),
                           "setup": [out["setup_speed"] for out in raw["setup_runs"]],
                           "samples": raw["speed_samples"], "part_median_ms": raw["speed_parts_ms"]},
            "wall": {"ops_per_s": (attempted - failed) / sum(wall),
                     "op_p50_ms": statistics.median(wall) * 1e3,
                     "setup_s": statistics.median(out["setup_s"] for out in raw["setup_runs"]),
                     "setup_samples_s": [out["setup_s"] for out in raw["setup_runs"]]},
            "setup_samples_s": setups,
            "op_median_ms": {k: statistics.median(t * 1e3 for t, kk in zip(times, kinds) if kk == k)
                             for k in dict.fromkeys(kinds)}}
    if args.trace:
        values = raw["layer"]
        units = PER_LAYER
    else:
        tail_s, prov["op_tail"] = tail(times)
        values = {"ops_per_s": (attempted - failed) / sum(times),
                  "op_p50_ms": statistics.median(times) * 1e3,
                  "op_tail_ms": tail_s * 1e3,
                  "setup_s": statistics.median(setups),
                  "peak_rss_mib": raw["peak_rss_mib"],
                  "ok_frac": (attempted - failed) / attempted}
        units = END_TO_END
    if values.keys() != units.keys():
        raise RuntimeError(f"metric set mismatch: {sorted(values.keys() ^ units.keys())}")
    result = {"correct": not raw["errors"], "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    return result, prov


def spawn(spec: dict, deadline: float) -> dict | None:
    """Run one child process; its last stdout line, parsed, or None."""
    spec = {**spec, "t_spawn": time.monotonic()}
    try:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(spec)],
                              env={**os.environ, **THREAD_ENV}, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {spec['workload']} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {spec['workload']} child exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(json.loads(args.child))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "polyspec" / "__init__.py").is_file():
        print(f"perfbench: no polyspec package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    extra = 0 if args.trace else SETUP_REPS - 1
    before = [spawn({**spec, "setup_only": True}, deadline) for _ in range(extra // 2)]
    raw = spawn(spec, deadline)
    after = [spawn({**spec, "setup_only": True}, deadline) for _ in range(extra - extra // 2)]
    if any(out is None for out in (*before, raw, *after)):
        return 1
    raw["setup_runs"] = [{k: out[k] for k in ("setup_s", "setup_speed")} for out in (*before, raw, *after)]
    result, prov = summarize(args, raw)
    report = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"provenance": prov, "result": result}, indent=1) + "\n")
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-raw.json").write_text(json.dumps(raw))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
