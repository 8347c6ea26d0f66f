"""Command-line front end.

Flat key=value config files plus flag overrides; one master seed feeds
named, splittable random streams per subsystem, so identical (config, seed)
pairs give byte-identical outputs.  Exit codes: 0 success, 2 configuration
or input error, 1 failed strict audit.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import zlib
from dataclasses import asdict

import numpy as np

from . import analysis, core, families, influences, noise
from .fourier import fourier_transform

CONFIG_ERROR = 2
VERDICT_FAILURE = 1


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Named substream of the master seed; streams are independent."""
    return np.random.default_rng(np.random.SeedSequence((seed, zlib.crc32(name.encode()))))


def worker_count() -> int:
    """Sweep worker count from POLYSPEC_THREADS (default 1)."""
    raw = os.environ.get("POLYSPEC_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise CliError(f"POLYSPEC_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def _parse_coords(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok != ""]


def _parse_blocks(text: str) -> families.BlockPartition:
    blocks = [frozenset(_parse_coords(blk)) for blk in text.split(";") if blk]
    return families.BlockPartition(tuple(blocks))


class CliError(Exception):
    """Configuration or input problem; maps to exit code 2."""


def _load(path: str):
    try:
        return core.load_function(path)
    except (OSError, ValueError) as exc:   # JSONDecodeError is a ValueError
        raise CliError(f"cannot read function file {path!r}: {exc}")


def _load_boolean(path: str) -> core.BooleanFunction:
    f = _load(path)
    if not isinstance(f, core.BooleanFunction):
        raise CliError(f"function file {path!r} holds a bounded function, not a Boolean one")
    return f


def _emit(obj, out: str | None) -> None:
    """Write a JSON document to the file out, or print the same bytes."""
    if out is not None:
        core.save_function(obj, out)
    else:
        print(core.dumps(obj))


def _builtin_function(name: str, n: int):
    core._check_dimension(n)    # maj3 widens n to 3 and would hide a negative n
    if name == "maj3":
        return families.make_majority3(max(n, 3))
    if name == "dictator":
        return families.make_and(n, [0])
    if name == "xor2":
        return families.make_xor(n, [0, 1])
    raise CliError(f"unknown builtin function {name!r}")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_transform(args) -> int:
    f = _load(args.infile)
    spec = fourier_transform(f, args.p)
    _emit({"n": spec.n, "kind": "spectrum", "p": spec.p,
           "values": spec.coeffs}, args.out)
    return 0


def _cmd_noise(args) -> int:
    _emit(noise.iterated_noise(_load(args.infile), args.rho, args.m), args.out)
    return 0


def _cmd_ns(args) -> int:
    f = _load_boolean(args.infile)
    rep = noise.noise_sensitivity(f, args.p, args.nu, samples=args.samples,
                                  rng=stream_rng(args.seed, "ns"))
    _emit({"estimate": rep.estimate, "std_error": rep.std_error,
           "samples": rep.samples, "exact": rep.exact}, args.out)
    return 0


def _cmd_profile(args) -> int:
    f = _load(args.infile)
    _emit(asdict(influences.influence_profile(f, args.p)), args.out)
    return 0


_MAKERS = {
    "and": lambda a: families.make_and(a.n, _parse_coords(a.coords or "")),
    "or": lambda a: families.make_or(a.n, _parse_coords(a.coords or "")),
    "xor": lambda a: families.make_xor(a.n, _parse_coords(a.coords or "")),
    "andor": lambda a: families.make_and_or(a.n, _parse_blocks(a.blocks or "")),
    "andxor": lambda a: families.make_and_xor(a.n, _parse_blocks(a.blocks or "")),
    "maj3": lambda a: families.make_majority3(a.n),
    "f1": lambda a: families.make_f1(a.n),
    "f2": lambda a: families.make_f2(a.n, a.lam, stream_rng(a.seed, "f2")),
    "midslice": lambda a: families.make_midslice(a.n, a.window_scale),
    "semirandom": lambda a: families.make_semirandom(
        a.n, a.window_scale, stream_rng(a.seed, "semirandom")),
}


def _cmd_make(args) -> int:
    _emit(_MAKERS[args.family](args), args.out)
    return 0


def _cmd_classify(args) -> int:
    hits = analysis.classify_boolean_eigens(args.n, args.rho)
    out = [{"bits_hex": f.bits_hex, "lambda": lam} for f, lam in hits]
    _emit({"n": args.n, "rho": args.rho, "count": len(hits),
           "eigenfunctions": out}, args.out)
    return 0


def _cmd_solve(args) -> int:
    g = _load_boolean(args.infile)
    sol = analysis.solve_exact_pair(g, args.rho, args.lam)
    _emit({"feasible": sol.feasible, "lambda_max": sol.lam_max,
           "negative_mass": sol.negative_mass,
           "preimage": sol.preimage}, args.out)
    return 0


def _cmd_test_hom(args) -> int:
    f = _load_boolean(args.infile) if args.fn is None else _builtin_function(args.fn, args.n)
    g = _load_boolean(args.g) if args.g is not None else None
    h = _load_boolean(args.h) if args.h is not None else None
    rep = analysis.homomorphism_agreement(
        f, args.p, args.rho, g=g, h=h, samples=None if args.exact else args.samples,
        rng=stream_rng(args.seed, "hom"))
    print(format(rep.estimate, ".12g"))
    return 0


def _cmd_prs(args) -> int:
    f = _load_boolean(args.infile)
    rep = analysis.prs_tester(
        f, args.p, samples=args.samples, rng=stream_rng(args.seed, "prs"),
        expectation_window=args.expectation_window,
        agreement_min=args.agreement_min)
    _emit({"accepted": rep.accepted, "agreement": rep.estimate,
           "std_error": rep.std_error, "exact": rep.exact,
           **(rep.details or {})}, args.out)
    return 0


def _cmd_audit(args) -> int:
    f = _load(args.f)
    g = _load_boolean(args.g)
    h = _load_boolean(args.h) if args.h is not None else None
    params = noise.NoiseParams(p=args.p, rho=args.rho, lam=args.lam)
    report = analysis.theorem_audit(args.theorem, f, g, params, h=h, tau=args.tau)
    v = report.verdict
    _emit({"theorem": report.theorem, "premise": report.premise,
           "conclusion": report.conclusion, "notes": list(report.notes),
           "verdict": {"kind": v.kind, "witness": v.witness_str(), "distance": v.distance}},
          args.out)
    if args.strict and not report.passed(args.eta, args.eps):
        return VERDICT_FAILURE
    return 0


def _cmd_sweep(args) -> int:
    overrides = {name: getattr(args, name) for name in ("seed", "out")
                 if getattr(args, name) is not None}
    try:
        cfg = analysis.ExperimentConfig.from_file(args.config, overrides)
    except (OSError, ValueError) as exc:
        raise CliError(f"bad sweep config: {exc}")
    rows = analysis.sweep_rows(cfg, workers=worker_count())
    text = analysis.SWEEP_HEADER + "\n" + "\n".join(rows) + "\n"
    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyspec",
        description="Analysis of Boolean functions under downwards noise on "
                    "the p-biased hypercube")
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(*names, **kwargs) -> argparse.ArgumentParser:
        """A parent parser declaring one flag for every subcommand that takes it."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    out = flag("--out", default=None)
    infile = flag("--in", dest="infile", required=True)
    seed = flag("--seed", type=int, default=0)
    samples = flag("--samples", type=int, default=None, help="omit for exact evaluation")
    p = flag("--p", type=float, required=True)
    p_half = flag("--p", type=float, default=0.5)
    rho = flag("--rho", type=float, required=True)
    rho_half = flag("--rho", type=float, default=0.5)
    lam = flag("--lambda", dest="lam", type=float, default=None)
    n = flag("--n", type=int, required=True)
    h = flag("--h", default=None)

    def add(name, fn, helptext, *parents):
        sp = sub.add_parser(name, help=helptext, parents=parents)
        sp.set_defaults(handler=fn)
        return sp

    add("transform", _cmd_transform, "Fourier-transform a function file", infile, out, p)

    sp = add("noise", _cmd_noise, "apply the downwards noise operator", infile, out, rho)
    sp.add_argument("--m", type=int, default=2,
                    help="arity of the iterated operator (m >= 2)")

    sp = add("ns", _cmd_ns, "noise sensitivity of a Boolean function",
             infile, samples, seed, out, p_half)
    sp.add_argument("--nu", type=float, required=True)

    add("profile", _cmd_profile, "influence profile as JSON", infile, out, p)

    sp = add("make", _cmd_make, "construct a family member", seed, out, n)
    sp.add_argument("--family", required=True,
                    choices=tuple(_MAKERS))
    sp.add_argument("--coords", default=None, help="comma-separated, e.g. 0,2")
    sp.add_argument("--blocks", default=None,
                    help="semicolon-separated blocks, e.g. 0,1;2")
    sp.add_argument("--lambda", dest="lam", type=float, default=0.5)
    sp.add_argument("--window-scale", type=float, default=1.0)

    add("classify", _cmd_classify, "exhaustive Boolean eigenfunctions", out, n, rho)

    add("solve", _cmd_solve, "invert the operator and test feasibility", infile, out, rho, lam)

    sp = add("test-hom", _cmd_test_hom, "AND-homomorphism agreement rate",
             seed, p_half, rho_half, h)
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--fn", help="builtin: maj3, dictator, xor2")
    source.add_argument("--in", dest="infile")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--g", default=None)
    estimator = sp.add_mutually_exclusive_group()
    estimator.add_argument("--exact", action="store_true")
    estimator.add_argument("--samples", type=int, default=noise.DEFAULT_SAMPLES)

    sp = add("prs", _cmd_prs, "expectation-plus-agreement dictatorship test",
             infile, samples, seed, out, p_half)
    sp.add_argument("--expectation-window", type=float, default=0.05)
    sp.add_argument("--agreement-min", type=float, default=0.95)

    sp = add("audit", _cmd_audit, "premise/conclusion report for one theorem",
             out, h, p_half, rho_half, lam)
    sp.add_argument("--theorem", required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--tau", type=float, default=0.05)
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--eta", type=float, default=0.1)
    sp.add_argument("--eps", type=float, default=0.1)

    sp = add("sweep", _cmd_sweep, "perturbation sweep to CSV", out)
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=int, default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process, so a session that calls main
    many times in one process does not rebuild it on every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # the flags that must be at least 0, and the path flags that must not
        # be empty, checked before any file is read
        for name in ("seed", "eta", "eps"):
            core._check_at_least_zero(f"--{name}", getattr(args, name, None) or 0)
        for name in ("in", "out", "f", "g", "h", "config"):
            if getattr(args, "infile" if name == "in" else name, None) == "":
                raise CliError(f"--{name} must name a file, got an empty path")
        return args.handler(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"polyspec: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
