"""The four benchmark workloads.

Each workload draws its inputs from the run's seed, runs a fixed sequence
of ops (one op is one timed call into polyspec's public functions or its
``cli.main`` entry point) and checks every output against the closed forms
in :mod:`oracles`.  Functions are looked up on their polyspec module at call
time, so the traced run sees every call the benchmark makes.

A run repeats whole cycles of ``unit_ops`` ops, so every op kind weighs the
same in its medians.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
from polyspec import analysis, cli, core, fourier, noise

import oracles

HERE = Path(__file__).resolve().parent
GOLDEN_SWEEP = HERE / "golden" / "sweep_seed1414.csv"


def _close(got, want, tol: float) -> bool:
    return bool(np.max(np.abs(np.asarray(got, dtype=np.float64) - want), initial=0.0) <= tol)


class Workload:
    name = ""
    unit_ops = 1       # ops in one cycle
    min_ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> None:
        """Seeded input generation; timed as part of set-up."""

    def warm_up(self) -> None:
        """One call of each op on small inputs; timed as part of set-up."""

    def prepare_checks(self) -> None:
        """Expected outputs; untimed."""

    def op(self, i: int):
        """(kind, zero-argument call) for op i."""
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        """None when op i's output is correct, else what is wrong."""
        return None

    def final_checks(self) -> list[str]:
        return []


class BigTable(Workload):
    """Five calls on one n = 22 table each; 32 MiB float64 working copies."""

    name = "bigtable"
    unit_ops = 5
    N = 22
    AND_SIZE = 4
    BLOCK_SIZES = (3, 3, 2, 1)
    KINDS = ("transform", "noise", "solve", "distance", "ns")

    def generate(self):
        rng = np.random.default_rng(self.seed)
        n = self.N
        self.coords = sorted(rng.choice(n, self.AND_SIZE, replace=False).tolist())
        self.blocks = oracles.random_blocks(rng, n, self.BLOCK_SIZES)
        self.phi_table = oracles.and_xor_table(n, self.blocks)
        self.g_table = oracles.and_or_table(n, self.blocks)
        self.and_s = core.BooleanFunction(n, oracles.and_table(n, self.coords))
        self.phi = core.BooleanFunction(n, self.phi_table)
        self.g = core.BooleanFunction(n, self.g_table)

    def warm_up(self):
        n, blocks = 10, [[0, 1], [2]]
        and_s = core.BooleanFunction(n, oracles.and_table(n, [0, 3]))
        fourier.transform_table(and_s.table, n, 0.3)
        noise.downward_noise_table(oracles.and_xor_table(n, blocks), n, 0.5)
        analysis.solve_exact_pair(core.BooleanFunction(n, oracles.and_or_table(n, blocks)), 0.5)
        analysis.distance_to_constant_or_and(and_s, 0.5)
        noise.noise_sensitivity(and_s, 0.5, 0.1)

    def prepare_checks(self):
        self.spec_idx, self.spec_val = oracles.and_spectrum(self.coords, 0.3)
        self.width = len(self.blocks)
        self.ns_want = oracles.and_noise_sensitivity(self.AND_SIZE, 0.5, 0.1)

    def op(self, i):
        n = self.N
        kind = self.KINDS[i % 5]
        if kind == "transform":
            return kind, lambda: fourier.transform_table(self.and_s.table, n, 0.3)
        if kind == "noise":
            return kind, lambda: noise.downward_noise_table(self.phi.table, n, 0.5)
        if kind == "solve":
            return kind, lambda: analysis.solve_exact_pair(self.g, 0.5)
        if kind == "distance":
            return kind, lambda: analysis.distance_to_constant_or_and(self.and_s, 0.5)
        return kind, lambda: noise.noise_sensitivity(self.and_s, 0.5, 0.1)

    def check(self, i, out):
        kind = self.KINDS[i % 5]
        scale = 2.0 ** self.width
        if kind == "transform":
            if not _close(out[self.spec_idx], self.spec_val, 1e-12):
                return "AND_S coefficients on subsets of S differ from the closed form"
            out[self.spec_idx] = 0.0
            if not _close(out, 0.0, 1e-12):
                return "AND_S has a nonzero coefficient outside the subsets of S"
        elif kind == "noise":
            if not np.array_equal(out * scale, self.g_table):
                return "T(AND-XOR) differs from 2^-width * AND-OR"
        elif kind == "solve":
            if not out.feasible or out.lam_max != 1.0 / scale:
                return f"solve: feasible={out.feasible} lam_max={out.lam_max}"
            if not np.array_equal(out.preimage / scale, self.phi_table):
                return "preimage of AND-OR differs from 2^width * AND-XOR"
        elif kind == "distance":
            if out.kind != "and" or out.witness != frozenset(self.coords) or abs(out.distance) > 1e-12:
                return f"distance verdict {out.kind} {sorted(out.witness)} {out.distance}"
        elif not out.exact or abs(out.estimate - self.ns_want) > 1e-9 * self.ns_want:
            return f"NS(AND_S) = {out.estimate}, closed form {self.ns_want}"
        return None


class Batch(Workload):
    """The same kernel over leading batch axes with short rows.

    Three ops per cycle are cheaper than classify and three dearer, so the
    median op falls inside the classify ops, not between two op kinds.
    """

    name = "batch"
    unit_ops = 9
    ROWS = 256
    N_BLOCK = 12
    CLASSIFY_RHOS = (0.3, 0.5, 0.7)
    INVERT_RHOS = (0.5, 0.25)
    FEASIBLE = {0.5: 53, 0.25: 17}
    NOISE_RHO = 0.5
    TRANSFORM_PS = (0.3, 0.5, 0.7)

    def generate(self):
        rng = np.random.default_rng(self.seed)
        self.all4 = oracles.all_tables(4)
        self.and_masks = rng.integers(0, 1 << self.N_BLOCK, size=self.ROWS)
        self.and_block = oracles.and_tables(self.N_BLOCK, self.and_masks)
        self.random_block = rng.integers(0, 2, (self.ROWS, 1 << self.N_BLOCK), dtype=np.uint8)

    def warm_up(self):
        analysis.classify_boolean_eigens(2, 0.5)
        noise.invert_downward(oracles.all_tables(2), 0.5)
        noise.downward_noise_table(self.and_block[:4, :64], 6, 0.5)
        fourier.transform_table(self.random_block[:4, :64], 6, 0.5)

    def prepare_checks(self):
        self.eigens = {rho: oracles.boolean_eigens(4, rho) for rho in self.CLASSIFY_RHOS}
        self.matrices = {rho: oracles.noise_matrix(4, rho) for rho in self.INVERT_RHOS}
        sizes = oracles.popcount(self.and_masks).astype(np.float64)
        self.noise_want = self.NOISE_RHO ** sizes[:, None] * self.and_block
        self.means = {p: self.random_block @ oracles.measure_weights(self.N_BLOCK, p)
                      for p in self.TRANSFORM_PS}

    def _kind(self, i):
        k = i % 9
        if k < 3:
            return "classify", self.CLASSIFY_RHOS[k]
        if k < 5:
            return "invert", self.INVERT_RHOS[k - 3]
        return ("noise", self.NOISE_RHO) if k == 5 else ("transform", self.TRANSFORM_PS[k - 6])

    def op(self, i):
        kind, x = self._kind(i)
        if kind == "classify":
            return kind, lambda: analysis.classify_boolean_eigens(4, x)
        if kind == "invert":
            return kind, lambda: noise.invert_downward(self.all4, x)
        if kind == "noise":
            return kind, lambda: noise.downward_noise_table(self.and_block, self.N_BLOCK, x)
        return kind, lambda: fourier.transform_table(self.random_block, self.N_BLOCK, x)

    def check(self, i, out):
        kind, x = self._kind(i)
        if kind == "classify":
            want = self.eigens[x]
            got = {f.table.tobytes(): lam for f, lam in out}
            if len(out) != 17 or got.keys() != want.keys():
                return f"classify rho={x}: {len(out)} eigenfunctions, expected zero and the 16 ANDs"
            for key, lam in got.items():
                if (lam is None) != (want[key] is None) or (
                        lam is not None and abs(lam - want[key]) > 1e-12):
                    return f"classify rho={x}: eigenvalue {lam}, eigen law gives {want[key]}"
        elif kind == "invert":
            feasible = int(np.count_nonzero(out.min(axis=1) >= -1e-12))
            if feasible != self.FEASIBLE[x]:
                return f"invert rho={x}: {feasible} feasible tables, expected {self.FEASIBLE[x]}"
            if not _close(out @ self.matrices[x].T, self.all4, 1e-9):
                return f"invert rho={x}: T(preimage) differs from the tables"
        elif kind == "noise":
            if not _close(out, self.noise_want, 1e-12):
                return "T(AND_S) differs from rho^|S| * AND_S"
        else:
            if not _close(out[:, 0], self.means[x], 1e-12):
                return f"p={x}: empty-set coefficient differs from the mean"
            if not _close(np.sum(out * out, axis=1), self.means[x], 1e-9):
                return "Parseval: sum of squared coefficients differs from the mean"
        return None


SWEEP_HEADER = ("seed,n,p,rho,lambda,epsilon_hom,eta_residual,"
                "delta_const_and,delta_andor,verdict_kind,witness")


class Sweep(Workload):
    """`polyspec sweep` on the README example config with trials=1."""

    name = "sweep"
    unit_ops = 1
    # At about 2 s an op, --seconds 20 gives ~10 ops, and the tail percentile
    # with 10 ops beyond it would be the fastest op; 15 ops make it the 5th
    # fastest, a less extreme and steadier order statistic.
    min_ops = 15
    SIZES = (8, 10, 12)
    PERTURBATIONS = (0, 1, 2, 4, 8, 16)
    CONFIG = ("family=and\nsizes=8,10,12\nperturbations=0,1,2,4,8,16\n"
              "trials=1\np=0.5\nrho=0.5\nseed=1414\n")

    def generate(self):
        self.config = self.workdir / "sweep.cfg"
        self.config.write_text(self.CONFIG)
        self.out = self.workdir / "sweep.csv"

    def warm_up(self):
        small = self.workdir / "warm.cfg"
        small.write_text("family=and\nsizes=5\nperturbations=0,1\ntrials=1\nseed=1\n")
        cli.main(["sweep", "--config", str(small), "--out", str(self.workdir / "warm.csv")])

    def op(self, i):
        argv = ["sweep", "--config", str(self.config), "--seed", str(self.seed + i),
                "--out", str(self.out)]
        return "sweep", lambda: cli.main(argv)

    def check(self, i, rc):
        if rc != 0:
            return f"sweep exit code {rc}"
        lines = self.out.read_text().splitlines()
        if lines[0] != SWEEP_HEADER:
            return f"sweep header {lines[0]!r}"
        rows = [line.split(",") for line in lines[1:]]
        want_n = [n for n in self.SIZES for _ in self.PERTURBATIONS]
        if len(rows) != len(want_n):
            return f"sweep wrote {len(rows)} rows, expected {len(want_n)}"
        for r, (row, n) in enumerate(zip(rows, want_n)):
            if len(row) != 11 or row[0] != str(self.seed + i) or row[1] != str(n):
                return f"sweep row {r}: {row}"
            values = [float(v) for v in row[2:9]]
            if self.PERTURBATIONS[r % len(self.PERTURBATIONS)] == 0 and (
                    abs(values[3]) > 1e-9 or abs(values[5]) > 1e-9 or abs(values[6]) > 1e-9):
                return f"unperturbed sweep row {r} has a nonzero defect: {row}"
        return None

    def final_checks(self):
        out = self.workdir / "golden.csv"
        rc = cli.main(["sweep", "--config", str(self.config), "--out", str(out)])
        if rc != 0 or out.read_bytes() != GOLDEN_SWEEP.read_bytes():
            return ["sweep at the config's own seed differs from golden/sweep_seed1414.csv"]
        return []


class Pipeline(Workload):
    """A file-based CLI session at n = 18; one op is one subcommand."""

    name = "pipeline"
    unit_ops = 9
    N = 18
    BLOCK_SIZES = (3, 3, 2, 2)
    STEPS = ("make-andor", "make-andxor", "noise", "transform", "profile",
             "solve", "audit", "ns", "test-hom")

    def generate(self):
        self.rng = np.random.default_rng(self.seed)
        self.dir = self.workdir / "session"
        self.dir.mkdir(exist_ok=True)

    def warm_up(self):
        for step in range(len(self.STEPS)):
            self._call(self._argv(step, 6, [[0, 1], [2]], self.workdir))()

    def _new_session(self):
        self.blocks = oracles.random_blocks(self.rng, self.N, self.BLOCK_SIZES)
        self.width = len(self.blocks)
        self.g_table = oracles.and_or_table(self.N, self.blocks)
        self.phi_table = oracles.and_xor_table(self.N, self.blocks)

    def _argv(self, step, n, blocks, d):
        f, g = str(d / "f.json"), str(d / "g.json")
        lam = repr(2.0 ** -len(blocks))
        return [
            ["make", "--family", "andor", "--n", str(n), "--blocks", oracles.blocks_arg(blocks), "--out", g],
            ["make", "--family", "andxor", "--n", str(n), "--blocks", oracles.blocks_arg(blocks), "--out", f],
            ["noise", "--rho", "0.5", "--in", f, "--out", str(d / "tf.json")],
            ["transform", "--p", "0.5", "--in", g, "--out", str(d / "spec.json")],
            ["profile", "--p", "0.5", "--in", g, "--out", str(d / "prof.json")],
            ["solve", "--rho", "0.5", "--in", g, "--out", str(d / "sol.json")],
            ["audit", "--theorem", "2.2", "--f", f, "--g", g, "--lambda", lam, "--out", str(d / "audit.json")],
            ["ns", "--nu", "0.1", "--in", g, "--out", str(d / "ns.json")],
            ["test-hom", "--fn", "maj3", "--n", "13", "--exact"],
        ][step]

    @staticmethod
    def _call(argv):
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue()
        return call

    def op(self, i):
        step = i % len(self.STEPS)
        if step == 0:
            self._new_session()
        return self.STEPS[step], self._call(self._argv(step, self.N, self.blocks, self.dir))

    def _read(self, name):
        return json.loads((self.dir / name).read_text())

    def _bits(self, name):
        data = self._read(name)
        raw = np.frombuffer(bytes.fromhex(data["bits_hex"]), dtype=np.uint8)
        return data, np.unpackbits(raw, bitorder="little")[: 1 << self.N]

    def check(self, i, out):
        rc, stdout = out
        step = self.STEPS[i % len(self.STEPS)]
        if rc != 0:
            return f"{step}: exit code {rc}"
        scale = 2.0 ** self.width
        support = sum(len(b) for b in self.blocks)
        if step in ("make-andor", "make-andxor"):
            data, bits = self._bits("g.json" if step == "make-andor" else "f.json")
            want = self.g_table if step == "make-andor" else self.phi_table
            if data["n"] != self.N or data["kind"] != "boolean" or not np.array_equal(bits, want):
                return f"{step}: table differs from the block formula"
        elif step == "noise":
            data = self._read("tf.json")
            if data["kind"] != "bounded" or not np.array_equal(np.array(data["values"]) * scale, self.g_table):
                return "noise: T(AND-XOR) differs from 2^-width * AND-OR"
        elif step == "transform":
            data = self._read("spec.json")
            if not _close(data["values"], oracles.and_or_spectrum(self.N, self.blocks, 0.5), 1e-12):
                return "transform: AND-OR spectrum differs from the block product"
        elif step == "profile":
            data = self._read("prof.json")
            if (not _close(data["influences"], oracles.and_or_influences(self.N, self.blocks, 0.5), 1e-12)
                    or not _close(data["negative_influences"], 0.0, 1e-15)
                    or data["monotone"] is not True or data["degree"] != support
                    or data["max_sensitivity"] != oracles.and_or_sensitivity(self.blocks)):
                return "profile: differs from the AND-OR closed forms"
        elif step == "solve":
            data = self._read("sol.json")
            if (data["feasible"] is not True or data["lambda_max"] != 1.0 / scale
                    or data["negative_mass"] != 0.0
                    or not np.array_equal(np.array(data["preimage"]) / scale, self.phi_table)):
                return "solve: preimage of AND-OR is not 2^width * AND-XOR"
        elif step == "audit":
            data = self._read("audit.json")
            verdict = data["verdict"]
            if (abs(data["premise"]["eta_residual"]) > 1e-12 or verdict["kind"] != "and_or"
                    or verdict["witness"] != oracles.partition_string(self.blocks)
                    or abs(verdict["distance"]) > 1e-12
                    or data["conclusion"]["width"] != self.width
                    or abs(data["conclusion"]["delta_f_avg_l1"]) > 1e-12):
                return f"audit: {data}"[:300]
        elif step == "ns":
            data = self._read("ns.json")
            want = oracles.and_or_noise_sensitivity(self.blocks, 0.5, 0.1)
            if data["exact"] is not True or abs(data["estimate"] - want) > 1e-9 * want:
                return f"ns: {data['estimate']}, closed form {want}"
        elif stdout != "0.90625\n":
            return f"test-hom printed {stdout!r}"
        return None


WORKLOADS = {w.name: w for w in (BigTable, Batch, Sweep, Pipeline)}
