import inspect
import json
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import polyspec as ps
from polyspec.analysis import ExperimentConfig
from polyspec.cli import build_parser, main, stream_rng
from conftest import json_io_functions
from oracles import streamed_json_bytes, to_json_dict

SUBCOMMANDS = ["transform", "noise", "ns", "profile", "make", "classify",
               "solve", "test-hom", "prs", "audit", "sweep"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "usage: polyspec" in out and command in out


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_make_then_noise_pipeline(tmp_path, capsys):
    fn = tmp_path / "andxor.json"
    out = tmp_path / "noised.json"
    assert main(["make", "--family", "andxor", "--n", "3",
                 "--blocks", "0,1;2", "--out", str(fn)]) == 0
    assert main(["noise", "--rho", "0.5", "--in", str(fn),
                 "--out", str(out)]) == 0
    noised = ps.load_function(out)
    target = ps.make_and_or(3, ps.BlockPartition(({0, 1}, {2})))
    assert np.abs(noised.table - 0.25 * target.table).max() < 1e-12


@pytest.mark.parametrize("f", json_io_functions(), ids=repr)
def test_noise_out_bytes_match_streaming_encoder(f, tmp_path, capsys):
    fn = tmp_path / "in.json"
    out = tmp_path / "out.json"
    ps.save_function(f, fn)
    assert main(["noise", "--rho", "0.3", "--in", str(fn), "--out", str(out)]) == 0
    expect = to_json_dict(ps.downward_noise(ps.load_function(fn), 0.3))
    assert out.read_bytes() == streamed_json_bytes(expect, tmp_path / "ref.json")
    assert main(["noise", "--rho", "0.3", "--in", str(fn)]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("argv", [
    ["--family", "and", "--n", "0"],
    ["--family", "andor", "--n", "3", "--blocks", "0,1;2"],
    ["--family", "f2", "--n", "5", "--seed", "4"],
], ids=" ".join)
def test_make_prints_the_bytes_of_its_out_file(argv, tmp_path, capsys):
    out = tmp_path / "f.json"
    assert main(["make", *argv, "--out", str(out)]) == 0
    expect = to_json_dict(ps.load_function(out))
    assert out.read_bytes() == streamed_json_bytes(expect, tmp_path / "ref.json")
    assert main(["make", *argv]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def _assert_emitted(argv, expect: dict | str, out, capsys):
    """The command's --out file and its stdout both hold json.dumps(expect)
    with sorted keys, or the text expect."""
    text = expect if isinstance(expect, str) else json.dumps(expect, sort_keys=True) + "\n"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()
    assert main(argv) == 0
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("p", [0.5, 0.3])
@pytest.mark.parametrize("f", json_io_functions(), ids=repr)
def test_transform_bytes_match_json_dumps(f, p, tmp_path, capsys):
    fn = tmp_path / "in.json"
    ps.save_function(f, fn)
    spec = ps.fourier_transform(ps.load_function(fn), p)
    expect = {"n": spec.n, "kind": "spectrum", "p": p, "values": spec.coeffs.tolist()}
    _assert_emitted(["transform", "--p", str(p), "--in", str(fn)], expect,
                    tmp_path / "spec.json", capsys)


# Every document but a function file, as the command prints it and writes it
# with --out: the keys of every dict sorted.  f is the AND-XOR and g the
# AND-OR of the blocks {0, 1}, {2} at n = 3.
PINNED_DOCUMENTS = {
    "transform": (["transform", "--p", "0.3", "--in", "{f}"],
                  '{"kind": "spectrum", "n": 3, "p": 0.3, "values": [0.126, 0.054990908339470075, '
                  '0.054990908339470075, -0.126, 0.19246817918814527, 0.08399999999999999, '
                  '0.08399999999999999, -0.19246817918814527]}'),
    "profile": (["profile", "--p", "0.3", "--in", "{f}"],
                '{"degree": 3, "influences": [0.3, 0.3, 0.42], "max_sensitivity": 3, '
                '"monotone": false, "negative_influences": [0.09, 0.09, 0.0], "p": 0.3}'),
    "ns": (["ns", "--nu", "0.2", "--in", "{f}"],
           '{"estimate": 0.13099999999999998, "exact": true, "samples": 0, "std_error": 0.0}'),
    "ns-sampled": (["ns", "--nu", "0.2", "--samples", "50", "--seed", "3", "--in", "{f}"],
                   '{"estimate": 0.18, "exact": false, "samples": 50, '
                   '"std_error": 0.054332310828824504}'),
    "classify": (["classify", "--n", "2", "--rho", "0.5"],
                 '{"count": 5, "eigenfunctions": [{"bits_hex": "00", "lambda": null}, '
                 '{"bits_hex": "08", "lambda": 0.25}, {"bits_hex": "0a", "lambda": 0.5}, '
                 '{"bits_hex": "0c", "lambda": 0.5}, {"bits_hex": "0f", "lambda": 1.0}], '
                 '"n": 2, "rho": 0.5}'),
    "solve": (["solve", "--rho", "0.25", "--in", "{g}"],
              '{"feasible": false, "lambda_max": null, "negative_mass": 32.0, '
              '"preimage": [0.0, 0.0, 0.0, 0.0, 0.0, 16.0, 16.0, -32.0]}'),
    "prs": (["prs", "--in", "{f}"],
            '{"accepted": false, "agreement": 0.90625, "agreement_min": 0.95, "exact": true, '
            '"expectation": 0.25, "expectation_window": 0.05, "std_error": 0.0}'),
    "prs-sampled": (["prs", "--in", "{f}", "--samples", "40", "--seed", "2"],
                    '{"accepted": false, "agreement": 0.8, "agreement_min": 0.95, '
                    '"exact": false, "expectation": 0.175, "expectation_window": 0.05, '
                    '"std_error": 0.06324555320336758}'),
    "audit-2.2": (["audit", "--theorem", "2.2", "--f", "{f}", "--g", "{g}", "--lambda", "0.25"],
                  '{"conclusion": {"delta_f_avg_l1": 0.0, "delta_f_avg_linf": 0.0, '
                  '"delta_g": 0.0, "width": 2.0}, "notes": [], "premise": {"eta_residual": 0.0}, '
                  '"theorem": "half-rho", "verdict": {"distance": 0.0, "kind": "and_or", '
                  '"witness": "0+1;2"}}'),
    "audit-2.6": (["audit", "--theorem", "2.6", "--f", "{g}", "--g", "{g}", "--h", "{g}"],
                  '{"conclusion": {"delta_f": 0.046875, "delta_g": 0.125, "delta_h": 0.125, '
                  '"delta_zero_f": 0.109375, "delta_zero_gh": 0.375}, "notes": [], '
                  '"premise": {"epsilon_hom": 0.03125}, "theorem": "triple", '
                  '"verdict": {"distance": 0.125, "kind": "and", "witness": "2"}}'),
    "audit-2.8": (["audit", "--theorem", "2.8", "--f", "{f}", "--g", "{g}", "--lambda", "0.25"],
                  '{"conclusion": {"delta_g_monotone_junta": 0.0}, "notes": [], '
                  '"premise": {"eta1": 0.0, "eta2": 0.0}, "theorem": "one-sided", '
                  '"verdict": {"distance": 0.0, "kind": "monotone_junta", "witness": "0+1+2"}}'),
    "sweep": (["sweep", "--config", "{cfg}"],
              "seed,n,p,rho,lambda,epsilon_hom,eta_residual,delta_const_and,delta_andor,"
              "verdict_kind,witness\n"
              "3,4,0.5,0.5,0.25,0,0,0,0,and,0+3\n"
              "3,4,0.5,0.5,0.375,0.0625,0.046875,0.125,0.125,and,0+3\n"
              "3,5,0.5,0.5,0.25,0,0,0,0,and,0+4\n"
              "3,5,0.5,0.5,0.25,0.025390625,0.013671875,0.0625,0.0625,and,0+4"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DOCUMENTS))
def test_documents_print_the_bytes_they_write(name, tmp_path, capsys):
    part = ps.BlockPartition(({0, 1}, {2}))
    paths = {"f": tmp_path / "f.json", "g": tmp_path / "g.json", "cfg": tmp_path / "s.cfg"}
    ps.save_function(ps.make_and_xor(3, part), paths["f"])
    ps.save_function(ps.make_and_or(3, part), paths["g"])
    paths["cfg"].write_text("family=and\nsizes=4,5\nperturbations=0,2\ntrials=1\nseed=3\n")
    argv, text = PINNED_DOCUMENTS[name]
    _assert_emitted([a.format(**paths) for a in argv], text + "\n", tmp_path / "out", capsys)


def test_one_json_form_and_no_command_names_in_main():
    assert list(inspect.signature(ps.core.dumps).parameters) == ["obj"]
    source = inspect.getsource(main)
    assert [c for c in SUBCOMMANDS if f'"{c}"' in source or f"'{c}'" in source] == []


SOLVE_CASES = [pytest.param(f, "0.25", id=f"n{f.n}") for f in json_io_functions()
               if isinstance(f, ps.BooleanFunction)] + [
    pytest.param(ps.make_and(3, range(3)), "1e-100", id="entry-1e300"),
    pytest.param(ps.make_and(3, range(3)), "1e-200", id="infinity"),
    pytest.param(ps.make_xor(3, range(3)), "1e-200", id="signed-infinities"),
]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("g, rho", SOLVE_CASES)
def test_solve_bytes_match_json_dumps(g, rho, tmp_path, capsys):
    fn = tmp_path / "g.json"
    ps.save_function(g, fn)
    sol = ps.solve_exact_pair(ps.load_function(fn), float(rho))
    expect = {"feasible": sol.feasible, "lambda_max": sol.lam_max,
              "negative_mass": sol.negative_mass, "preimage": sol.preimage.tolist()}
    _assert_emitted(["solve", "--rho", rho, "--in", str(fn)], expect,
                    tmp_path / "sol.json", capsys)


def test_noise_iterated_flag(tmp_path):
    fn = tmp_path / "and.json"
    out = tmp_path / "t3.json"
    assert main(["make", "--family", "and", "--n", "3", "--coords", "0,1",
                 "--out", str(fn)]) == 0
    assert main(["noise", "--rho", "0.5", "--m", "3", "--in", str(fn),
                 "--out", str(out)]) == 0
    t3 = ps.load_function(out)
    assert np.abs(t3.table - 0.0625 * ps.make_and(3, [0, 1]).table).max() < 1e-12
    assert main(["noise", "--rho", "0.5", "--m", "1", "--in", str(fn)]) == 2


def test_noise_arity_whose_retention_underflows_exits_2_naming_m(tmp_path, capsys):
    fn = tmp_path / "g.json"
    ps.save_function(ps.make_and(3, [0]), fn)
    assert main(["noise", "--rho", "0.5", "--m", "2000", "--in", str(fn)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("polyspec: arity m = 2000 underflows the retention "
                            "0.5^(m-1) to 0\n")


HUGE_M = "1" + "0" * 400
OUT_OF_FLOAT_RANGE = {
    "noise m=10^400": (["noise", "--rho", "0.5", "--m", HUGE_M, "--in", "{g}"],
                       f"arity m = {HUGE_M} underflows the retention 0.5^(m-1) to 0"),
    "audit 2.1 rho=1e-320": (["audit", "--theorem", "2.1", "--lambda", "0.25", "--rho", "1e-320",
                              "--f", "{g}", "--g", "{g}"],
                             "rho = 1e-320 overflows rho^-|T| at |T| = 2"),
    "audit 2.1 lambda=1e-320": (["audit", "--theorem", "2.1", "--lambda", "1e-320",
                                 "--f", "{g}", "--g", "{g}"], 1065),
    "audit 2.4 lambda=1e-320": (["audit", "--theorem", "2.4", "--lambda", "1e-320",
                                 "--f", "{g}", "--g", "{g}"], 1065),
    "solve rho=1e-300": (["solve", "--rho", "1e-300", "--in", "{g}"],
                         "rho = 1e-300 overflows the preimage to NaN at n = 3"),
    "solve rho=1e-320": (["solve", "--rho", "1e-320", "--in", "{g}"],
                         "rho = 1e-320 overflows the preimage to NaN at n = 3"),
}


@pytest.mark.parametrize("argv,expect", OUT_OF_FLOAT_RANGE.values(), ids=list(OUT_OF_FLOAT_RANGE))
def test_inputs_at_the_ends_of_the_float_range_give_a_report_or_exit_2(
        argv, expect, tmp_path, capsys):
    """Each audit and noise case ended in an OverflowError traceback and
    exit 1, and each solve case exited 0 with NaN in its JSON.  A huge m, a
    rho whose -|T|-th power overflows and a rho whose inverse makes the
    preimage NaN now exit 2 with one stderr line and nothing on stdout;
    lambda = 1e-320 lies in (0, 1], so it gets a report, with the witness
    size bound ceil(log2(2 / lambda))."""
    fn = tmp_path / "g.json"
    ps.save_function(ps.make_and(3, [0, 1]), fn)
    code = main([a.format(g=fn) for a in argv])
    captured = capsys.readouterr()
    if isinstance(expect, str):
        assert (code, captured.out, captured.err) == (2, "", f"polyspec: {expect}\n")
    else:
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out)["conclusion"]["witness_size_bound"] == expect


@pytest.mark.parametrize("theorem", ["2.1", "2.2", "2.3", "2.4", "2.6", "2.8"])
def test_audit_whose_input_bias_underflows_names_rho_times_p(theorem, tmp_path, capsys):
    """At p = rho = 1e-200 the input-side bias rho * p is 0.0.  Every audit
    that reads it exits 2 naming rho * p, not a bias the user did not give;
    2.8 never reads it and reports."""
    paths = {k: tmp_path / f"{k}.json" for k in "fgh"}
    for path in paths.values():
        ps.save_function(ps.make_and(3, [0, 1]), path)
    files = [a for k, path in paths.items() for a in (f"--{k}", str(path))]
    code = main(["audit", "--theorem", theorem, "--p", "1e-200", "--rho", "1e-200",
                 "--lambda", "0.25", *files])
    captured = capsys.readouterr()
    if theorem == "2.8":
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out)["theorem"] == "one-sided"
    else:
        assert (code, captured.out, captured.err) == (
            2, "", "polyspec: rho * p = 1e-200 * 1e-200 underflows to 0\n")


def test_noise_arity_defaults_to_plain_operator(tmp_path, capsys):
    fn = tmp_path / "andor.json"
    assert main(["make", "--family", "andor", "--n", "6", "--blocks", "0,1;2,4",
                 "--out", str(fn)]) == 0
    capsys.readouterr()
    assert main(["noise", "--rho", "0.3", "--m", "0", "--in", str(fn)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "arity m must be at least 2, got 0" in captured.err
    assert main(["noise", "--rho", "0.3", "--in", str(fn)]) == 0
    default = capsys.readouterr().out
    assert main(["noise", "--rho", "0.3", "--m", "2", "--in", str(fn)]) == 0
    assert capsys.readouterr().out == default
    assert default == json.dumps(to_json_dict(
        ps.downward_noise(ps.load_function(fn), 0.3))) + "\n"


def test_make_counterexample_families(tmp_path, capsys):
    for args in (["--family", "f1", "--n", "12"],
                 ["--family", "f2", "--n", "12", "--lambda", "0.6",
                  "--seed", "3"],
                 ["--family", "midslice", "--n", "12",
                  "--window-scale", "0.5"]):
        assert main(["make", *args]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "boolean" and data["n"] == 12


def test_audit_triple_via_files(tmp_path, capsys):
    fn = tmp_path / "and.json"
    ps.save_function(ps.make_and(3, [0, 1]), fn)
    assert main(["audit", "--theorem", "2.6", "--f", str(fn), "--g", str(fn),
                 "--h", str(fn), "--p", "0.5", "--rho", "0.5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["premise"]["epsilon_hom"] == pytest.approx(0.0, abs=1e-12)
    assert data["conclusion"]["delta_g"] == 0.0


def test_test_hom_prints_reference_value(capsys):
    assert main(["test-hom", "--fn", "maj3", "--exact"]) == 0
    assert capsys.readouterr().out.strip() == "0.90625"


@pytest.mark.parametrize("name,f", [("dictator", ps.make_and(4, [0])),
                                    ("xor2", ps.make_xor(4, [0, 1]))])
def test_test_hom_builtin_functions(name, f, capsys):
    assert main(["test-hom", "--fn", name, "--n", "4", "--exact"]) == 0
    want = ps.homomorphism_agreement(f, 0.5, 0.5).estimate
    assert capsys.readouterr().out == format(want, ".12g") + "\n"


def test_test_hom_unknown_builtin_exits_2(capsys):
    assert main(["test-hom", "--fn", "tribes", "--exact"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "polyspec: unknown builtin function 'tribes'\n"


# commands that read only Boolean functions, each given a bounded file at {b}
# ({f} is a Boolean file); audit takes any --f, but a Boolean --g and --h
BOOLEAN_ONLY_ARGV = {
    **{f"audit-{t}.g": ["audit", "--theorem", t, "--lambda", "0.25", "--f", "{b}", "--g", "{b}"]
       for t in ("2.1", "2.2", "2.3", "2.4", "2.8")},
    "audit-2.6.h": ["audit", "--theorem", "2.6", "--f", "{f}", "--g", "{f}", "--h", "{b}"],
    "ns": ["ns", "--nu", "0.1", "--in", "{b}"],
    "solve": ["solve", "--rho", "0.5", "--in", "{b}"],
    "prs": ["prs", "--in", "{b}"],
    "test-hom.in": ["test-hom", "--in", "{b}", "--exact"],
    "test-hom.g": ["test-hom", "--fn", "maj3", "--g", "{b}", "--exact"],
    "test-hom.h": ["test-hom", "--fn", "maj3", "--h", "{b}", "--exact"],
}


@pytest.mark.parametrize("site", sorted(BOOLEAN_ONLY_ARGV))
def test_boolean_only_commands_reject_a_bounded_file(site, tmp_path, capsys):
    bounded = tmp_path / "b.json"
    ps.save_function(ps.BoundedFunction(3, np.full(8, 0.5)), bounded)
    ps.save_function(ps.make_and(3, [0]), tmp_path / "f.json")
    paths = {"{b}": str(bounded), "{f}": str(tmp_path / "f.json")}
    argv = [paths.get(a, a) for a in BOOLEAN_ONLY_ARGV[site]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"polyspec: function file {str(bounded)!r} holds a bounded "
                            f"function, not a Boolean one\n")


def test_test_hom_requires_input(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["test-hom", "--exact"])
    assert exc.value.code == 2
    # exactly one of --fn and --in: a file next to a builtin is not ignored
    fn = tmp_path / "f.json"
    ps.save_function(ps.make_and(3, [0]), fn)
    with pytest.raises(SystemExit) as exc:
        main(["test-hom", "--fn", "maj3", "--in", str(fn), "--exact"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_classify_lists_nine_eigenfunctions(capsys):
    assert main(["classify", "--n", "3", "--rho", "0.5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 9
    lams = sorted(e["lambda"] for e in data["eigenfunctions"]
                  if e["lambda"] is not None)
    assert lams == pytest.approx([0.125, 0.25, 0.25, 0.25,
                                  0.5, 0.5, 0.5, 1.0], abs=1e-12)


def test_classify_runs_up_to_n5(capsys):
    assert main(["classify", "--n", "5", "--rho", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 33
    assert main(["classify", "--n", "6", "--rho", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "polyspec: eigen classification is capped at n = 5\n"


def test_transform_writes_spectrum(tmp_path, capsys):
    fn = tmp_path / "f.json"
    ps.save_function(ps.make_and(2, [0, 1]), fn)
    out = tmp_path / "spec.json"
    assert main(["transform", "--p", "0.5", "--in", str(fn),
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "spectrum" and data["p"] == 0.5
    assert data["values"] == pytest.approx([0.25] * 4, abs=1e-12)


def test_profile_reports_json(tmp_path, capsys):
    fn = tmp_path / "f.json"
    ps.save_function(ps.make_majority3(), fn)
    assert main(["profile", "--p", "0.5", "--in", str(fn)]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["monotone"] is True
    assert data["max_sensitivity"] == 2 and data["degree"] == 3
    assert out == ('{"degree": 3, "influences": [0.5, 0.5, 0.5], "max_sensitivity": 2, '
                   '"monotone": true, "negative_influences": [0.0, 0.0, 0.0], "p": 0.5}\n')


def test_ns_exact(tmp_path, capsys):
    fn = tmp_path / "f.json"
    ps.save_function(ps.make_and(3, [0]), fn)
    assert main(["ns", "--nu", "0.2", "--in", str(fn)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["exact"] is True
    assert data["estimate"] == pytest.approx(0.1, abs=1e-12)


def test_solve_reports_feasibility(tmp_path, capsys):
    fn = tmp_path / "or.json"
    ps.save_function(ps.make_or(2, [0, 1]), fn)
    assert main(["solve", "--rho", "0.25", "--in", str(fn)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["feasible"] is False
    assert data["negative_mass"] == pytest.approx(8.0)


def test_prs_cli(tmp_path, capsys):
    fn = tmp_path / "d.json"
    ps.save_function(ps.make_and(4, [0]), fn)
    assert main(["prs", "--in", str(fn)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["accepted"] is True and data["exact"] is True


def test_audit_strict_exit_codes(tmp_path, capsys):
    part = ps.BlockPartition(({0, 1},))
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    ps.save_function(ps.make_and_xor(3, part), f)
    ps.save_function(ps.make_and_or(3, part), g)
    ok = main(["audit", "--theorem", "2.2", "--f", str(f), "--g", str(g),
               "--p", "0.5", "--rho", "0.5", "--lambda", "0.5",
               "--strict", "--eta", "1e-6", "--eps", "1e-6"])
    assert ok == 0
    # a far-from-structured pair under tight thresholds fails strict mode
    rng = np.random.default_rng(0)
    bad = tmp_path / "bad.json"
    ps.save_function(ps.BooleanFunction(3, rng.integers(0, 2, 8)), bad)
    code = main(["audit", "--theorem", "2.1", "--f", str(bad), "--g", str(bad),
                 "--p", "0.5", "--rho", "0.4", "--lambda", "0.9",
                 "--strict", "--eta", "10", "--eps", "1e-9"])
    assert code == 1


AUDIT_BAD_THRESHOLDS = [
    (["--eta", "nan", "--eps", "nan"], "--eta must be at least 0, got nan"),
    (["--eta", "-1", "--eps", "-1"], "--eta must be at least 0, got -1.0"),
    (["--eta", "0.9", "--eps", "nan"], "--eps must be at least 0, got nan"),
    (["--eta", "0.9", "--eps", "-1"], "--eps must be at least 0, got -1.0"),
]


@pytest.mark.parametrize("thresholds,message", AUDIT_BAD_THRESHOLDS,
                         ids=[" ".join(argv) for argv, _ in AUDIT_BAD_THRESHOLDS])
def test_audit_thresholds_below_zero_exit_2_before_any_file_is_read(
        thresholds, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    ps.save_function(ps.BooleanFunction(3, np.random.default_rng(0).integers(0, 2, 8)), bad)
    argv = ["audit", "--theorem", "2.1", "--f", str(bad), "--g", str(bad), "--p", "0.5",
            "--rho", "0.4", "--lambda", "0.9", "--strict"]
    assert main(argv + ["--eta", "0.9", "--eps", "0"]) == 1     # the gate rejects this pair
    capsys.readouterr()
    for f in (str(bad), str(tmp_path / "missing.json")):
        argv[4] = f
        assert main(argv + thresholds) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"polyspec: {message}\n"


def test_audit_unknown_theorem_exits_2(tmp_path, capsys):
    fn = tmp_path / "f.json"
    ps.save_function(ps.make_and(2, [0]), fn)
    assert main(["audit", "--theorem", "bogus", "--f", str(fn), "--g", str(fn)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "polyspec: unknown theorem id 'bogus'\n"


# each path flag given as an empty string, in every command that takes it;
# {f} is a Boolean function file and {cfg} a sweep config whose out= names
# a file, so an empty path that counted as "not given" would write it
EMPTY_PATH_ARGV = [
    ("in", ["transform", "--p", "0.5", "--in", ""]),
    ("in", ["test-hom", "--in", "", "--exact"]),
    ("out", ["make", "--family", "and", "--n", "2", "--coords", "0", "--out", ""]),
    ("out", ["noise", "--rho", "0.5", "--in", "{f}", "--out", ""]),
    ("out", ["sweep", "--config", "{cfg}", "--out", ""]),
    ("f", ["audit", "--theorem", "2.1", "--lambda", "0.5", "--f", "", "--g", "{f}"]),
    ("g", ["audit", "--theorem", "2.1", "--lambda", "0.5", "--f", "{f}", "--g", ""]),
    ("g", ["test-hom", "--fn", "maj3", "--g", "", "--exact"]),
    ("h", ["audit", "--theorem", "triple", "--f", "{f}", "--g", "{f}", "--h", ""]),
    ("h", ["test-hom", "--fn", "maj3", "--h", "", "--exact"]),
    ("config", ["sweep", "--config", ""]),
]


@pytest.mark.parametrize("flag,argv", EMPTY_PATH_ARGV,
                         ids=[f"{argv[0]} --{flag}" for flag, argv in EMPTY_PATH_ARGV])
def test_empty_path_flag_exits_2_and_writes_nothing(flag, argv, tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    ps.save_function(ps.make_and(3, [0]), tmp_path / "f.json")
    (tmp_path / "c.cfg").write_text("sizes=3\nperturbations=0\ntrials=1\nout=rows.csv\n")
    before = sorted(tmp_path.iterdir())
    argv = [{"{f}": "f.json", "{cfg}": "c.cfg"}.get(a, a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"polyspec: --{flag} must name a file, got an empty path\n"
    assert sorted(tmp_path.iterdir()) == before


def test_missing_file_exits_2(capsys):
    assert main(["profile", "--p", "0.5", "--in", "/nonexistent.json"]) == 2


def test_bad_bias_exits_2(tmp_path, capsys):
    fn = tmp_path / "f.json"
    ps.save_function(ps.make_and(2, [0]), fn)
    assert main(["transform", "--p", "1.5", "--in", str(fn)]) == 2


@pytest.mark.parametrize("argv", [
    ["test-hom", "--fn", "maj3", "--exact", "--p", "1.5"],
    ["test-hom", "--fn", "maj3", "--rho", "1.5", "--samples", "1000"],
    ["test-hom", "--fn", "maj3", "--p", "nan", "--samples", "10"],
    ["profile", "--p", "1.5", "--in", "{fn}"],
    ["ns", "--p", "1.5", "--nu", "0.2", "--samples", "10", "--in", "{fn}"],
], ids=" ".join)
def test_probability_outside_open_unit_exits_2(argv, tmp_path, capsys):
    fn = tmp_path / "f.json"
    ps.save_function(ps.make_majority3(), fn)
    assert main([a.format(fn=fn) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must lie in (0,1)" in captured.err


PRS_BAD_THRESHOLDS = [
    (["--expectation-window", "-1"], "expectation window must be at least 0, got -1.0"),
    (["--expectation-window", "nan"], "expectation window must be at least 0, got nan"),
    (["--agreement-min", "1.5"], "agreement minimum must lie in [0,1], got 1.5"),
    (["--agreement-min", "-0.1"], "agreement minimum must lie in [0,1], got -0.1"),
    (["--agreement-min", "nan"], "agreement minimum must lie in [0,1], got nan"),
    (["--samples", "100", "--expectation-window", "-1"],
     "expectation window must be at least 0, got -1.0"),
]


@pytest.mark.parametrize("argv,message", PRS_BAD_THRESHOLDS,
                         ids=[" ".join(argv) for argv, _ in PRS_BAD_THRESHOLDS])
def test_prs_threshold_out_of_range_exits_2(argv, message, tmp_path, capsys):
    fn = tmp_path / "f.json"
    ps.save_function(ps.make_majority3(), fn)
    assert main(["prs", "--in", str(fn), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"polyspec: {message}\n"


@pytest.mark.parametrize("window,agreement_min", [(0.0, 0.0), (0.0, 1.0), (np.inf, 0.5)])
def test_prs_threshold_edges_are_accepted(window, agreement_min, tmp_path, capsys):
    fn = tmp_path / "f.json"
    ps.save_function(ps.make_and(2, [0]), fn)
    assert main(["prs", "--in", str(fn), "--expectation-window", str(window),
                 "--agreement-min", str(agreement_min)]) == 0
    assert json.loads(capsys.readouterr().out)["accepted"] is True


@pytest.mark.parametrize("samples", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["test-hom", "--fn", "maj3"],
    ["ns", "--nu", "0.2", "--in", "{fn}"],
    ["prs", "--in", "{fn}"],
], ids=lambda argv: argv[0])
def test_sample_count_below_one_exits_2(argv, samples, tmp_path, capsys):
    fn = tmp_path / "f.json"
    ps.save_function(ps.make_majority3(), fn)
    assert main([a.format(fn=fn) for a in argv] + ["--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"polyspec: samples must be at least 1, got {samples}\n"


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(p=0.3, rho=0.25, andor_max_width=3, seed=17,
                           family="maj", sizes="4,6", perturbations="0,3",
                           trials=2)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg)))
    back = ExperimentConfig.from_file(path)
    assert back == cfg


def test_config_skips_comment_and_blank_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\n  # indented comment\nseed=4\n")
    assert ExperimentConfig.from_file(path) == ExperimentConfig(seed=4)


def test_sweep_seed_flag_overrides_the_config_seed(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family=and\nsizes=5\nperturbations=0,2\ntrials=1\nseed=5\n")
    out, want = tmp_path / "out.csv", tmp_path / "want.csv"
    assert main(["sweep", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
    cfg.write_text(cfg.read_text().replace("seed=5", "seed=9"))
    assert main(["sweep", "--config", str(cfg), "--out", str(want)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert out.read_bytes() == want.read_bytes()
    assert len(rows) == 2 and all(row.startswith("9,5,") for row in rows)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("p=0.5\nwat=1\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(path)


def test_config_validates_probabilities():
    with pytest.raises(ValueError):
        ExperimentConfig(p=1.2)


# A non-default value of each config field, as written and as the config
# sweep_rows receives must read it (the list keys through int_list); ``out``
# goes to the CSV writer instead.
SWEEP_READS = {
    "p": ("0.25", 0.25),
    "rho": ("0.75", 0.75),
    "andor_max_width": ("3", 3),
    "seed": ("99", 99),
    "tau": ("0.125", 0.125),
    "family": ("maj", "maj"),
    "sizes": ("5,6", [5, 6]),
    "perturbations": ("0,3", [0, 3]),
    "trials": ("4", 4),
    "and_width": ("3", 3),
    "window_scale": ("0.25", 0.25),
}


@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
def test_every_config_field_reaches_the_sweep(name, tmp_path, monkeypatch, capsys):
    calls = []
    signature = inspect.signature(ps.analysis.sweep_rows)
    monkeypatch.setattr(ps.analysis, "sweep_rows", lambda *a, **kw: calls.append(
        signature.bind(*a, **kw).arguments["config"]) or [])
    cfg = tmp_path / "sweep.cfg"
    if name == "out":
        out = tmp_path / "rows.csv"
        cfg.write_text(f"out={out}\n")
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert out.read_text() == ps.analysis.SWEEP_HEADER + "\n\n"
        return
    raw, want = SWEEP_READS[name]
    default = getattr(ExperimentConfig(), name)
    assert str(default) != raw
    cfg.write_text(f"{name}={raw}\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert len(calls) == 1
    read = calls[0].int_list(name) if isinstance(want, list) else getattr(calls[0], name)
    assert read == want


@pytest.mark.parametrize("line", ["m=2", "lam=0.5", "samples=10"])
def test_sweep_rejects_removed_config_keys(line, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"family=and\nsizes=5\n{line}\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert repr(line.partition("=")[0]) in capsys.readouterr().err


SWEEP_BAD_VALUES = [
    ("sizes=4\ntrials=-1", "config trials must be at least 0, got -1"),
    ("sizes=\nfamily=tribes",
     "config family must be one of and, maj, semirandom, got 'tribes'"),
    ("sizes=4\nperturbations=0,-2", "config perturbations must be at least 0, got -2"),
    ("sizes=4\nand_width=-1", "config and_width must be at least 0, got -1"),
    ("sizes=6\nandor_max_width=-1", "config andor_max_width must be at least 0, got -1"),
    ("family=semirandom\nwindow_scale=-1", "config window_scale must be at least 0, got -1.0"),
    ("family=semirandom\nwindow_scale=nan", "config window_scale must be at least 0, got nan"),
    ("sizes=10\ntau=nan", "config tau must lie in [0,1], got nan"),
    ("sizes=10\ntau=1.5", "config tau must lie in [0,1], got 1.5"),
    ("sizes=4\nseed=-1", "config seed must be at least 0, got -1"),
]


@pytest.mark.parametrize("text,message", SWEEP_BAD_VALUES,
                         ids=[text.split("\n")[1] for text, _ in SWEEP_BAD_VALUES])
def test_sweep_rejects_bad_values_before_any_row(text, message, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text + "\n")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"polyspec: bad sweep config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("family", ["maj", "semirandom"])
def test_sweep_rejects_small_sizes_of_three_coordinate_families_before_any_row(
        family, threads, tmp_path, monkeypatch, capsys):
    """maj and semirandom need n >= 3; sizes=8,2 exits 2 at load, before
    the n = 8 rows run."""
    monkeypatch.setenv("POLYSPEC_THREADS", threads)
    calls = []
    monkeypatch.setattr(ps.analysis, "sweep_rows", lambda *a, **kw: calls.append(a))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"family={family}\nsizes=8,2\nperturbations=0\ntrials=1\n")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    assert captured.err == (f"polyspec: bad sweep config: config family {family} "
                            f"needs sizes of at least 3, got 8,2\n")
    assert not out.exists()


@pytest.mark.parametrize("line", ["trials=0", "sizes="])
def test_sweep_without_rows_prints_the_header(line, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"sizes=4\n{line}\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == ps.analysis.SWEEP_HEADER + "\n\n"


AUDIT_2_8 = ["audit", "--theorem", "2.8", "--f", "{fn}", "--g", "{fn}", "--lambda", "0.25"]
WINDOW_AND_TAU_ERRORS = [
    (["make", "--family", "midslice", "--n", "4", "--window-scale", "nan"],
     "window_scale must be at least 0, got nan"),
    (["make", "--family", "semirandom", "--n", "4", "--window-scale", "-1"],
     "window_scale must be at least 0, got -1.0"),
    (AUDIT_2_8 + ["--tau", "nan"], "tau must lie in [0,1], got nan"),
    (AUDIT_2_8 + ["--tau", "-1"], "tau must lie in [0,1], got -1.0"),
    # numpy seed sequences take no negative entropy: main checks every --seed
    (["make", "--family", "f2", "--n", "4", "--seed", "-1"], "--seed must be at least 0, got -1"),
    (["test-hom", "--fn", "maj3", "--seed", "-1"], "--seed must be at least 0, got -1"),
    (["ns", "--nu", "0.1", "--in", "{fn}", "--seed", "-2"], "--seed must be at least 0, got -2"),
    (["prs", "--in", "{fn}", "--seed", "-1"], "--seed must be at least 0, got -1"),
    (["sweep", "--config", "{fn}", "--seed", "-3"], "--seed must be at least 0, got -3"),
]


@pytest.mark.parametrize("argv,message", WINDOW_AND_TAU_ERRORS,
                         ids=[" ".join(argv) for argv, _ in WINDOW_AND_TAU_ERRORS])
def test_window_scale_and_tau_out_of_range_exit_2(argv, message, tmp_path, capsys):
    fn = tmp_path / "f.json"
    ps.save_function(ps.make_and(2, [0, 1]), fn)
    assert main([a.format(fn=fn) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"polyspec: {message}\n"


def test_ns_samples_alone_selects_monte_carlo(tmp_path, capsys):
    fn = tmp_path / "f.json"
    ps.save_function(ps.make_majority3(), fn)
    assert main(["ns", "--nu", "0.1", "--in", str(fn)]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert exact["exact"] is True and exact["samples"] == 0
    assert main(["ns", "--nu", "0.1", "--samples", "1000", "--in", str(fn)]) == 0
    sampled = json.loads(capsys.readouterr().out)
    assert sampled["exact"] is False and sampled["samples"] == 1000
    with pytest.raises(SystemExit) as exc:
        main(["ns", "--mode", "exact", "--nu", "0.1", "--in", str(fn)])
    assert exc.value.code == 2


def test_test_hom_exact_and_samples_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["test-hom", "--fn", "maj3", "--exact", "--samples", "-5"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["-1", "0", "nan", "5"])
def test_solve_lambda_outside_zero_one_exits_2(lam, tmp_path, capsys):
    fn = tmp_path / "g.json"
    ps.save_function(ps.make_and(3, [0]), fn)
    assert main(["solve", "--rho", "0.5", "--lambda", lam, "--in", str(fn)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"polyspec: lam must lie in (0,1], got {float(lam)}\n"


def test_solve_prints_plus_zero_negative_mass(tmp_path, capsys):
    fn = tmp_path / "g.json"
    ps.save_function(ps.make_and_or(3, ps.BlockPartition(({0, 1}, {2}))), fn)
    assert main(["solve", "--rho", "0.5", "--in", str(fn)]) == 0
    assert '"negative_mass": 0.0,' in capsys.readouterr().out


def test_noise_rejects_p(tmp_path, capsys):
    fn = tmp_path / "f.json"
    ps.save_function(ps.make_and(2, [0]), fn)
    with pytest.raises(SystemExit) as exc:
        main(["noise", "--p", "0.5", "--rho", "0.5", "--in", str(fn)])
    assert exc.value.code == 2


def _dimension_argv(n: int, tmp_path) -> dict:
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"family=and\nsizes=5,{n}\nperturbations=0\ntrials=1\n")
    return {"make": ["make", "--family", "and", "--n", str(n), "--coords", "0"],
            "test-hom": ["test-hom", "--fn", "maj3", "--n", str(n), "--exact"],
            "classify": ["classify", "--n", str(n), "--rho", "0.5"],
            "sweep": ["sweep", "--config", str(cfg)]}


@pytest.mark.parametrize("command", ["make", "test-hom", "classify", "sweep"])
def test_negative_dimension_exits_2_naming_it(command, tmp_path, capsys):
    assert main(_dimension_argv(-1, tmp_path)[command]) == 2
    err = capsys.readouterr().err
    assert "dimension -1 outside [0, 24]" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["make", "test-hom", "classify", "sweep"])
def test_oversized_dimension_exits_2_before_allocating(command, tmp_path, capsys):
    argv = _dimension_argv(40, tmp_path)[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "40" in err and "Traceback" not in err
    argv = _dimension_argv(25, tmp_path)[command]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sweep_byte_identical(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(
        "family=and\nsizes=5,6\nperturbations=0,2\ntrials=2\n"
        "p=0.5\nrho=0.5\nseed=23\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().split("\n")
    assert lines[0] == ps.analysis.SWEEP_HEADER
    assert len(lines) == 1 + 2 * 2 * 2


# Sweeps pinned byte for byte across code changes.  The p != 1/2 files
# carry non-dyadic weights; at 12 printed digits they catch tie flips and
# larger drifts, while last-bit changes are pinned in test_analysis.
GOLDEN_SWEEPS = {
    "sweep_and_p05_seed1414.csv":
        "family=and\nsizes=8,10,12\nperturbations=0,1,2,4,8,16\ntrials=1\n"
        "p=0.5\nrho=0.5\nseed=1414\n",
    "sweep_and_p03_seed77.csv":
        "family=and\nsizes=6,9,12\nperturbations=0,1,3,7\ntrials=2\n"
        "p=0.3\nrho=0.4\nseed=77\n",
    "sweep_semirandom_p07_seed5.csv":
        "family=semirandom\nsizes=8,11\nperturbations=0,2,5\ntrials=1\n"
        "p=0.7\nrho=0.35\nseed=5\n",
}


# Each golden file under one worker (the plain file-name id) and two: the
# tasks carry the config object into the worker processes.
@pytest.mark.parametrize("name,threads", [
    pytest.param(name, threads, id=name if threads == "1" else f"{name}-threads{threads}")
    for threads in ("1", "2") for name in sorted(GOLDEN_SWEEPS)])
def test_sweep_matches_golden(name, threads, tmp_path, monkeypatch):
    monkeypatch.setenv("POLYSPEC_THREADS", threads)
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(GOLDEN_SWEEPS[name])
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "golden" / name).read_bytes()


def test_sweep_bad_config_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("this is not a config\n")
    assert main(["sweep", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"polyspec: bad sweep config: {cfgfile}:1: expected key=value\n"
    missing = tmp_path / "missing.cfg"
    assert main(["sweep", "--config", str(missing)]) == 2
    assert capsys.readouterr().err == (f"polyspec: bad sweep config: [Errno 2] No such file "
                                       f"or directory: {str(missing)!r}\n")


def test_noise_rejects_nan_input(tmp_path, capsys):
    fn = tmp_path / "nan.json"
    fn.write_text('{"n": 1, "kind": "bounded", "values": [NaN, 0.5]}\n')
    assert main(["noise", "--rho", "0.5", "--in", str(fn)]) == 2


def test_trailing_hex_byte_exits_2(tmp_path, capsys):
    fn = tmp_path / "long.json"
    fn.write_text('{"n": 2, "kind": "boolean", "bits_hex": "0fff"}\n')
    assert main(["noise", "--rho", "0.5", "--in", str(fn)]) == 2


def test_set_padding_bits_exit_2(tmp_path, capsys):
    fn = tmp_path / "pad.json"
    fn.write_text('{"n": 1, "kind": "boolean", "bits_hex": "ff"}\n')
    assert main(["noise", "--rho", "0.5", "--in", str(fn)]) == 2
    assert "padding" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    '[1, 2]',
    '{"kind": "boolean", "n": 2, "bits_hex": 5}',
    '{"kind": "boolean", "n": "2", "bits_hex": "0f"}',
    '{"kind": "boolean", "n": 10000000000, "bits_hex": "0f"}',
    '{"kind": "bounded", "n": 1, "values": {"a": 1}}',
    pytest.param("[" * 100_000, id="nested-100000"),
    '{"kind": "bounded", "n": 1, "values": ["0.5", 1]}',
    '{"kind": "boolean", "n": 4, "bits_hex": "0f 0f"}',
])
def test_malformed_function_file_exits_2(doc, tmp_path, capsys):
    fn = tmp_path / "f.json"
    fn.write_text(doc + "\n")
    assert main(["transform", "--p", "0.5", "--in", str(fn)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("polyspec: cannot read function file") and "Traceback" not in err


@pytest.mark.parametrize("threads", ["abc", "0", "-1"])
def test_sweep_bad_thread_count_exits_2(threads, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POLYSPEC_THREADS", threads)
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("family=and\nsizes=4\nperturbations=0\ntrials=1\nseed=1\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "POLYSPEC_THREADS" in capsys.readouterr().err
    assert not out.exists()


MAKE_FAMILIES = ("and", "or", "xor", "andor", "andxor", "maj3", "f1", "f2",
                 "midslice", "semirandom")


def test_make_family_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["make", "--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(MAKE_FAMILIES) + "}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["make", "--family", "nand", "--n", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("family", MAKE_FAMILIES)
def test_make_every_family(family, tmp_path):
    fn = tmp_path / "f.json"
    assert main(["make", "--family", family, "--n", "4", "--coords", "0,2",
                 "--blocks", "0,1;3", "--out", str(fn)]) == 0
    f = ps.load_function(fn)
    assert f.n == 4
    direct = {"and": lambda: ps.make_and(4, [0, 2]),
              "or": lambda: ps.make_or(4, [0, 2]),
              "xor": lambda: ps.make_xor(4, [0, 2]),
              "andor": lambda: ps.make_and_or(4, ps.BlockPartition(({0, 1}, {3}))),
              "andxor": lambda: ps.make_and_xor(4, ps.BlockPartition(({0, 1}, {3}))),
              "maj3": lambda: ps.make_majority3(4),
              "f1": lambda: ps.make_f1(4),
              "midslice": lambda: ps.make_midslice(4, 1.0)}
    if family in direct:
        assert f == direct[family]()


def test_stream_rng_independent_names():
    a = stream_rng(5, "alpha").random(4)
    b = stream_rng(5, "beta").random(4)
    a2 = stream_rng(5, "alpha").random(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_parser_prog_name():
    assert build_parser().prog == "polyspec"


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(ps.cli, "build_parser", counting)
    ps.cli._parser.cache_clear()
    try:
        for n in (2, 3):
            assert main(["make", "--family", "and", "--n", str(n), "--coords", "0"]) == 0
    finally:
        ps.cli._parser.cache_clear()
    assert len(built) == 1
    out = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["n"] for line in out] == [2, 3]
