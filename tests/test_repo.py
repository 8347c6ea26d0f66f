"""The README's Library tour and command-line block run as written, its
sweep key table lists the config fields, its audit table names every key
of the pinned audit reports, its delta(epsilon) table is the
curve tier-1 pins, and the code-line counter, the never-run statement
lister and the per-step fault counter in tools/ report what they say they
report."""

import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import readme_block, readme_library_tour
from polyspec.analysis import THEOREM_ALIASES, ExperimentConfig
from polyspec.cli import main
from test_analysis import AUDIT_GOLDEN, DELTA_OF_EPSILON

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_tour_runs_as_written():
    block = readme_library_tour()
    assert "import polyspec as ps" in block
    exec(compile(block, "README.md (Library tour)", "exec"), {})


def test_readme_command_lines_run_as_written(tmp_path, monkeypatch, capsys):
    """Every line of the README command-line block, run through cli.main in
    an empty directory that holds the example sweep config as sweep.cfg,
    exits 0 and prints what the README says; the test-hom line also runs
    as ``python -m polyspec.cli``, the module's entry point."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.cfg").write_text(readme_block("Example sweep config:"))
    lines = readme_block("## Command line").splitlines()
    printed = {}
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "polyspec", line
        assert main(argv[1:]) == 0, line
        printed[line] = capsys.readouterr().out

    def output(fragment: str) -> str:
        [text] = [out for line, out in printed.items() if fragment in line]
        return text

    assert output("test-hom --fn maj3 --exact") == "0.90625\n"
    assert '"count": 33' in output("classify --n 5 ")
    assert '"exact": true' in output("ns --nu 0.1 --in ")
    assert '"exact": false' in output("ns --nu 0.1 --samples ")
    profile = output("profile --p 0.5 --in f.json")
    assert '"monotone": false' in profile and '"max_sensitivity": 3' in profile
    assert '"witness": "0+1;2"' in output("audit --theorem 2.2 ")
    assert "--strict" in next(line for line in lines if "audit --theorem 2.2 " in line)

    results = (tmp_path / "results.csv").read_bytes()
    assert results
    monkeypatch.setenv("POLYSPEC_THREADS", "2")
    assert main(["sweep", "--config", "sweep.cfg", "--out", "results-2.csv"]) == 0
    assert (tmp_path / "results-2.csv").read_bytes() == results

    make_line = next(line for line in lines
                     if re.fullmatch(r"polyspec make .* --out f\.json", line))
    assert main(shlex.split(make_line.removesuffix(" --out f.json"))[1:]) == 0
    assert capsys.readouterr().out == (tmp_path / "f.json").read_text()

    hom_line = next(line for line in lines if "test-hom --fn maj3 --exact" in line)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "polyspec.cli",
                          *shlex.split(hom_line, comments=True)[1:]],
                         env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "0.90625\n" and run.stderr == ""


def test_readme_sweep_key_table_lists_every_config_field_with_its_default():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("Sweep configs are flat", 1)[1].split("Columns:", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \|", section, re.MULTILINE)
    want = [(f.name, f"`{f.default}`" if f.default != "" else "empty (stdout)")
            for f in fields(ExperimentConfig)]
    assert sorted(rows) == sorted(want)


def test_readme_audit_table_names_every_key_of_the_pinned_reports():
    """Each row of the README's audit table has its theorem's numeric alias
    and names, in backticks, exactly the premise keys, verdict kinds and
    conclusion keys that the audit golden's reports of that theorem hold."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("`audit` prints the premise", 1)[1].split("\n\n", 2)[1]
    rows = {}
    for line in section.splitlines()[2:]:
        theorem, alias, premise, kind, conclusion, _ = line.strip("|").split(" | ")
        rows[theorem.strip(" `")] = (alias, *(set(re.findall(r"`(\w+)`", cell))
                                              for cell in (premise, kind, conclusion)))
    assert {name: row[0] for name, row in rows.items()} == \
        {name: alias for alias, name in THEOREM_ALIASES.items()}
    found = {name: (alias, set(), set(), set()) for name, (alias, *_) in rows.items()}
    for line in AUDIT_GOLDEN.read_text().splitlines():
        report = json.loads(line)
        _, premise, kind, conclusion = found[report["theorem"]]
        premise.update(report["premise"])
        kind.add(report["verdict"]["kind"])
        conclusion.update(report["conclusion"])
    assert found == rows


def test_readme_delta_of_epsilon_table_matches_the_pinned_curve():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Approximate AND-homomorphisms at small n", 1)[1]
    got = {2: [], 3: [], 4: []}
    for t, cells in re.findall(r"^\| (0|1/\d+) \| (.*) \|$", section, re.MULTILINE):
        values = [Fraction(cell) for cell in cells.split(" | ")]
        for k, n in enumerate(got):
            got[n].append((Fraction(t), values[2 * k], values[2 * k + 1]))
    assert got == {n: [tuple(map(Fraction, row)) for row in curve]
                   for n, curve in DELTA_OF_EPSILON.items()}


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _code_lines():
    return _tool("code_lines").code_lines


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path, capsys):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "def f(a,\n"
        "      b):\n"
        '    """Docstring."""\n'
        '    text = """a string\n'
        'that is code"""\n'
        "    return text\n"
        "\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "    y = 2\n")
    # X, def (2 lines), the string assignment (2 lines), return, class, y
    assert _code_lines()(source) == 8
    # each file and the total: code lines, then all 16 lines
    assert _tool("code_lines").main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"     8     16  {source}\n     8     16  total\n"


def test_uncovered_lists_each_statement_a_run_never_reaches(tmp_path):
    """A hand-made package and one test, traced by an inner pytest run:
    the listing names the two statements the test never reaches, once
    each, and no docstring, def or branch header that ran."""
    pkg = tmp_path / "handmade_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        '"""Module docstring."""\n'          # 1
        "import functools\n"                  # 2
        "\n"
        "\n"
        "@functools.lru_cache\n"              # 5
        "def used(x):\n"                      # 6
        '    """Docstring,\n'                 # 7
        '    two lines."""\n'                 # 8
        "    if x > 0:\n"                     # 9
        "        return x\n"                  # 10
        "    raise ValueError(\n"             # 11: never runs
        "        'not positive')\n"
        "\n"
        "\n"
        "def unused():\n"                     # 15
        "    return 1\n")                     # 16: never runs
    (tmp_path / "test_handmade.py").write_text(
        "from handmade_pkg.mod import used\n"
        "\n"
        "\n"
        "def test_used():\n"
        "    assert used(2) == 2\n")
    tool = _tool("uncovered")
    before = sys.gettrace()
    try:
        status, hits = tool.traced_lines(pkg, [str(tmp_path / "test_handmade.py"), "-q",
                                               "-p", "no:cacheprovider"])
    finally:
        for name in ("handmade_pkg", "handmade_pkg.mod", "test_handmade"):
            sys.modules.pop(name, None)
    assert sys.gettrace() is before
    assert status == 0
    missed = [(path.name, line, text) for path, line, text in tool.never_ran(pkg, hits)]
    assert missed == [("mod.py", 11, "raise ValueError("), ("mod.py", 16, "return 1")]
    assert tool.statements(pkg / "mod.py") == [(2, 2), (5, 12), (9, 10), (10, 10),
                                               (11, 12), (15, 16), (16, 16)]


def test_op_faults_times_every_step_of_the_session(capsys):
    """One counted cycle of the file-based session at n = 18: a header, then
    one line per step with its median ms and minor-fault count."""
    assert _tool("op_faults").main(["--cycles", "1"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "n = 18, 1 cycles: step, median ms, median minor faults"
    steps = [line.split() for line in lines]
    assert [s[0] for s in steps] == ["make-andor", "make-andxor", "noise", "transform",
                                     "profile", "solve", "audit", "ns"]
    assert all(float(ms) >= 0 and int(faults) >= 0 for _, ms, faults in steps)
    with pytest.raises(SystemExit):
        _tool("op_faults").main(["--cycles", "0"])
