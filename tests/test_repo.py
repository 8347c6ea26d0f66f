"""The README's Library tour runs as written, its sweep key table lists the
config fields, and the code-line counter in tools/ counts what it says it
counts."""

import importlib.util
import re
from dataclasses import fields
from pathlib import Path

from polyspec.analysis import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_tour_runs_as_written():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library tour\n.*?^```python\n(.*?)^```", readme,
                      re.MULTILINE | re.DOTALL)
    assert block is not None and "import polyspec as ps" in block.group(1)
    exec(compile(block.group(1), "README.md (Library tour)", "exec"), {})


def test_readme_sweep_key_table_lists_every_config_field_with_its_default():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("Sweep configs are flat", 1)[1].split("Columns:", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \|", section, re.MULTILINE)
    want = [(f.name, f"`{f.default}`" if f.default != "" else "empty (stdout)")
            for f in fields(ExperimentConfig)]
    assert sorted(rows) == sorted(want)


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
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
