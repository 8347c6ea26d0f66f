import ast
import importlib
import inspect
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import polyspec as ps
from polyspec.analysis import ExperimentConfig
from polyspec.fourier import transform_table
from conftest import json_io_functions, random_boolean, random_bounded, readme_library_tour
from oracles import (junta_project, mu_weight, naive_expectation, naive_l1,
                     naive_restrict, streamed_json_bytes, to_json_dict)

SRC = Path(__file__).resolve().parents[1] / "src" / "polyspec"


def test_boolean_validation():
    with pytest.raises(ValueError):
        ps.BooleanFunction(1, [0, 2])
    with pytest.raises(ValueError):
        ps.BooleanFunction(2, [0, 1])          # wrong length
    with pytest.raises(ValueError):
        ps.BooleanFunction(25, np.zeros(1))    # over the size cap
    # unsigned and bool tables take the max check, others the exact one
    assert ps.BooleanFunction(1, np.array([True, False])).table.tolist() == [1, 0]
    assert ps.BooleanFunction(1, np.array([0.0, 1.0])).table.tolist() == [0, 1]
    for bad in (np.array([0, 2], np.uint8), np.array([0, 256], np.uint16),
                np.array([0.5, 1.0]), np.array([-1, 0])):
        with pytest.raises(ValueError):
            ps.BooleanFunction(1, bad)


def test_bounded_validation():
    ps.BoundedFunction(1, [0.0, 1.0 + 1e-13])  # inside tolerance
    for n in (-1, 21):
        with pytest.raises(ValueError, match=rf"dimension {n} outside \[0, 20\]"):
            ps.BoundedFunction(n, np.zeros(1))
    with pytest.raises(ValueError, match=r"table has shape \(3,\), expected \(4,\)"):
        ps.BoundedFunction(2, np.zeros(3))
    with pytest.raises(ValueError, match=r"coeffs shape \(3,\), expected \(4,\)"):
        ps.Spectrum(2, 0.5, np.zeros(3))
    with pytest.raises(ValueError):
        ps.BoundedFunction(1, [0.0, 1.1])
    with pytest.raises(ValueError):
        ps.BoundedFunction(1, [-1e-3, 0.5])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            ps.BoundedFunction(1, [bad, 0.5])


def test_from_bits_hex_rejects_set_padding_bits():
    assert ps.BooleanFunction.from_bits_hex(1, "03") == ps.constant(1, 1)
    for n, bits_hex in ((0, "02"), (1, "ff"), (1, "04"), (2, "1f")):
        with pytest.raises(ValueError, match="padding"):
            ps.BooleanFunction.from_bits_hex(n, bits_hex)


def test_from_bits_hex_requires_exact_length():
    assert ps.BooleanFunction.from_bits_hex(2, "0f") == ps.constant(2, 1)
    assert ps.BooleanFunction.from_bits_hex(4, "8888") == ps.make_and(4, [0, 1])
    for n, bits_hex in ((2, "0fff"), (2, ""), (4, "03"), (4, "030000")):
        with pytest.raises(ValueError):
            ps.BooleanFunction.from_bits_hex(n, bits_hex)


def test_tables_immutable():
    f = ps.make_and(2, [0])
    with pytest.raises(ValueError):
        f.table[0] = 1
    b = ps.constant(2, 0.5)
    with pytest.raises(ValueError):
        b.table[0] = 0.9


def test_average_out_and3():
    f = ps.make_and(3, [0, 1, 2])
    for q in (0.3, 0.5, 0.9):
        g = ps.average_out(f, [0, 1], q)
        assert g.n == 2
        assert np.allclose(g.table, q * ps.make_and(2, [0, 1]).table)


def test_average_out_constant():
    c = ps.constant(3, 0.7)
    g = ps.average_out(c, [1], 0.25)
    assert np.allclose(g.table, 0.7)


def test_average_out_xor_half():
    f = ps.make_xor(2, [0, 1])
    g = ps.average_out(f, [0], 0.5)
    assert np.allclose(g.table, [0.5, 0.5])


def test_expectation_of_ands():
    for p in (0.2, 0.5, 0.8):
        for coords in ([], [0], [0, 2], [0, 1, 2]):
            f = ps.make_and(3, coords)
            assert ps.expectation(f, p) == pytest.approx(p ** len(coords), abs=1e-12)


def test_l1_distance_basics():
    f = ps.make_and(1, [0])
    zero = ps.constant(1, 0)
    assert ps.l1_distance(f, f, 0.37) == 0.0
    assert ps.l1_distance(f, zero, 0.5) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        ps.l1_distance(f, ps.constant(2, 0), 0.5)


def test_measure_weights_sum_to_one():
    from polyspec.lattice import measure_weights
    for n in (1, 4, 9, 13):
        for p in (0.05, 0.3, 0.5, 0.77, 0.95):
            assert abs(measure_weights(n, p).sum() - 1.0) < 1e-12


def test_expectation_matches_naive(rng):
    for n in (1, 3, 5):
        f = random_bounded(n, rng)
        for p in (0.3, 0.5, 0.7):
            assert ps.expectation(f, p) == pytest.approx(
                naive_expectation(f.table, n, p), abs=1e-12)


def test_l1_matches_naive_and_triangle(rng):
    for _ in range(25):
        n = int(rng.integers(1, 6))
        f, g, h = (random_bounded(n, rng) for _ in range(3))
        p = float(rng.uniform(0.1, 0.9))
        assert ps.l1_distance(f, g, p) == pytest.approx(
            naive_l1(f.table, g.table, n, p), abs=1e-12)
        assert ps.l1_distance(f, g, p) == pytest.approx(
            ps.l1_distance(g, f, p), abs=1e-15)
        assert (ps.l1_distance(f, h, p)
                <= ps.l1_distance(f, g, p) + ps.l1_distance(g, h, p) + 1e-12)


def test_restrict_commutes_with_average_out(rng):
    # fixing coordinate 1 and averaging out coordinate 4 in either order
    f = random_bounded(5, rng)
    fixed = ps.BoundedFunction(4, naive_restrict(f.table, 5, {1: 1}))
    route1 = ps.average_out(fixed, [0, 1, 2], 0.4)
    route2 = naive_restrict(ps.average_out(f, [0, 1, 2, 3], 0.4).table, 4, {1: 1})
    assert np.allclose(route1.table, route2, atol=1e-12)


def test_point_weight_oracle():
    assert mu_weight(3, 0.25, 0b101) == pytest.approx(0.25 ** 2 * 0.75)


def test_json_round_trip(tmp_path, rng):
    f = random_boolean(5, rng)
    path = tmp_path / "f.json"
    ps.save_function(f, path)
    data = json.loads(path.read_text())
    assert data["kind"] == "boolean" and data["n"] == 5 and "bits_hex" in data
    assert ps.load_function(path) == f

    b = random_bounded(3, rng)
    path2 = tmp_path / "b.json"
    ps.save_function(b, path2)
    data2 = json.loads(path2.read_text())
    assert data2["kind"] == "bounded" and len(data2["values"]) == 8
    assert ps.load_function(path2) == b


@pytest.mark.parametrize("f", json_io_functions(), ids=repr)
def test_save_function_bytes_match_streaming_encoder(f, tmp_path):
    path = tmp_path / "f.json"
    ps.save_function(f, path)
    data = to_json_dict(f)
    assert isinstance(data.get("values", []), list)
    assert path.read_bytes() == streamed_json_bytes(data, tmp_path / "ref.json")


FLOAT_TABLES = {
    "signed-zeros": [-0.0, 0.0, 0.0, -0.0, 0.0, 0.0],
    "subnormals": [5e-324, 1e-310, 2.2250738585072014e-308, 5e-324, 1e-310, 5e-324],
    "exponents": [1e-05, 1e16, 1.5e16, 1e22, 1e-05, 1e16, 1e22, 1e-07],
    "tenth": [0.1],
    "two-valued": [0.25, -0.75] * 8,
    "non-finite": [float("nan"), float("inf"), -float("inf"), float("nan"),
                   float("inf"), 1e308, 1e308, -0.0],
    "all-distinct": np.random.default_rng(7).standard_normal(256).tolist(),
    # repeated, so that fewer than half their entries are distinct and they
    # take the per-value gather
    "subnormals-repeated": [5e-324, 1e-310, 2.2250738585072014e-308] * 4,
    "non-finite-repeated": [float("nan"), float("inf"), -float("inf"), 1e308, -0.0] * 4,
    # the three below have at least half their entries distinct, so they take
    # the one json.dumps call rather than the per-value gather
    "spectrum-p0.3": transform_table(np.random.default_rng(8).integers(0, 2, 1 << 10),
                                     10, 0.3).tolist(),
    "half-distinct": [0.25, 0.5, 0.75, 1.0] * 2,
    "signed-zeros-distinct": [-0.0, 0.0, 1e-300, -2.5, 0.1],
}


@pytest.mark.parametrize("name", sorted(FLOAT_TABLES))
def test_float_list_json_matches_json_dumps(name):
    values = np.array(FLOAT_TABLES[name])
    assert ps.core._float_list_json(values) == json.dumps(values.tolist())
    data = {"values": values, "n": 3, "meta": {"z": [1, None], "a": 0.1}}
    listed = {**data, "values": values.tolist()}
    assert ps.core.dumps(data) == json.dumps(listed, sort_keys=True)


def test_failed_save_leaves_existing_file(tmp_path):
    path = tmp_path / "f.json"
    ps.save_function(ps.make_and(2, [0]), path)
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        ps.save_function(object(), path)
    assert path.read_bytes() == before


def test_no_module_streams_json():
    """json.dump encodes through the pure-Python encoder, several times
    slower than json.dumps on a function file; modules encode with dumps.
    Only core calls dumps, so every JSON text goes through the encoder that
    formats each distinct float of a table once."""
    modules = sorted(SRC.glob("*.py"))
    assert any(m.name == "core.py" for m in modules)
    offenders = [m.name for m in modules if "json.dump(" in m.read_text()]
    assert offenders == []
    assert [m.name for m in modules if "json.dumps(" in m.read_text()] == ["core.py"]


def test_json_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "sparse", "n": 1}')
    with pytest.raises(ValueError):
        ps.load_function(path)


def test_load_function_rejects_json_nested_too_deeply(tmp_path):
    """json.load raises RecursionError on 100,000 nested brackets; the
    loader raises the ValueError of every other malformed file instead,
    naming the file."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ValueError, match=r"nested too deeply in '.*deep\.json'"):
        ps.load_function(path)


@pytest.mark.parametrize("data, message", [
    ([1, 2], "JSON object"),
    ("boolean", "JSON object"),
    ({"kind": "boolean", "n": 2, "bits_hex": 5}, "bits_hex"),
    ({"kind": "boolean", "n": "2", "bits_hex": "0f"}, "integer"),
    ({"kind": "boolean", "n": True, "bits_hex": "1"}, "integer"),
    ({"kind": "bounded", "n": 1.0, "values": [0.0, 1.0]}, "integer"),
    ({"kind": "bounded", "n": 1, "values": [{}, 1.0]}, "not numbers"),
    ({"kind": "bounded", "n": 1}, "values is NoneType, not a list"),
    ({"kind": "bounded", "n": 1, "values": {"0": 1.0}}, "not a list"),
    # numpy reads the string "0.5" as a number and True as 1.0
    ({"kind": "bounded", "n": 1, "values": ["0.5", 1]}, "not numbers: str"),
    ({"kind": "bounded", "n": 1, "values": [True, 0.5]}, "not numbers: bool"),
    ({"kind": "bounded", "n": 0, "values": [10 ** 400]}, "too large for a float"),
    # bytes.fromhex skips whitespace
    ({"kind": "boolean", "n": 4, "bits_hex": "0f 0f"}, "not 2 bytes in hex digits"),
])
def test_from_json_dict_rejects_malformed_documents(data, message):
    with pytest.raises(ValueError, match=message):
        ps.core.from_json_dict(data)


def test_from_bits_hex_checks_the_dimension_before_shifting():
    """n = 10**10 would otherwise build a 1.25 GB Python int for 1 << n."""
    for n in (-1, 25, 10 ** 10):
        with pytest.raises(ValueError, match="outside"):
            ps.BooleanFunction.from_bits_hex(n, "0f")


_AND = ps.make_and(3, [0, 1])
OPEN_UNIT_CHECKS = {
    "expectation": ("bias p", lambda v: ps.expectation(_AND, v)),
    "average_out": ("bias q", lambda v: ps.average_out(_AND, [0], v)),
    "transform_table": ("bias p", lambda v: ps.fourier.transform_table(_AND.table, 3, v)),
    "synthesize_table": ("bias p", lambda v: ps.fourier.synthesize_table(_AND.table, 3, v)),
    "Spectrum": ("bias p", lambda v: ps.Spectrum(3, v, np.zeros(8))),
    "NoiseParams.p": ("p", lambda v: ps.NoiseParams(p=v, rho=0.5)),
    "NoiseParams.rho": ("rho", lambda v: ps.NoiseParams(p=0.5, rho=v)),
    "downward_noise_table": ("rho", lambda v: ps.noise.downward_noise_table(_AND.table, 3, v)),
    "invert_downward": ("rho", lambda v: ps.invert_downward(_AND, v)),
    "sample_dnu": ("nu", lambda v: ps.noise.sample_dnu(v, 3, np.random.default_rng(0), 4)),
    "noise_sensitivity": ("nu", lambda v: ps.noise_sensitivity(_AND, 0.5, v)),
    "make_f2": ("lam", lambda v: ps.families.make_f2(3, v, np.random.default_rng(0))),
    "distance_to_constant_or_and": ("bias p", lambda v: ps.distance_to_constant_or_and(_AND, v)),
    "ExperimentConfig.p": ("config p", lambda v: ExperimentConfig(p=v)),
    "ExperimentConfig.rho": ("config rho", lambda v: ExperimentConfig(rho=v)),
    "homomorphism_agreement.p": ("bias p", lambda v: ps.homomorphism_agreement(_AND, v, 0.5)),
    "homomorphism_agreement.rho": ("rho", lambda v: ps.homomorphism_agreement(
        _AND, 0.5, v, samples=8, rng=0)),
    "influence": ("bias p", lambda v: ps.influence(_AND, 0, v)),
    "negative_influence": ("bias p", lambda v: ps.negative_influence(_AND, 0, v)),
    "influence_profile": ("bias p", lambda v: ps.influence_profile(_AND, v)),
    "influence_profile.n0": ("bias p", lambda v: ps.influence_profile(ps.constant(0, 1), v)),
    "high_influence_coordinates": (
        "bias p", lambda v: ps.influences.high_influence_coordinates(_AND, v, 0.1)),
    "l1_distance": ("bias p", lambda v: ps.l1_distance(_AND, _AND, v)),
    "noise_sensitivity.p": ("bias p", lambda v: ps.noise_sensitivity(
        _AND, v, 0.5, samples=8, rng=0)),
}


@pytest.mark.parametrize("site", sorted(OPEN_UNIT_CHECKS))
def test_open_unit_checks_share_one_message(site):
    name, call = OPEN_UNIT_CHECKS[site]
    for bad in (0.0, 1.0, -0.5, float("nan")):
        with pytest.raises(ValueError) as err:
            call(bad)
        assert str(err.value) == f"{name} must lie in (0,1), got {bad}"
    call(0.5)


_AND4 = ps.make_and(4, [0, 1])
_PARAMS = ps.NoiseParams(p=0.5, rho=0.5, lam=0.5)
# each site given functions of dimensions 3 and 4, as (call, message)
DIMENSION_CHECKS = {
    "l1_distance": (lambda: ps.l1_distance(_AND, _AND4, 0.5), "3 != 4"),
    "residual": (lambda: ps.residual(_AND, _AND4, _PARAMS), "3 != 4"),
    "one_sided_check": (lambda: ps.one_sided_check(_AND, _AND4, _PARAMS), "3 != 4"),
    "homomorphism_agreement.g": (
        lambda: ps.homomorphism_agreement(_AND, 0.5, 0.5, g=_AND4), "3 != 4 != 3"),
    "homomorphism_agreement.h": (
        lambda: ps.homomorphism_agreement(_AND, 0.5, 0.5, h=_AND4), "3 != 3 != 4"),
}


@pytest.mark.parametrize("site", sorted(DIMENSION_CHECKS))
def test_dimension_checks_share_one_message(site):
    call, dims = DIMENSION_CHECKS[site]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == f"dimension mismatch: {dims}"


# each site given coordinate i of a function of dimension 3
COORDINATE_CHECKS = {
    "influence": lambda i: ps.influence(_AND, i, 0.5),
    "negative_influence": lambda i: ps.negative_influence(_AND, i, 0.5),
    "shift": lambda i: ps.shift(_AND, i),
    "average_out": lambda i: ps.average_out(_AND, [0, i], 0.5),
    "junta_project": lambda i: junta_project(_AND, [i], 0.5),
}


@pytest.mark.parametrize("site", sorted(COORDINATE_CHECKS))
def test_coordinate_checks_share_one_message(site):
    call = COORDINATE_CHECKS[site]
    for bad in (-1, 3, 7):
        with pytest.raises(ValueError) as err:
            call(bad)
        assert str(err.value) == f"coordinate {bad} outside [0, 3)"
    call(2)


def test_boolean_functions_hash_by_dimension_and_table():
    a, b = ps.make_and(3, [0, 1]), ps.BooleanFunction(3, ps.make_and(3, [0, 1]).table.copy())
    assert a == b and hash(a) == hash(b)
    assert len({a, b, ps.make_and(3, [0]), ps.constant(3, 0), ps.constant(2, 0)}) == 4


def _public_functions():
    """(module file, name, exported) of each public function a polyspec
    module defines, filtered as ``perfbench/tracer.public_functions``
    filters them; exported when the package exports it under its name."""
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"polyspec.{path.stem}")
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or inspect.isgeneratorfunction(obj)):
                continue
            yield path, attr, getattr(ps, attr, None) is obj


def _names_read(tree: ast.AST, skip: ast.AST | None) -> set[str]:
    """Every ast.Name id and ast.Attribute attr in tree, outside skip."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _unread(defs, trees: dict) -> list[str]:
    """module.name of each (home, name, own definition) in defs that no tree
    reads outside that definition."""
    return [f"{home.stem}.{name}" for home, name, own in defs
            if not any(own.name in _names_read(tree, own if path == home else None)
                       for path, tree in trees.items())]


def _functions(exported: bool, trees: dict):
    """(home, name, definition) of each public function, exported or not as
    asked, with its definition node taken from trees."""
    for home, name, is_exported in _public_functions():
        if is_exported == exported:
            yield home, name, next(node for node in trees[home].body
                                   if isinstance(node, ast.FunctionDef) and node.name == name)


def _methods(trees: dict):
    """(home, Class.name, definition) of each public method and property (no
    dunders) of each class the package exports under its name."""
    exported = {(c.__module__, c.__name__) for c in vars(ps).values() if isinstance(c, type)}
    for home, tree in trees.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and (f"polyspec.{home.stem}", cls.name) in exported:
                yield from ((home, f"{cls.name}.{node.name}", node) for node in cls.body
                            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))


def _library_trees() -> dict:
    """The src/polyspec modules but __init__, whose imports read nothing,
    and perfbench/*.py, parsed, by path."""
    files = sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text()) for path in files if path.stem != "__init__"}


def test_every_unexported_function_has_a_reader_outside_tests():
    """A public function the package does not export must be read somewhere
    in src/polyspec or perfbench/*.py, outside its own definition; code only
    tests read belongs in tests/oracles.py."""
    trees = _library_trees()
    assert _unread(_functions(False, trees), trees) == []


# Exported functions kept with no reader, as documented entry points:
# influence is the per-coordinate definition that influence_profile is pinned
# against bit for bit, and minterms is the public form of the transversal rule
# that recognize_and_or relies on.
UNREAD_ENTRY_POINTS = ["families.minterms", "influences.influence"]


def test_every_exported_function_has_a_reader_outside_tests():
    """An exported function, or a public method or property of an exported
    class, must be read, outside its own definition, in src/polyspec,
    perfbench/*.py, the acceptance criteria or the README Library tour, or
    be one of UNREAD_ENTRY_POINTS; a name nothing reads is surface to
    delete, and one only tests read belongs in tests/oracles.py."""
    root = SRC.parents[1]
    trees = _library_trees()
    trees[root / "tests" / "test_acceptance.py"] = ast.parse(
        (root / "tests" / "test_acceptance.py").read_text())
    trees[root / "README.md"] = ast.parse(readme_library_tour())
    unread = _unread(itertools.chain(_functions(True, trees), _methods(trees)), trees)
    assert [name for name in unread if name not in UNREAD_ENTRY_POINTS] == []
    # an entry point that gains a reader leaves the list
    assert sorted(unread) == UNREAD_ENTRY_POINTS
