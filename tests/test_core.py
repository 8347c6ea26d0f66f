import json
from pathlib import Path

import numpy as np
import pytest

import polyspec as ps
from conftest import json_io_functions, random_boolean, random_bounded
from oracles import (mu_weight, naive_expectation, naive_l1, naive_restrict,
                     streamed_json_bytes)

SRC = Path(__file__).resolve().parents[1] / "src" / "polyspec"


def test_evaluate_and():
    f = ps.make_and(2, [0, 1])
    assert ps.evaluate(f, 3) == 1
    assert ps.evaluate(f, 2) == 0
    with pytest.raises(IndexError):
        ps.evaluate(f, 4)


def test_evaluate_constant_bounded():
    f = ps.constant(3, 0.3)
    for x in range(8):
        assert ps.evaluate(f, x) == 0.3


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


def test_restrict_matches_pointwise(rng):
    for n in range(1, 7):
        for f in (random_boolean(n, rng), random_bounded(n, rng)):
            for _ in range(3):
                k = int(rng.integers(0, n + 1))
                fixed = {int(i): int(rng.integers(0, 2))
                         for i in rng.choice(n, size=k, replace=False)}
                g = ps.restrict(f, ps.Restriction(fixed))
                assert type(g) is type(f) and g.n == n - k
                assert np.array_equal(g.table, naive_restrict(f.table, n, fixed))


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


def test_restrict_and():
    f = ps.make_and(2, [0, 1])
    g = ps.restrict(f, ps.Restriction({1: 1}))
    assert g.n == 1 and g.table.tolist() == [0, 1]      # dictator on x0
    z = ps.restrict(f, ps.Restriction({1: 0}))
    assert z.table.tolist() == [0, 0]


def test_restrict_xor_gives_negation():
    f = ps.make_xor(2, [0, 1])
    g = ps.restrict(f, ps.Restriction({1: 1}))
    assert g.table.tolist() == [1, 0]


def test_restrict_rejects_bad_coordinates():
    f = ps.make_and(2, [0])
    with pytest.raises(ValueError):
        ps.restrict(f, ps.Restriction({5: 1}))
    with pytest.raises(ValueError):
        ps.Restriction({0: 2})


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


def test_linf_distance():
    f = ps.make_and(2, [0, 1])
    g = ps.constant(2, 0)
    assert ps.linf_distance(f, g) == 1.0
    assert ps.linf_distance(f, f) == 0.0
    with pytest.raises(ValueError):
        ps.linf_distance(f, ps.constant(1, 0))


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
    route1 = ps.average_out(ps.restrict(f, ps.Restriction({1: 1})), [0, 1, 2], 0.4)
    route2 = ps.restrict(ps.average_out(f, [0, 1, 2, 3], 0.4), ps.Restriction({1: 1}))
    assert np.allclose(route1.table, route2.table, atol=1e-12)


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
    data = ps.core.to_json_dict(f)
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
}


@pytest.mark.parametrize("name", sorted(FLOAT_TABLES))
def test_float_list_json_matches_json_dumps(name):
    values = np.array(FLOAT_TABLES[name])
    assert ps.core._float_list_json(values) == json.dumps(values.tolist())
    data = {"values": values, "n": 3, "meta": {"z": [1, None], "a": 0.1}}
    listed = {**data, "values": values.tolist()}
    for sort_keys in (False, True):
        assert ps.core.dumps(data, sort_keys) == json.dumps(listed, sort_keys=sort_keys)


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
