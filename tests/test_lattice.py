from pathlib import Path

import numpy as np
import pytest

from polyspec.lattice import coordinate_pairs, subcube_codes
from oracles import bit

SRC = Path(__file__).resolve().parents[1] / "src" / "polyspec"


def test_coordinate_pairs_is_the_edge_view():
    for n in range(7):
        values = np.arange(3 << n).reshape(3, 1 << n)
        for i in range(n):
            view = coordinate_pairs(values, i)
            assert view.shape == (3, 1 << (n - i - 1), 2, 1 << i)
            assert np.shares_memory(view, values)
            for x in range(1 << n):
                at = view[:, x >> (i + 1), bit(x, i), x & ((1 << i) - 1)]
                assert np.array_equal(at, values[:, x])


@pytest.mark.parametrize("coords", [[], [0], [3, 1], [0, 2, 4, 5],
                                    [5, 4, 3, 2, 1, 0]])
def test_subcube_codes_definition(coords):
    codes = subcube_codes(6, coords)
    assert codes.shape == (64,)
    for x in range(64):
        assert codes[x] == sum(bit(x, i) << k for k, i in enumerate(coords))


@pytest.mark.parametrize("c, dtype", [(0, np.uint8), (8, np.uint8), (9, np.uint16),
                                      (16, np.uint16), (17, np.uint32)])
def test_subcube_codes_smallest_dtype(c, dtype):
    n = max(c, 1)
    codes = subcube_codes(n, range(c))
    assert codes.dtype == dtype
    assert np.array_equal(codes, np.arange(1 << n) & ((1 << c) - 1))


def test_only_lattice_spells_the_edge_reshape():
    """Every other module reaches the two ends of an i-edge through
    lattice.coordinate_pairs."""
    modules = sorted(SRC.glob("*.py"))
    assert any(m.name == "lattice.py" for m in modules)
    offenders = [m.name for m in modules
                 if m.name != "lattice.py" and "reshape(-1, 2, 1 <<" in m.read_text()]
    assert offenders == []
