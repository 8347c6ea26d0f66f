import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from polyspec import BooleanFunction, BoundedFunction


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_boolean(n: int, rng) -> BooleanFunction:
    return BooleanFunction(n, rng.integers(0, 2, 1 << n))


def random_bounded(n: int, rng) -> BoundedFunction:
    return BoundedFunction(n, rng.random(1 << n))


def json_io_functions() -> list:
    """Boolean tables of n = 0, 2, 5 and bounded tables whose floats print
    with many digits, with 1e-05-style exponents and as 0.0."""
    rng = np.random.default_rng(20240818)
    funcs = [random_boolean(n, rng) for n in (0, 2, 5)]
    funcs.append(BoundedFunction(0, [1.0 / 3.0]))
    values = rng.random(16) / 3.0
    values[[0, 5, 9]] = 0.0
    values[[1, 2, 3]] = [1e-05, 2.5e-07, 1.0 - 1e-12]
    values[4] = 0.1
    funcs.append(BoundedFunction(4, values))
    return funcs
