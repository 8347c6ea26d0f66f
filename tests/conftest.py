import re
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
    with many digits, with 1e-05-style exponents and as 0.0; then tables of
    few distinct values (signed zeros, subnormals, two values) and an
    all-distinct one.  Reprs stay unique, so test ids do too."""
    rng = np.random.default_rng(20240818)
    funcs = [random_boolean(n, rng) for n in (0, 2, 5)]
    funcs.append(BoundedFunction(0, [1.0 / 3.0]))
    values = rng.random(16) / 3.0
    values[[0, 5, 9]] = 0.0
    values[[1, 2, 3]] = [1e-05, 2.5e-07, 1.0 - 1e-12]
    values[4] = 0.1
    funcs.append(BoundedFunction(4, values))
    funcs.append(BoundedFunction(2, [-0.0, 0.0, 0.0, -0.0]))
    funcs.append(BoundedFunction(3, [5e-324, 1e-310, 1e-05, 0.1,
                                     0.1, 1e-05, 1e-310, 5e-324]))
    funcs.append(BoundedFunction(6, np.where(rng.random(64) < 0.3, 0.25, 0.75)))
    funcs.append(BoundedFunction(7, rng.random(128)))
    return funcs


def readme_block(title: str, fence: str = "```") -> str:
    """The first fenced block of the README after the line title, from its
    opening line fence."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(rf"^{re.escape(title)}\n.*?^{fence}\n(.*?)^```", readme,
                      re.MULTILINE | re.DOTALL)
    assert block is not None
    return block.group(1)


def readme_library_tour() -> str:
    """The Python block of the README's Library tour section."""
    return readme_block("## Library tour", "```python")
