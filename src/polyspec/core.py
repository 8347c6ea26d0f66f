"""Boolean and bounded functions on the hypercube, with p-biased averaging.

Truth tables are dense numpy arrays indexed by the integer point encoding of
:mod:`polyspec.lattice` (bit i of the index = coordinate x_i).  Instances are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import json

import numpy as np

from .lattice import coordinate_pairs, measure_weights, subset_mask

MAX_N_BOOLEAN = 24   # 16 MiB dense table
MAX_N_BOUNDED = 20   # 8 MiB of doubles
VALUE_TOL = 1e-12    # slack accepted on [0,1] bounds at construction


def _check_open_unit(name: str, value: float) -> None:
    """Reject a value outside the open interval (0, 1), NaN included."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0,1), got {value}")


def _check_closed_unit(name: str, value: float) -> None:
    """Reject a value outside the closed interval [0, 1], NaN included."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0,1], got {value}")


def _check_at_least_zero(name: str, value: float) -> None:
    """Reject a negative value, NaN included."""
    if not value >= 0:
        raise ValueError(f"{name} must be at least 0, got {value}")


def _check_dimension(n: int, cap: int = MAX_N_BOOLEAN) -> None:
    """Reject a dimension outside [0, cap], before 2^n is allocated."""
    if not 0 <= n <= cap:
        raise ValueError(f"dimension {n} outside [0, {cap}]")


def _check_boolean(name: str, f) -> None:
    """Reject a function that is not Boolean, naming the function that reads
    its table as bits."""
    if not isinstance(f, BooleanFunction):
        raise ValueError(f"{name} needs a Boolean function, got {type(f).__name__}")


def _check_same_dimension(*functions) -> None:
    """Reject functions that do not all share one dimension."""
    if len({f.n for f in functions}) > 1:
        raise ValueError("dimension mismatch: " + " != ".join(str(f.n) for f in functions))


class BooleanFunction:
    """A function {0,1}^n -> {0,1} stored as a dense truth table."""

    __slots__ = ("n", "_table")

    def __init__(self, n: int, table):
        _check_dimension(n)
        arr = np.asarray(table)
        if arr.shape != (1 << n,):
            raise ValueError(f"table has shape {arr.shape}, expected ({1 << n},)")
        ok = (arr.max(initial=0) <= 1 if arr.dtype.kind in "ub"
              else np.isin(arr, (0, 1)).all())
        if not ok:
            raise ValueError("Boolean table entries must be 0 or 1")
        self.n = n
        self._table = np.ascontiguousarray(arr, dtype=np.uint8)
        self._table.flags.writeable = False

    @classmethod
    def _trusted(cls, n: int, table: np.ndarray) -> "BooleanFunction":
        """Wrap a table the library built itself, without re-scanning it.

        The caller guarantees a fresh C-contiguous uint8 array of 2^n
        entries, each 0 or 1, that nothing else writes; it is set read-only
        here.
        """
        self = cls.__new__(cls)
        self.n = n
        self._table = table
        table.flags.writeable = False
        return self

    @property
    def table(self) -> np.ndarray:
        return self._table

    @property
    def bits_hex(self) -> str:
        """Truth table packed 8 points per byte, point index = bit position."""
        return np.packbits(self._table, bitorder="little").tobytes().hex()

    @classmethod
    def from_bits_hex(cls, n: int, bits_hex: str) -> "BooleanFunction":
        _check_dimension(n)
        raw = np.frombuffer(bytes.fromhex(bits_hex), dtype=np.uint8)
        # bytes.fromhex skips whitespace, so a string holding any is longer than 2 * raw.size
        if len(bits_hex) != 2 * raw.size or raw.size != ((1 << n) + 7) // 8:
            raise ValueError(f"bits_hex is not {((1 << n) + 7) // 8} bytes in hex digits (n = {n})")
        bits = np.unpackbits(raw, bitorder="little")
        if bits[1 << n:].any():
            raise ValueError(f"padding bits beyond the {1 << n} table entries must be 0")
        return cls(n, bits[: 1 << n])

    def __eq__(self, other) -> bool:
        return (isinstance(other, BooleanFunction) and self.n == other.n
                and np.array_equal(self._table, other._table))

    def __hash__(self) -> int:
        return hash((self.n, self._table.tobytes()))

    def __repr__(self) -> str:
        if self.n <= 4:
            return f"BooleanFunction(n={self.n}, table={self._table.tolist()})"
        return f"BooleanFunction(n={self.n}, bits_hex='{self.bits_hex[:16]}...')"


class BoundedFunction:
    """A function {0,1}^n -> [0,1] stored as a dense table of doubles."""

    __slots__ = ("n", "_table")

    def __init__(self, n: int, table):
        _check_dimension(n, MAX_N_BOUNDED)
        arr = np.asarray(table, dtype=np.float64)
        if arr.shape != (1 << n,):
            raise ValueError(f"table has shape {arr.shape}, expected ({1 << n},)")
        # written so that NaN fails the test: it compares False both ways
        if not (arr.min() >= -VALUE_TOL and arr.max() <= 1.0 + VALUE_TOL):
            raise ValueError("bounded table entries must be finite and lie in "
                             "[0,1] (tol 1e-12)")
        self.n = n
        self._table = np.clip(arr, 0.0, 1.0)
        self._table.flags.writeable = False

    @property
    def table(self) -> np.ndarray:
        return self._table

    def __eq__(self, other) -> bool:
        return (isinstance(other, BoundedFunction) and self.n == other.n
                and np.array_equal(self._table, other._table))

    def __repr__(self) -> str:
        return f"BoundedFunction(n={self.n})"


AnyFunction = BooleanFunction | BoundedFunction


def average_out(f: AnyFunction, keep, q: float) -> BoundedFunction:
    """Average f over the coordinates outside ``keep`` under bias q.

    Returns the function on {0,1}^|keep| given by
    alpha |-> sum over beta of mu_q(beta) * f(alpha, beta); coordinates in
    ``keep`` keep their relative order.
    """
    _check_open_unit("bias q", q)
    keep = set(keep)
    subset_mask(f.n, keep)
    table = f.table
    for j in sorted(set(range(f.n)) - keep, reverse=True):
        edges = coordinate_pairs(table, j)
        table = np.multiply(edges[:, 0, :], 1.0 - q, dtype=np.float64).reshape(-1)
        table += (q * edges[:, 1, :]).reshape(-1)
    return BoundedFunction(len(keep), table)


def expectation(f: AnyFunction, p: float) -> float:
    """Mean of f under the p-biased product measure."""
    _check_open_unit("bias p", p)
    return float(measure_weights(f.n, p) @ f.table.astype(np.float64))


def l1_distance(f: AnyFunction, g: AnyFunction, p: float) -> float:
    """L1 distance between f and g under the p-biased measure."""
    _check_open_unit("bias p", p)
    _check_same_dimension(f, g)
    diff = np.abs(f.table.astype(np.float64) - g.table.astype(np.float64))
    return float(measure_weights(f.n, p) @ diff)


def constant(n: int, value) -> AnyFunction:
    """Constant function; Boolean when value is exactly 0 or 1."""
    if value in (0, 1):
        return BooleanFunction(n, np.full(1 << n, value, dtype=np.uint8))
    return BoundedFunction(n, np.full(1 << n, float(value)))


# ---------------------------------------------------------------------------
# Function file format (JSON)

def _json_fields(f: AnyFunction) -> dict:
    if isinstance(f, BooleanFunction):
        return {"n": f.n, "kind": "boolean", "bits_hex": f.bits_hex}
    return {"n": f.n, "kind": "bounded", "values": f.table}


def _float_list_json(values: np.ndarray) -> str:
    """``json.dumps(values.tolist())`` for a 1-D float64 array, formatting each
    distinct bit pattern once (the uint64 view keeps -0.0 apart from +0.0)
    when fewer than half the entries are distinct.  With more, the gather
    costs more than it saves (195 against 128 ms on an n = 18 spectrum at
    p = 0.3), so the whole list goes to one json.dumps call.

    The gather allocates, one entry per value, a sorted uint64 copy (freed
    once the distinct values are taken), the searchsorted index (freed once
    the gather has read it), the gathered object array and its list; the
    brackets go onto the first and last entries, so the join builds the
    only copy of the text.  The one call allocates tolist()'s floats and
    the text."""
    distinct = np.sort(values.view(np.uint64))   # np.unique hashes: ~20x slower at 2^18
    distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
    if 2 * len(distinct) >= len(values):
        return json.dumps(values.tolist())
    # one encoder call formats every distinct value; no float text holds ", "
    text = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    gathered = np.array(text, object)[np.searchsorted(distinct, values.view(np.uint64))].tolist()
    gathered[0], gathered[-1] = "[" + gathered[0], gathered[-1] + "]"
    return ", ".join(gathered)


def _pieces(obj) -> list[str]:
    """``dumps(obj)`` as the list of strings it concatenates."""
    items = sorted(obj.items()) if isinstance(obj, dict) else _json_fields(obj).items()
    pieces = []
    for k, v in items:
        pieces += [", ", json.dumps(k), ": ", _float_list_json(v) if isinstance(v, np.ndarray)
                   else json.dumps(v, sort_keys=True)]
    return ["{", *pieces[1:], "}"]


def dumps(obj) -> str:
    """``json.dumps`` of a function's file fields in file order, or of a dict
    with string keys with every dict's keys sorted; each float64 ndarray value
    is encoded as its ``tolist()`` would be."""
    return "".join(_pieces(obj))


def from_json_dict(data: dict) -> AnyFunction:
    """The function a parsed function file describes; ValueError when the
    document is not an object with an integer n and a string bits_hex or a
    list of numbers in values."""
    if not isinstance(data, dict):
        raise ValueError(f"a function file holds a JSON object, not {type(data).__name__}")
    kind, n = data.get("kind"), data.get("n")
    if kind not in ("boolean", "bounded"):
        raise ValueError(f"unknown function kind: {kind!r}")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n is {type(n).__name__}, not an integer")
    if kind == "boolean":
        bits_hex = data.get("bits_hex")
        if not isinstance(bits_hex, str):
            raise ValueError(f"bits_hex is {type(bits_hex).__name__}, not a string")
        return BooleanFunction.from_bits_hex(n, bits_hex)
    values = data.get("values")
    if not isinstance(values, list):
        raise ValueError(f"values is {type(values).__name__}, not a list")
    # numpy would read a string such as "0.5" or a bool as a number
    kinds = set(map(type, values)) - {int, float}
    if kinds:
        raise ValueError(f"values are not numbers: {', '.join(sorted(k.__name__ for k in kinds))}")
    try:
        return BoundedFunction(n, np.asarray(values, dtype=np.float64))
    except OverflowError:       # an integer beyond the float range
        raise ValueError("values hold an integer too large for a float") from None


def save_function(f: AnyFunction | dict, path) -> None:
    """Write ``dumps(f)`` and a newline to path: a function file, or any
    other document ``dumps`` encodes.

    The pieces ``dumps`` would join go to writelines, so no string holds
    the whole document: past _float_list_json's arrays, the float list's
    text is held once, and its bytes while that piece is written."""
    # Encoding first leaves an existing file untouched when encoding fails.
    pieces = _pieces(f) + ["\n"]
    with open(path, "w") as fh:
        fh.writelines(pieces)


def load_function(path) -> AnyFunction:
    """Read a function file.  Malformed content raises ValueError, JSON
    nested too deeply for the parser included."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"JSON nested too deeply in {str(path)!r}") from None
    return from_json_dict(doc)
