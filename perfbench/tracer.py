"""Spans around every call into polyspec, recorded from the benchmark's side.

A :class:`Tracer` rebinds each public function of each polyspec module in
every polyspec namespace that holds it (modules import each other's
functions by name, so patching the defining module alone would miss, say,
``fourier.apply_kernel``), and wraps ``BooleanFunction.__init__`` and
``BoundedFunction.__init__`` at the class.  A span is (name, start, end,
parent span, op id, flags); spans stay in memory in flat arrays and are
written out once, at the end.  A layer is the polyspec module that defines
the function; its self time is its spans' time minus their child spans.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array
from pathlib import Path

import numpy as np
import polyspec
from polyspec import analysis, cli, core, families, fourier, influences, lattice, noise

import oracles

LAYERS = ("lattice", "core", "fourier", "noise", "influences", "families", "analysis", "cli")
MODULES = {"lattice": lattice, "core": core, "fourier": fourier, "noise": noise,
           "influences": influences, "families": families, "analysis": analysis, "cli": cli}
NAMESPACES = (polyspec, *MODULES.values())
CLASS_INITS = ((core.BooleanFunction, "core.BooleanFunction.__init__"),
               (core.BoundedFunction, "core.BoundedFunction.__init__"))
PACKAGE_DIR = str(Path(polyspec.__file__).resolve().parent)

RAISED = 1
RETURNED_NONE = 2


def public_functions():
    """(layer.name, function) for each public function a polyspec module defines."""
    for layer, mod in MODULES.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or inspect.isgeneratorfunction(obj)):
                continue
            yield f"{layer}.{attr}", obj


def _bindings():
    """Every (namespace, attribute, object) that names a polyspec function."""
    for ns in NAMESPACES:
        for attr, obj in vars(ns).items():
            if callable(obj) and not isinstance(obj, type) and str(
                    getattr(obj, "__module__", "")).startswith("polyspec."):
                yield ns, attr, obj
    for cls, _ in CLASS_INITS:
        yield cls, "__init__", cls.__dict__["__init__"]


def _code_file(obj) -> str:
    code = getattr(obj, "__code__", None) or getattr(getattr(obj, "__wrapped__", None), "__code__", None)
    return str(Path(code.co_filename).resolve()) if code else ""


PRISTINE = {(ns, attr): obj for ns, attr, obj in _bindings()}


def foreign_bindings() -> list[str]:
    """Names bound to anything but the package's own function objects.

    Empty whenever no tracer is installed: the identity of every binding is
    compared with the snapshot taken at import, and its code must live in
    the polyspec package.
    """
    bad = []
    for ns, attr, obj in _bindings():
        if PRISTINE.get((ns, attr)) is not obj or not _code_file(obj).startswith(PACKAGE_DIR):
            bad.append(f"{ns.__name__}.{attr}")
    return bad


def _kernel_accounting(args, kwargs, result):
    """(element-stages, bytes, flops) of one apply_kernel call, computed
    from shape and dtype: each stage streams every element in and out once,
    except that a kernel with top row (1, 0) leaves the x_i = 0 half
    unwritten; a pair costs 6 flops, or 3 for that triangular kernel."""
    values, n, kernel = args[:3]
    coords = args[3] if len(args) > 3 else kwargs.get("coords")
    elem_stages = values.size * (n if coords is None else len(coords))
    triangular = kernel[0][0] == 1.0 and kernel[0][1] == 0.0
    moved = elem_stages * values.itemsize * (1.5 if triangular else 2.0)
    return elem_stages, moved, elem_stages * (1.5 if triangular else 3.0)


ANNOTATE = {
    "lattice.apply_kernel": _kernel_accounting,
    "core.load_function": lambda args, kwargs, result: (os.path.getsize(args[0]),),
    "core.save_function": lambda args, kwargs, result: (os.path.getsize(args[1]),),
}


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_id = array("i")
        self.flags = array("b")
        self.extra: dict[int, tuple] = {}
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        annotate = ANNOTATE.get(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        ops, flags, stack, extra = self.op_id, self.flags, self.stack, self.extra
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0)
            flags.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                flags[idx] = RAISED
                raise
            ends[idx] = clock()
            stack.pop()
            if result is None:
                flags[idx] = RETURNED_NONE
            if annotate is not None:
                extra[idx] = annotate(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = name
        return wrapper

    def __enter__(self):
        wrappers = {id(fn): (fn, self._wrap(fn, name)) for name, fn in public_functions()}
        for ns, attr, obj in list(_bindings()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                self._saved.append((ns, attr, obj))
                setattr(ns, attr, hit[1])
        for cls, name in CLASS_INITS:
            orig = cls.__dict__["__init__"]
            self._saved.append((cls, "__init__", orig))
            setattr(cls, "__init__", self._wrap(orig, name))
        return self

    def __exit__(self, *exc):
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved.clear()
        return False

    # -----------------------------------------------------------------------
    # after the run

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names), "name": np.array(self.name, np.int32),
                "start": np.array(self.start, np.int64), "end": np.array(self.end, np.int64),
                "parent": np.array(self.parent, np.int32), "op": np.array(self.op_id, np.int32),
                "flags": np.array(self.flags, np.int8)}

    def save(self, path: Path) -> None:
        np.savez_compressed(path, **self.arrays())

    def count(self, name: str) -> int:
        return sum(self.names[k] == name for k in self.name)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and errors, plus the named counters."""
        a = self.arrays()
        name, parent, flags = a["name"], a["parent"], a["flags"]
        dur = (a["end"] - a["start"]).astype(np.float64) * 1e-9
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        names = self.names

        def ids(pred):
            return np.array([k for k, nm in enumerate(names) if pred(nm)], dtype=np.int32)

        def sel(pred):
            return np.isin(name, ids(pred))

        out: dict[str, float] = {}
        for layer in LAYERS:
            m = sel(lambda nm: nm.split(".")[0] == layer)
            out[f"{layer}.calls"] = int(m.sum())
            out[f"{layer}.self_s"] = float(self_s[m].sum())
            out[f"{layer}.errors"] = int(np.count_nonzero(flags[m] & RAISED))

        kernel = np.flatnonzero(sel(lambda nm: nm == "lattice.apply_kernel"))
        acct = np.array([self.extra[k] for k in kernel], dtype=np.float64).reshape(-1, 3)
        elem_stages, moved, flops = acct.sum(axis=0)
        out["lattice.kernel_self_s"] = float(dur[kernel].sum())
        out["lattice.kernel_ns_per_elem_stage"] = float(dur[kernel].sum() * 1e9 / elem_stages) if elem_stages else 0.0
        out["lattice.kernel_bytes_computed"] = float(moved)
        out["lattice.kernel_flops_per_byte"] = float(flops / moved) if moved else 0.0

        ctor = sel(lambda nm: nm.endswith(".__init__"))
        out["core.ctor_calls"] = int(ctor.sum())
        out["core.ctor_self_s"] = float(self_s[ctor].sum())
        io_spans = np.flatnonzero(sel(lambda nm: nm in ("core.load_function", "core.save_function")))
        out["core.json_io_s"] = float(dur[io_spans].sum())
        out["core.json_bytes"] = int(sum(self.extra[k][0] for k in io_spans))

        make = sel(lambda nm: nm.startswith("families.make_"))
        out["families.make_calls"] = int(make.sum())
        out["families.make_self_s"] = float(self_s[make].sum())
        recog = sel(lambda nm: nm in ("families.recognize_and_or", "families.minterms"))
        out["families.recognize_self_s"] = float(self_s[recog].sum())

        searches = ids(lambda nm: nm == "analysis.distance_to_and_or")
        n_search = int(np.isin(name, searches).sum())
        make_andor = np.flatnonzero(sel(lambda nm: nm == "families.make_and_or"))
        under = np.zeros(len(make_andor), dtype=bool)
        cur = parent[make_andor]
        while cur.size and (cur >= 0).any():
            live = cur >= 0
            under[live] |= np.isin(name[cur[live]], searches)
            cur = np.where(live, parent[np.maximum(cur, 0)], -1)
        recognizer = sel(lambda nm: nm == "families.recognize_and_or")
        direct = recognizer & np.isin(name[np.maximum(parent, 0)], searches) & has_parent
        out["analysis.andor_candidates_per_row"] = float(under.sum() / n_search) if n_search else 0.0
        out["analysis.andor_recognized_frac"] = (
            float(np.count_nonzero(direct & ((flags & RETURNED_NONE) == 0)) / direct.sum())
            if direct.any() else 0.0)
        out["trace.spans"] = int(len(name))
        return out


def completeness_errors() -> list[str]:
    """Two calls whose span counts are known in advance."""
    errors = []
    with Tracer() as t:
        t.op = 0
        fourier.transform_table(np.ones(1 << 6), 6, 0.5)
    if t.count("lattice.apply_kernel") != 1:
        errors.append(f"transform_table gave {t.count('lattice.apply_kernel')} apply_kernel spans, expected 1")

    n, max_width = 6, 2
    table = oracles.and_table(n, [0, 1])
    table[0] = 1           # f(empty) = 1 but f(e_0) = 0: not monotone, so no recognizer hit
    f = core.BooleanFunction(n, table)
    with Tracer() as t:
        t.op = 0
        analysis.distance_to_and_or(f, 0.5, max_width=max_width)
    want = oracles.and_or_candidates(n, max_width)
    if t.count("families.make_and_or") != want:
        errors.append(f"distance_to_and_or gave {t.count('families.make_and_or')} make_and_or spans, "
                      f"expected {want} candidates")
    return errors
