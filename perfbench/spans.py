"""Trace shim for the benchmark: spans around the public functions of each layer.

`Tracer.install()` wraps every public function of the `volentropy` layer
modules and rebinds each `volentropy.*` module attribute that *is* one of
those functions, so calls made through a re-export (for example
`volentropy.cli.build_markov_from_images`) or through a module's own globals
are timed too.  It also wraps the timed `IntMatrix` methods.

A span is the list `[name, start, end, parent, op, extra]`: `parent` is the
index of the enclosing span in the same process (-1 at top level), `op` is the
operation id set by the caller, and `extra` carries the counts a few spans
record (matrix cells, nonzeros, iterations, paths).  Spans stay in memory
until the process reports them; `summarize` turns them into per-name totals
in which self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

LAYERS = ("core", "markov", "reductions", "spectral", "rome", "entropy", "cli")

# Work done by the shim itself inside a wrapped call (counting nonzeros of a
# returned matrix, say) is recorded as a child span under this name, so it is
# not charged to the self time of the enclosing layer.
BOOKKEEPING = "trace.bookkeeping"

_MARK = "__perfbench_wrapped__"

# Spans whose own code bisects for a root; their direct poly_eval children are
# the evaluations counted by entropy.evals_per_root.
ROOT_SEARCHES = ("entropy.lambda_n_bracket", "entropy.volume_entropy")


def _cells(m) -> int:
    return m.size * m.size


def _markov_extra(args, result):
    spec = args[0]
    nnz = sum(len(row) - row.count(0) for row in result.rows)
    return [[spec.n, spec.orientable, spec.formal], nnz, _cells(result)]


def _power_extra(args, result):
    return [result.iterations, result.converged, _cells(args[0])]


# Counts recorded beside the span, by span name.
_EXTRAS = {
    "markov.build_markov_from_blocks": _markov_extra,
    "markov.build_markov_from_images": _markov_extra,
    "spectral.power_iteration": _power_extra,
    "rome.enumerate_simple_paths": lambda args, result: len(result),
    "entropy.volume_entropy": lambda args, result: args[0].n,
    "core.intmatrix": lambda args, result: _cells(args[0]),
}

# The timed IntMatrix methods and their span names.
_INTMATRIX_METHODS = {
    "__init__": "core.intmatrix",
    "__mul__": "core.intmatrix_mul",
    "is_nonnegative": "core.is_nonnegative",
}


class Tracer:
    """Records spans for every call into a wrapped function of this process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        extra_of = _EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra_of is not None:
                rec[5] = extra_of(args, result)
                spans.append([BOOKKEEPING, rec[2], clock(), parent, self.op, None])
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer and the timed IntMatrix methods."""
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"volentropy.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for mod in _volentropy_modules():
            for attr, value in list(vars(mod).items()):
                pair = wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, attr, pair[1])
        intmatrix = sys.modules["volentropy.core"].IntMatrix
        for attr, name in _INTMATRIX_METHODS.items():
            setattr(intmatrix, attr, self._wrap(vars(intmatrix)[attr], name))


def _volentropy_modules() -> list[types.ModuleType]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "volentropy" or name.startswith("volentropy.")
    ]


def installed_wrappers() -> list[str]:
    """Names of all trace wrappers currently bound anywhere in `volentropy`."""
    found = []
    for mod in _volentropy_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{attr}")
    intmatrix = sys.modules["volentropy.core"].IntMatrix
    for attr in _INTMATRIX_METHODS:
        if hasattr(vars(intmatrix)[attr], _MARK):
            found.append(f"IntMatrix.{attr}")
    return found


def summarize(spans: list[list]) -> dict:
    """Per-name totals over one process's spans.

    Returns `{"names": {name: [calls, self_s]}, ...}` plus the counts the
    benchmark derives its per-layer ratios from.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _op, _extra in spans:
        if parent >= 0:
            child_s[parent] += end - start
    names: dict[str, list] = {}
    for i, (name, start, end, _parent, _op, _extra) in enumerate(spans):
        entry = names.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child_s[i]

    blocks_keys = set()
    markov_nnz = markov_cells = 0
    power_iterations = power_unconverged = matvec_flops = 0
    paths = intmatrix_cells = 0
    root_evals = roots = 0
    for name, _start, _end, parent, _op, extra in spans:
        if name == "core.poly_eval":
            if parent >= 0 and spans[parent][0] in ROOT_SEARCHES:
                root_evals += 1
        elif name == "entropy.lambda_n_bracket":
            roots += 1
        elif extra is None:
            continue  # the call raised, or its span records no counts
        elif name.startswith("markov.build_markov_from_"):
            key, nnz, cells = extra
            markov_nnz += nnz
            markov_cells += cells
            if name == "markov.build_markov_from_blocks":
                blocks_keys.add(tuple(key))
        elif name == "spectral.power_iteration":
            iterations, converged, cells = extra
            power_iterations += iterations
            power_unconverged += not converged
            matvec_flops += 2 * cells * iterations
        elif name == "rome.enumerate_simple_paths":
            paths += extra
        elif name == "core.intmatrix":
            intmatrix_cells += extra
        elif name == "entropy.volume_entropy" and extra >= 3:
            roots += 2  # the rome-root and charpoly-root bisections
    return {
        "names": names,
        "blocks_distinct": len(blocks_keys),
        "markov_nnz": markov_nnz,
        "markov_cells": markov_cells,
        "power_iterations": power_iterations,
        "power_unconverged": power_unconverged,
        "matvec_flops": matvec_flops,
        "paths": paths,
        "intmatrix_cells": intmatrix_cells,
        "root_evals": root_evals,
        "roots": roots,
    }
