"""Spans around the calls that cross medbound's module boundaries.

The wrappers are installed from outside the package, on the module attribute
each caller looks up (``med.solve``, ``bpdual.ptrace_mat``, ``numpy.linalg.eigh``
...), and removed again when the traced block ends. Nothing under ``src/`` is
edited. A target that no longer exists is listed in ``Tracer.missing``
instead of raising, so a refactor of solver internals cannot break the run.

Spans are kept in memory (name, start, end, parent) and written once, after
the run. A span's self time is its duration minus the durations of its
direct children. Only a call nested directly in a span of the same name is
folded into it (for example ``opalg.entropy_mat`` calling
``opalg.entropy_from_probs``, both ``opalg.entropy``). Calls between
different spans of one layer are kept: ``opalg.logm_psd`` calls ``opalg.sym``
through the wrapped module attribute, so ``opalg.sym.calls`` includes those
calls and ``opalg.logm_psd.self_s`` excludes their time.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []          # [span index, name, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called `name`."""
        stack = self._stack
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.end.append(0.0)
        frame = [idx, name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        self.start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.end[idx] = t1
            dur = t1 - t0
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[2]
            if stack:
                stack[-1][2] += dur

    def write(self, path) -> None:
        """All spans as gzipped JSON: a name table plus parallel arrays."""
        doc = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "missing": self.missing,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# wrapper factories: (tracer, original, span name) -> replacement
# ---------------------------------------------------------------------------

def _plain(tracer: Tracer, fn, name: str):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return wrapper


def _eigh(tracer: Tracer, fn, name: str):
    # one span name per matrix dimension; 9 D^3 flops is the usual count for
    # a symmetric eigendecomposition with vectors (tridiagonalise + QR)
    def wrapper(a, *args, **kwargs):
        d = a.shape[-1]
        tracer.counters["lapack.eigh.flop"] += 9.0 * d ** 3
        return tracer.call(f"{name}.d{d}", fn, a, *args, **kwargs)
    return wrapper


def _minimize(tracer: Tracer, fn, name: str):
    # the objective handed to scipy is wrapped so the optimizer's own time
    # is the minimize span's self time
    def wrapper(fun, *args, **kwargs):
        def objective(*a, **k):
            return tracer.call("med.objective", fun, *a, **k)
        res = tracer.call(name, fn, objective, *args, **kwargs)
        tracer.counters["med.inner_iters"] += int(res.nit)
        return res
    return wrapper


def _fixed_point(tracer: Tracer, fn, name: str):
    def wrapper(*args, **kwargs):
        state = tracer.call(name, fn, *args, **kwargs)
        tracer.counters["bpdual.sweeps"] += int(state.iterations)
        return state
    return wrapper


OPALG_KERNELS = ("ptrace_mat", "embed_mat", "logm_psd", "sym", "trace_product", "entropy")

# (module, attribute, span name, factory); each entry is an attribute some
# caller looks up at call time
TARGETS = [
    ("medbound.lattice", "build_lattice", "lattice.geometry", _plain),
    ("medbound.lattice", "ti_chain_geometry", "lattice.geometry", _plain),
    ("medbound.lattice", "ti_square_geometry", "lattice.geometry", _plain),
    ("medbound.lattice", "finite_geometry", "lattice.geometry", _plain),
    ("medbound.bpdual", "build_lattice", "lattice.geometry", _plain),
    ("medbound.bpdual", "ti_chain_geometry", "lattice.geometry", _plain),
    ("numpy.linalg", "eigh", "lapack.eigh", _eigh),
    ("numpy.linalg", "eigvalsh", "lapack.eigvalsh", _plain),
    ("medbound.med", "solve", "med.solve", _plain),
    ("medbound.med", "_scipy_minimize", "med.minimize", _minimize),
    ("medbound.bpdual", "bp_fixed_point", "bpdual.fixed_point", _fixed_point),
    ("medbound.bpdual", "bp_update", "bpdual.bp_update", _plain),
]
_KERNEL_IMPORTS = {
    "medbound.opalg": ("ptrace_mat", "embed_mat", "logm_psd", "sym", "trace_product",
                       "entropy_from_probs", "entropy_mat"),
    "medbound.med": ("ptrace_mat", "embed_mat", "sym", "trace_product", "entropy_from_probs"),
    "medbound.bpdual": ("ptrace_mat", "embed_mat", "logm_psd", "sym", "trace_product",
                        "entropy_mat"),
    "medbound.lattice": ("embed_mat", "sym"),
}
for _mod, _attrs in _KERNEL_IMPORTS.items():
    for _attr in _attrs:
        _kernel = "entropy" if _attr.startswith("entropy") else _attr
        TARGETS.append((_mod, _attr, f"opalg.{_kernel}", _plain))


@contextmanager
def installed(tracer: Tracer, targets=None):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for mod_name, attr, name, factory in (TARGETS if targets is None else targets):
            try:
                module = importlib.import_module(mod_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                tracer.missing.append(f"{mod_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, factory(tracer, original, name))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
