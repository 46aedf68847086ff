"""In-memory span recorder and the wrappers that attach it to speckleqi.

A span is (name, start, end, parent). Spans are appended to flat arrays as
they close, so a traced run of a million short calls costs tens of bytes per
call, and they are written out only when the run ends. All spans come from
one thread, so a span's children are disjoint intervals inside it and its
self time is its duration minus the sum of theirs.

Layers are attached by replacing the public functions of speckleqi at every
module binding a caller looks up (``speckleqi.oracle.helstrom`` also catches
the call from ``qcb``; ``speckleqi.cli.run_validation`` is its own binding).
The symmetric eigensolvers of numpy.linalg and scipy.linalg are wrapped the
same way, so ``oracle.eig_work`` adds up n^3 for each n x n matrix that is
actually decomposed, whatever function decomposes it. ``install`` returns a
function that puts the originals back.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import Counter

import numpy as np

ROOT = "op"

# speckleqi.oracle function -> layer name; every binding of each function in
# the speckleqi modules below is wrapped.
ORACLE_LAYERS = {
    "helstrom": "oracle.helstrom",
    "qcb": "oracle.qcb",
    "tensor_power": "oracle.tensor",
    "hypothesis_state": "oracle.channel",
    "apply_return_channel": "oracle.channel",
    "fading_average": "oracle.average",
    "wigner_covariance": "oracle.moments",
    "fading_exponent_trend": "oracle.trend",
}
MODULES = ("speckleqi", "speckleqi.cli", "speckleqi.validate", "speckleqi.oracle",
           "speckleqi.analytic", "speckleqi.montecarlo", "numpy.linalg", "scipy.linalg")
EIGENSOLVERS = ("eigh", "eigvalsh")


class Tracer:
    """Records spans of one thread; ``counts`` holds per-operation counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = []        # one Counter per root span
        self._seen_pairs = {}   # Helstrom state pairs of the current operation

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(np.nan)
        self._stack.append(idx)
        if name == ROOT:
            self.counts.append(Counter())
            self._seen_pairs = {}
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def rename(self, idx: int, name: str) -> None:
        self.name[idx] = self._id(name)

    def count(self, key: str, amount=1) -> None:
        if self.counts:
            self.counts[-1][key] += amount

    def helstrom_pair(self, rho0, rho1, pi0) -> bool:
        """True if this operation already evaluated Helstrom on these objects.

        The states are kept referenced until the operation ends, so an id
        cannot be reused within it.
        """
        key = (id(rho0), id(rho1), float(pi0))
        seen = key in self._seen_pairs
        self._seen_pairs[key] = (rho0, rho1)
        return seen

    def table(self) -> dict:
        """The span arrays, for writing out."""
        return {"names": np.array(self.names), "name": np.frombuffer(self.name, np.int32),
                "parent": np.frombuffer(self.parent, np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end)}


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time covered by its direct children."""
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(parent))
    return duration - covered


def layer_summary(tracer: Tracer) -> list:
    """Per root span: {layer: [entries, self seconds, total seconds]} plus
    its counters.

    An entry is a span whose parent belongs to another layer, so a layer
    calling itself (``bayes_error`` -> ``operating_point``) counts once, and
    the total is the summed duration of its entries.
    """
    t = tracer.table()
    name, parent = t["name"], t["parent"]
    duration = t["end"] - t["start"]
    self_s = self_times(parent, t["start"], t["end"])
    roots = np.flatnonzero(parent == -1)
    op_of = np.searchsorted(roots, np.arange(len(name)), side="right") - 1
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    entry = parent_name != name
    ops = [dict() for _ in roots]
    for i in range(len(name)):
        layer = ops[op_of[i]].setdefault(tracer.names[name[i]], [0, 0.0, 0.0])
        if entry[i]:
            layer[0] += 1
            layer[2] += float(duration[i])
        layer[1] += float(self_s[i])
    return [{"layers": layers, "counts": dict(counts)}
            for layers, counts in zip(ops, tracer.counts)]


# =============================================================================
# Wrappers
# =============================================================================

def _span(tracer: Tracer, layer: str, fn, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        idx = tracer.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
    return wrapper


def _oracle_hooks(tracer: Tracer) -> dict:
    def helstrom(rho0, rho1, pi0, *args, **kwargs):
        tracer.count("oracle.helstrom.repeats", tracer.helstrom_pair(rho0, rho1, pi0))
        _max_dim(rho0.data.shape[0])

    def qcb(rho0, rho1, *args, **kwargs):
        _max_dim(rho0.data.shape[0])

    def tensor_power(dm, m):
        tracer.count("oracle.tensor.bytes_out", 16 * (dm.data.shape[0] ** m) ** 2)

    def _max_dim(n):
        if tracer.counts:
            counts = tracer.counts[-1]
            counts["oracle.max_dim"] = max(counts["oracle.max_dim"], n)

    return {"helstrom": helstrom, "qcb": qcb, "tensor_power": tensor_power}


def _wrap_average(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(state_builder, *args, **kwargs):
        def counted(*a, **k):
            tracer.count("oracle.average.nodes")
            return state_builder(*a, **k)
        idx = tracer.enter("oracle.average")
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.exit(idx)
    return wrapper


def _wrap_eigensolver(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        shape = np.shape(a)  # (..., n, n): one solve per leading index
        tracer.count("oracle.eig_work", math.prod(shape[:-2]) * shape[-1] ** 3)
        return fn(a, *args, **kwargs)
    return wrapper


def _wrap_counter(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)
    return wrapper


def _wrap_check(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter("validate.check")
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        tracer.rename(idx, f"validate.{result.name}")
        return result
    return wrapper


def _wrap_operating_point(tracer: Tracer, fn):
    def before(receiver, params, threshold, config, *args, **kwargs):
        tracer.count("montecarlo.trials", 2 * config.trials)  # both hypotheses
    return _span(tracer, "montecarlo", fn, before)


def _public_functions(module) -> list:
    return [name for name, obj in vars(module).items()
            if callable(obj) and not isinstance(obj, type) and not name.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__]


def wrappers(tracer: Tracer) -> dict:
    """Map each original speckleqi function to its traced replacement."""
    import numpy.linalg
    import scipy.linalg

    import speckleqi.analytic as analytic
    import speckleqi.cli as cli
    import speckleqi.montecarlo as montecarlo
    import speckleqi.oracle as oracle
    import speckleqi.validate as validate

    hooks = _oracle_hooks(tracer)
    out = {}
    for fname, layer in ORACLE_LAYERS.items():
        fn = getattr(oracle, fname)
        out[fn] = (_wrap_average(tracer, fn) if fname == "fading_average"
                   else _span(tracer, layer, fn, hooks.get(fname)))
    out[oracle.displacement_operator] = _wrap_counter(
        tracer, "oracle.displacement.calls", oracle.displacement_operator)
    for fname in _public_functions(analytic):
        fn = getattr(analytic, fname)
        out[fn] = _span(tracer, "analytic", fn)
    for fname in _public_functions(validate):
        fn = getattr(validate, fname)
        if fname.startswith("check_"):
            out[fn] = _wrap_check(tracer, fn)
    out[validate.run_validation] = _span(tracer, "validate", validate.run_validation)
    out[montecarlo.estimate_operating_point] = _wrap_operating_point(
        tracer, montecarlo.estimate_operating_point)
    out[montecarlo.estimate_bayes_error] = _span(tracer, "montecarlo",
                                                 montecarlo.estimate_bayes_error)
    out[cli.main] = _span(tracer, "cli", cli.main)
    for module in (numpy.linalg, scipy.linalg):
        for fname in EIGENSOLVERS:
            fn = getattr(module, fname)
            out[fn] = _wrap_eigensolver(tracer, fn)
    for wrapper in out.values():
        wrapper.__traced__ = True
    return out


def install(tracer: Tracer):
    """Wrap every binding of the traced functions; returns the undo function."""
    import importlib

    replaced = []
    table = wrappers(tracer)
    for modname in MODULES:
        module = importlib.import_module(modname)
        for attr, obj in list(vars(module).items()):
            try:
                wrapper = table.get(obj)
            except TypeError:  # unhashable module attribute
                continue
            if wrapper is not None:
                replaced.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def uninstall():
        for module, attr, obj in replaced:
            setattr(module, attr, obj)
    return uninstall

