"""Span recorder for the traced benchmark run.

The recorder wraps every public function of the package's layer modules
wherever its name is bound (module attributes, and dict values such as a
suite dispatch table), so spans are recorded at each layer boundary without
touching the package source.  Spans live in flat in-memory arrays and are
written out when the run ends; :func:`self_times` reduces them.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = (
    "matfun",
    "symplectic",
    "jacobi",
    "numdiff",
    "fockoracle",
    "diffops",
    "gj1",
    "verify",
    "cli",
)
BENCH = "bench"  # root span of one benchmark op; its self time is harness time


def _dim_of_point(args, kwargs):
    return args[1].n if len(args) > 1 else 0


def _dim_of_first(args, kwargs):
    return args[0].n


def _sampler_count(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["count"]


def _dim_of_table(args, kwargs):
    ws = sum(1 for v in next(iter(args[0].values())).variables if v.startswith("w_"))
    return round((np.sqrt(8 * ws + 1) - 1) / 2)


#: Per-function tag taken from the call's arguments: the dimension n, or the
#: sample count of the vectorized sampler.
TAGGERS = {
    "jacobi.kernel": _dim_of_first,
    "jacobi.kahler_potential": _dim_of_first,
    "jacobi.kahler_form": _dim_of_first,
    "jacobi.density": _dim_of_first,
    "jacobi.jacobi_compose": _dim_of_first,
    "jacobi.act": _dim_of_point,
    "jacobi.lambda_cocycle": _dim_of_point,
    "jacobi.lambda_cocycle_ez": _dim_of_point,
    "jacobi.sample_arrays_n1": _sampler_count,
    "numdiff.wirtinger_hessian": _dim_of_point,
    "numdiff.holomorphic_jacobian": _dim_of_point,
    "diffops.verify_structure_constants": _dim_of_table,
}

#: Per-function value taken from the call's result.
RESULT_PROBES = {
    "diffops.verify_structure_constants": lambda result: result["checked"],
}


class Tracer:
    """In-memory span store plus the wrappers that feed it.

    A span is (name id, start ns, end ns, parent index, op id, tag, value).
    ``op`` is the benchmark op the span belongs to, so all spans of one
    request share it.
    """

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.tag = array("d")
        self.value = array("d")
        self._stack: list = []
        self.current_op = -1
        self._patches: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, tag: float = 0.0) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.tag.append(tag)
        self.value.append(0.0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, qualname: str):
        nid = self.name_id(qualname)
        tagger = TAGGERS.get(qualname)
        probe = RESULT_PROBES.get(qualname)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per resume, so the consumer's code between items is
            # not charged to the generator; the exhausting resume gets the negated tag
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tag = float(tagger(args, kwargs)) if tagger else 0.0
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(nid, tag)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.tag[idx] = -tag
                        return
                    finally:
                        tracer.close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid, float(tagger(args, kwargs)) if tagger else 0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if probe is not None:
                tracer.value[idx] = float(probe(result))
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap each layer's public functions in every module of ``package``."""
        modules = [getattr(package, name) for name in LAYERS]
        wrapped = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{mod.__name__.split('.')[-1]}.{attr}"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped and wrapped[id(val)][0] is val:
                            self._patches.append((obj, key, val))
                            obj[key] = wrapped[id(val)][1]

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def arrays(self) -> dict:
        """The spans as numpy arrays (durations in seconds)."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return {
            "name": np.frombuffer(self.name, dtype=np.dtype(self.name.typecode)).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.dtype(self.parent.typecode)).astype(np.int64),
            "op": np.frombuffer(self.op, dtype=np.dtype(self.op.typecode)).astype(np.int64),
            "start_ns": start.copy(),
            "end_ns": end.copy(),
            "tag": np.frombuffer(self.tag, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct child spans cover.

    Children of one span run one after another (a single thread), so the
    covered time is the sum of their durations.
    """
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child
