"""Span tracer for the vanhove layers, installed from outside the package.

Installing a :class:`Tracer` rebinds every public function of each layer
module in every module namespace that holds it (so a call is seen whatever
import path the caller used), and the ``char`` methods of the two state
classes.  Each call records a span ``[name, start, end, parent, work]``:
``parent`` is the index of the enclosing span (-1 at the top) and ``work``
an operation count read from the call's arguments where one is defined.
``uninstall`` puts the original functions back.

A span's self time is its duration minus the durations of its direct
children, so over properly nested spans the self times of all spans add up
to the summed durations of the top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from types import ModuleType

import numpy as np

LAYERS = (
    "cli",
    "grid",
    "sources",
    "weyl",
    "states",
    "dynamics",
    "scattering",
    "semiclassics",
    "fock",
)

# Methods traced in addition to module-level functions: (module, class, method).
METHODS = (("states", "CharState", "char"), ("states", "MappedState", "char"))


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


# Operation counts taken from a call's arguments, keyed by span name.
WORK = {
    # dense eigh of the truncated field operator costs ~dim^3
    "fock.weyl_matrix": lambda a, k: _arg(a, k, 0, "mode").dim ** 3,
    "dynamics.window_transform": lambda a, k: int(np.size(_arg(a, k, 1, "t"))),
    "scattering.free_overlap": lambda a, k: int(np.size(_arg(a, k, 2, "t"))),
}


class Tracer:
    """Records spans around the public functions of a vanhove package."""

    def __init__(self, package: ModuleType):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work_of = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            work = work_of(args, kwargs) if work_of else 0
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, work])
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        base = self.package.__name__
        layers = [importlib.import_module(f"{base}.{layer}") for layer in LAYERS]
        if layers[0].worker_count() > 1:
            # one span stack serves one thread; VANHOVE_THREADS would thread the CLI loops
            raise RuntimeError("cannot trace with VANHOVE_THREADS asking for several threads")
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, layers):
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for namespace in [self.package, *layers]:
            for attr, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((namespace, attr, obj))
                    setattr(namespace, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"{base}.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self.wrap(f"{layer}.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        self.spans.clear()


def summarize(spans: list[list]) -> dict[str, list]:
    """Per span name: [self seconds, calls, summed work]."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _, work) in enumerate(spans):
        entry = out.setdefault(name, [0.0, 0, 0])
        entry[0] += (end - start) - child[i]
        entry[1] += 1
        entry[2] += work
    return out


def top_level_wall(spans: list[list]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
