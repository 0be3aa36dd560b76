"""Spans and call counts around the calls into each maxcorr layer.

The tracer wraps, from outside the package, the public functions of the
modules linalg, states, correlation, entanglement and cli, two methods that
carry the search (_PovmObjective.evaluate, ROADMAP's primitive) and
marginals (BipartiteState.marginal), and the numpy/LAPACK calls under them
(the kernel floor). Every module attribute that refers to a wrapped function
is replaced, so calls through `from .x import f` names are seen too. Calls
are recorded only while an operation span is open, so the benchmark's own
checks and reference computations never count.

Spans live in memory as (name, start, end, parent, op) and are written when
the run ends. A layer's self time is its spans' durations minus the part
covered by their child spans.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("kernel", "linalg", "states", "correlation", "entanglement", "cli", "bench")

_KERNEL = (
    ("numpy.linalg.eigh", np.linalg, "eigh"),
    ("numpy.linalg.eigvalsh", np.linalg, "eigvalsh"),
    ("numpy.linalg.svd", np.linalg, "svd"),
    ("numpy.kron", np, "kron"),
)


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return "kernel" if head == "numpy" else head


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.op = None
        self.requests = {}
        self._undo = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            idx = len(tracer.spans)
            parent = tracer.stack[-1]
            tracer.spans.append(None)
            tracer.stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, inside an operation."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.calls[name] += 1
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    @contextlib.contextmanager
    def op_span(self, name: str, op_id: int, request):
        """The root span of one benchmark operation; calls count only inside one."""
        self.op = op_id
        self.requests[op_id] = request
        try:
            with self.span(name):
                yield
        finally:
            self.op = None

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, mc) -> None:
        """Wrap the package's layer functions and the kernel calls under them."""
        for name, owner, attr in _KERNEL:
            self._set(owner, attr, self._wrap(name, getattr(owner, attr)))
        targets = {}
        for short in ("linalg", "states", "correlation", "entanglement", "cli"):
            module = importlib.import_module(f"maxcorr.{short}")
            names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
            for n in names:
                fn = getattr(module, n)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and n != "main":
                    targets[id(fn)] = (fn, self._wrap(f"{short}.{n}", fn))
        modules = [m for k, m in sys.modules.items() if k == "maxcorr" or k.startswith("maxcorr.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    self._set(module, attr, targets[id(value)][1])
        state_cls = mc.states.BipartiteState
        self._set(state_cls, "marginal", self._wrap("states.BipartiteState.marginal", state_cls.marginal))
        povm = mc.entanglement._PovmObjective
        self._set(povm, "evaluate", self._wrap("entanglement.evaluate", povm.evaluate))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries -------------------------------------------------------

    def busy_s(self) -> Counter:
        """Inclusive seconds per span name."""
        out = Counter()
        for name, start, end, _parent, _op in self.spans:
            out[name] += end - start
        return out

    def self_s(self) -> dict:
        """Self seconds per layer: span time not covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[layer_of(name)] += (end - start) - child[idx]
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "calls": dict(sorted(self.calls.items())),
                    "spans": self.spans,
                },
                fh,
            )

