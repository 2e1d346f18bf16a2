"""Span tracing of bband-sim's layers, installed from outside the program.

:func:`install` replaces every public function that ``bband_sim.cli`` and
``bband_sim.pipeline`` bind from a layer module with a wrapper recording
one span per call: name ``<layer>.<function>``, start, end and parent
span. Spans are kept in flat arrays and aggregated only when asked, so a
call costs a few appends. The stack of open spans is shared, so a traced
program must call the wrapped functions from one thread (the benchmark
runs it with ``--jobs 1``).
"""

from __future__ import annotations

import functools
import inspect
import time
import warnings
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("data_io", "core", "radio", "demand", "dimensioning", "cost", "energy", "pipeline")


class Tracer:
    """In-memory span recorder with per-call result hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.runtime_warnings = 0

    def wrap(self, name: str, fn, on_result=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, name_ids, parents, starts, ends = self._stack, self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def count_warnings(self, fn):
        """Wrap ``fn`` so every RuntimeWarning it raises is counted, not shown."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                result = fn(*args, **kwargs)
            self.runtime_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
            return result

        return counted

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it because all spans share one thread.
        """
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        nid = np.asarray(self.name_id)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        n = len(self.names)
        count = np.bincount(nid, minlength=n)
        incl = np.bincount(nid, weights=dur, minlength=n)
        self_s = np.bincount(nid, weights=dur - child, minlength=n)
        return {
            name: {"count": int(count[i]), "inclusive_s": float(incl[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        """Write every span (name, start, end, parent index) as a ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


def install(tracer: Tracer, namespaces, hooks=None, count_warnings=()) -> list:
    """Wrap the layer functions bound in ``namespaces``; returns an undo list.

    ``hooks`` maps a span name to ``on_result(args, kwargs, result)``;
    ``count_warnings`` names spans whose RuntimeWarnings are counted.
    One wrapper is made per function, so a function bound in several
    namespaces records one span per call.
    """
    hooks = hooks or {}
    wrappers: dict[int, object] = {}
    undo = []
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if not obj.__module__.startswith("bband_sim.") or layer not in LAYERS:
                continue
            if id(obj) not in wrappers:
                name = f"{layer}.{obj.__name__}"
                fn = tracer.count_warnings(obj) if name in count_warnings else obj
                wrappers[id(obj)] = tracer.wrap(name, fn, hooks.get(name))
            setattr(ns, attr, wrappers[id(obj)])
            undo.append((ns, attr, obj))
    return undo


def uninstall(undo) -> None:
    for ns, attr, obj in reversed(undo):
        setattr(ns, attr, obj)
