"""Span recorder patched around csquant's public functions from outside.

Every public function of the traced modules is replaced, in every csquant
namespace that binds it, by a wrapper that records one span: name, parent
span id, run id, start and end (`perf_counter`), and the process peak RSS
(`getrusage`) on entry and exit.  Modules that import with `from .x import f`
hold their own reference to `f`, so patching only the defining module would
miss those calls.  `ConstraintOp.eigensystem` and `LinearOperator.__post_init__`
are patched on their classes.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import time
from collections import defaultdict

MODULES = ("cli", "fock", "coherent", "projector", "spin", "classical", "correlators", "wiener", "_kernels")


def layer_of(module: str) -> str:
    """Metric prefix of a csquant module: metric names must start with a letter."""
    return module.lstrip("_")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []  # (id, parent, name, t0, t1, rss0_kb, rss1_kb)
        self.stack = []
        self.counters = defaultdict(int)

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            rss0 = _maxrss_kb()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1, rss0, _maxrss_kb())
            if count is not None:
                count(args, result)
            return result

        return traced

    def install(self):
        """Patch the span wrappers into every csquant namespace."""
        package = importlib.import_module("csquant")
        modules = {name: importlib.import_module(f"csquant.{name}") for name in MODULES}
        # one span name per function object; an alias (e.g. the backend-selected
        # kernel bound under two names) takes its shortest public name
        named = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer_of(short)}.{attr}"
                if id(obj) not in named or len(name) < len(named[id(obj)][0]):
                    named[id(obj)] = (name, obj)
        wrappers = {}
        for key, (name, fn) in named.items():
            count = self._count_out_bytes if name.startswith("kernels.") else None
            wrappers[key] = self.wrap(name, fn, count)
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and named[id(obj)][1] is obj:
                    setattr(namespace, attr, wrapper)
        constraint_cls = modules["projector"].ConstraintOp
        constraint_cls.eigensystem = self.wrap("projector.eigensystem", constraint_cls.eigensystem)
        operator_cls = modules["fock"].LinearOperator
        operator_cls.__post_init__ = self.wrap(
            "fock.LinearOperator", operator_cls.__post_init__, self._count_dense_bytes
        )

    def _count_out_bytes(self, args, result):
        self.counters["kernels.out_bytes"] += getattr(result, "nbytes", 0)

    def _count_dense_bytes(self, args, result):
        # computed, not measured: one complex128 dim x dim matrix per operator
        self.counters["fock.dense_bytes"] += 16 * args[0].space.dim ** 2

    def summary(self) -> dict:
        """Per span name: calls, self time (s) and self peak-RSS rise (MB)."""
        child_time = [0.0] * len(self.spans)
        child_rise = [0] * len(self.spans)
        for _, parent, _, t0, t1, rss0, rss1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
                child_rise[parent] += rss1 - rss0
        by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "rise_mb": 0.0})
        for sid, _, name, t0, t1, rss0, rss1 in self.spans:
            entry = by_name[name]
            entry["calls"] += 1
            entry["self_s"] += (t1 - t0) - child_time[sid]
            entry["rise_mb"] += ((rss1 - rss0) - child_rise[sid]) / 1024.0
        return dict(by_name)

    def write(self, path: str):
        """All spans as CSV: id, parent, run, name, t0, t1, maxrss at entry and exit (KiB)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,run,name,t0,t1,rss0_kb,rss1_kb\n")
            for sid, parent, name, t0, t1, rss0, rss1 in self.spans:
                handle.write(f"{sid},{parent},{self.run_id},{name},{t0:.9f},{t1:.9f},{rss0},{rss1}\n")
