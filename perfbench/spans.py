"""In-memory span recorder attached to imbnode from outside the package.

A span is ``(name, start, end, parent, run)``: ``perf_counter`` seconds, the
index of the enclosing span (-1 for a root) and the training-run id (1, 2, ...
for the k-th ``train.train`` call, 0 outside any run). Spans stay in a list
until the repetition ends and are then written out as JSON lines.

``install`` wraps every public function of the traced modules, plus a few
methods, and rebinds each wrapper under every name a caller looks up: the
home module, modules that imported the function by value (``train.adam_step``,
``cli.train``, ...) and the package namespace.

Standard library only at import time: the child imports this module before
the timed ``import imbnode``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = (
    "graph",
    "encoder",
    "oversample",
    "kernels",
    "edgegen",
    "classifier",
    "tape",
    "optim",
    "metrics",
    "train",
    "cli",
)
# (module, class, method): methods whose calls a layer metric counts
METHODS = (
    ("graph", "Graph", "dense_adjacency"),
    ("optim", "ParamStore", "snapshot"),
)
NXN_BACKWARD = "tape.backward.nxn"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self.run = 0
        self._runs = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None, starts_run=False):
        """``fn`` recording one span per call. ``count(result, *args,
        **kwargs)`` returns computed work counts added to
        ``counters["<name>.<key>"]``; it runs after the span closes, so its
        cost lands in the caller's self time, not the layer's."""
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_run:
                self._runs += 1
                self.run = self._runs
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run)
                if starts_run:
                    self.run = 0
            if count is not None:
                for key, value in count(result, *args, **kwargs).items():
                    full = f"{name}.{key}"
                    counters[full] = counters.get(full, 0) + value
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def child_cover(spans) -> list[float]:
    """Per span, the length of the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    cover = [0.0] * len(spans)
    for parent, intervals in children.items():
        p_start, p_end = spans[parent][1], spans[parent][2]
        total, reach = 0.0, p_start
        for start, end in sorted(intervals):
            start, end = max(start, reach), min(end, p_end)
            if end > start:
                total += end - start
                reach = end
        cover[parent] = total
    return cover


def self_times(spans) -> dict[str, dict]:
    """name -> calls, total_s (sum of durations) and self_s (durations minus
    the time children cover)."""
    cover = child_cover(spans)
    out: dict[str, dict] = {}
    for (name, start, end, _, _), covered in zip(spans, cover):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - covered
    return out


def bucket_shares(spans, bucket_of) -> dict[str, float]:
    """Self time partitioned by ``bucket_of(path)``, where ``path`` lists the
    span's name and its ancestors' names, innermost first; as shares of the
    traced time (the sum of root durations)."""
    cover = child_cover(spans)
    paths: list[tuple[str, ...]] = []
    totals: dict[str, float] = {}
    for (name, start, end, parent, _), covered in zip(spans, cover):
        path = (name,) + (paths[parent] if parent >= 0 else ())
        paths.append(path)
        key = bucket_of(path)
        totals[key] = totals.get(key, 0.0) + (end - start - covered)
    traced = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    return {k: v / traced for k, v in totals.items()} if traced > 0 else {}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr, obj


def install(tracer: Tracer, counts: dict):
    """Trace the public functions of ``MODULES`` and the ``METHODS``.
    ``counts`` maps span names to work-count callables. Returns a function
    that puts the originals back."""
    import imbnode

    modules = {short: importlib.import_module(f"imbnode.{short}") for short in MODULES}
    wrapped = {}
    for short, module in modules.items():
        for attr, fn in _public_functions(module):
            name = f"{short}.{attr}"
            wrapped[fn] = tracer.wrap(name, fn, counts.get(name), starts_run=name == "train.train")
    undo = []
    for module in (imbnode, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                undo.append((module, attr, obj))
                setattr(module, attr, wrapped[obj])
    for short, cls_name, attr in METHODS:
        cls = getattr(modules[short], cls_name)
        fn = vars(cls)[attr]
        name = f"{short}.{attr}"
        undo.append((cls, attr, fn))
        setattr(cls, attr, tracer.wrap(name, fn, counts.get(name)))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def trace_nxn_backward(tracer: Tracer, side: int):
    """Give each backward step of a tape op that touches a ``side`` x
    ``side`` matrix (the all-pairs edge scores) its own ``tape.backward.nxn``
    span, so the n-by-n share of ``tape.backward`` is measured apart.

    This wraps ``tape._out``, the private constructor every tape op uses."""
    tape = importlib.import_module("imbnode.tape")
    original = tape._out
    square = (side, side)

    def _out(value, parents, vjp, op):
        if vjp is not None and (
            getattr(value, "shape", None) == square or any(p.shape == square for p in parents)
        ):
            vjp = tracer.wrap(NXN_BACKWARD, vjp)
        return original(value, parents, vjp, op)

    tape._out = _out
