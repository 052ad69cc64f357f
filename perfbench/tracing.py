"""Spans and allocation peaks recorded around shrinkca's public calls.

The tracer wraps, from outside the package, every function a module
lists in ``__all__`` and every public method of the classes it lists,
and rebinds each module name that refers to the original, so calls
between modules go through the wrappers too.  A name the package no
longer exports is simply not wrapped, and its metrics read as absent.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc

LAYERS = ("gf2poly", "gf2field", "generators", "automata", "linearizer", "analysis", "cli")


def public_callables(sc) -> dict[str, tuple[object, str, object]]:
    """span name -> (owner, attribute, original) for every public callable."""
    found = {}
    for layer in LAYERS:
        module = getattr(sc, layer)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name, None)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{layer}.{name}"] = (module, name, obj)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found[f"{layer}.{name}.{attr}"] = (obj, attr, member)
    return found


class Patch:
    """Replaces originals by wrappers wherever a module binds them; undo()
    restores every binding."""

    def __init__(self, sc, make_wrapper, names=None):
        self._undo = []
        modules = [sc] + [getattr(sc, layer) for layer in LAYERS]
        for span, (owner, attr, original) in public_callables(sc).items():
            if names is not None and span not in names:
                continue
            wrapper = functools.wraps(original)(make_wrapper(span, original))
            targets = [(owner, attr)]
            if inspect.ismodule(owner):
                targets = [
                    (m, n) for m in modules for n, v in vars(m).items() if v is original
                ]
            for target, name in targets:
                self._undo.append((target, name, original))
                setattr(target, name, wrapper)

    def undo(self):
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()


# span sizes: how much work one call did, read from its arguments or result
SIZERS = {
    "generators.ShrinkingGenerator.shrunken_sequence": lambda args, result: len(result),
    "analysis.berlekamp_massey": lambda args, result: len(args[0]),
}


class Tracer:
    """Spans [name, start, end, parent index, op id, size], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sizer = SIZERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if sizer is not None:
                span[5] = sizer(args, result)
            return result

        return traced


class PeakRecorder:
    """tracemalloc peak of each call of a few leaf stages.  Tracing runs
    only inside those calls, so the rest of the op keeps full speed."""

    STAGES = (
        "generators.ShrinkingGenerator.shrunken_sequence",
        "automata.fit_initial_state",
    )

    def __init__(self):
        self.peaks: dict[str, list[int]] = {name: [] for name in self.STAGES}

    def wrapper(self, name, fn):
        peaks = self.peaks[name]

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured


def op_profiles(spans: list[list]) -> dict[int, dict]:
    """Per op: root duration, and per span name its total time, self time,
    call count and size.  Time inside a call of the same name (recursion)
    is counted once."""
    children_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            children_time[s[3]] += s[2] - s[1]
    ops: dict[int, dict] = {}
    for i, (name, start, end, parent, op, size) in enumerate(spans):
        prof = ops.setdefault(op, {"root": 0.0, "root_children": 0.0, "names": {}})
        dur = end - start
        if parent < 0:
            prof["root"] += dur
            prof["root_children"] += children_time[i]
        entry = prof["names"].setdefault(name, [0.0, 0.0, 0, 0])
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry[0] += dur
        entry[1] += dur - children_time[i]
        entry[2] += 1
        entry[3] += size
    return ops
