"""In-memory span recorder for the library's module boundaries.

``Tracer.install`` rebinds every public function of each traced
``schattenmc`` module, in every ``schattenmc.*`` namespace that binds it, to a
wrapper that records a span (name, start, end, parent).  Calls inside a
module go through its globals, so they are traced too; calls through private
helpers are attributed to the nearest traced caller.  ``restore`` puts every
original binding back.  Nothing in the library is edited.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

PACKAGE = "schattenmc"
LAYERS = ("data", "sparse_obs", "linalg", "palm", "quasinorm", "verify", "metrics")

# Span record layout: [name, start, end, parent index (-1 at the root), work].
NAME, START, END, PARENT, WORK = range(5)


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        attr: obj
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Collects spans while installed; ``work`` maps a span name to a
    function of the call's arguments whose result is stored on the span."""

    def __init__(self, work=None):
        self.spans: list[list] = []
        self._stack = [-1]
        self._work = work or {}
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = self._work.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            work = measure(*args, **kwargs) if measure else None
            spans.append([name, clock(), 0.0, stack[-1], work])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around benchmark code."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1], None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][END] = time.perf_counter()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> list[float]:
    """Each span's duration less the time covered by its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, self time, and inclusive time.

    Inclusive time counts only calls not nested in a call of the same name,
    so a recursive function is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, selfs):
        row = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
        parent = s[PARENT]
        if parent < 0 or spans[parent][NAME] != s[NAME]:
            row["s"] += s[END] - s[START]
    return out
