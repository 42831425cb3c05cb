"""Spans recorded from outside resacc, around the calls into each module.

``Tracer.wrap("resacc.kernels.conv2d")`` replaces every binding of that
function in resacc's modules and the benchmark's own with a wrapper that
records a span, so a call is caught whichever module makes it. Spans are
aggregated in memory as they close (calls, total time, time covered by
child spans, and time per parent/child pair) and turned into metrics when
the run ends. A name that no longer exists is recorded as missing, so the
metrics built on it are reported as missing rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

_SCOPES = ("resacc", "subjects", "workloads")
CALIBRATION_CALLS = 20000


class Tracer:
    def __init__(self):
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Forget the recorded spans; installed wrappers stay."""
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, child
        self.below: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict = defaultdict(float)  # facts recorded by span namers
        self.spans = 0

    def _close(self, frame: list, t1: float) -> None:
        name, t0, child = frame
        dur = t1 - t0
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += child
        self.spans += 1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            pair = self.below[(parent[0], name)]
            pair[0] += 1
            pair[1] += dur

    def call(self, name: str, fn, *args, **kwargs):
        frame = [name, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._close(frame, t1)

    def span(self, name: str):
        return _Span(self, name)

    def bind(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        return functools.wraps(fn)(lambda *a, **k: self.call(name, fn, *a, **k))

    def wrap(self, target: str, name: str | None = None, namer=None) -> None:
        """Wrap the function ``module.attr`` wherever it is bound.

        The span is named ``name`` (default: the target without its
        ``resacc.`` prefix), or by ``namer(args, kwargs)`` per call.
        """
        mod_name, attr = target.rsplit(".", 1)
        span_name = name or target.removeprefix("resacc.")
        orig = getattr(importlib.import_module(mod_name), attr, None)
        if orig is None:
            self.missing.add(span_name)
            return
        if namer is None:
            wrapper = self.bind(span_name, orig)
        else:
            wrapper = functools.wraps(orig)(
                lambda *a, **k: self.call(namer(a, k), orig, *a, **k)
            )
        for mod in list(sys.modules.values()):
            if mod is None or mod.__name__.split(".")[0] not in _SCOPES:
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def unwrap_all(self) -> None:
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    def per_span_overhead_s(self) -> float:
        """Cost one span adds to a call, measured on a no-op."""
        def noop():
            return None

        saved = (self.stats, self.below, self.counts, self.spans)
        self.reset()
        best = float("inf")
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(CALIBRATION_CALLS):
                noop()
            t1 = perf_counter()
            for _ in range(CALIBRATION_CALLS):
                self.call("trace.calibration", noop)
            t2 = perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / CALIBRATION_CALLS)
        self.stats, self.below, self.counts, self.spans = saved
        return max(best, 0.0)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.frame = [name, 0.0, 0.0]

    def __enter__(self):
        self.frame[1] = perf_counter()
        self.tracer._stack.append(self.frame)
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        self.tracer._stack.pop()
        self.tracer._close(self.frame, t1)
        return False
