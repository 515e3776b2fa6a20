"""Span tracer that wraps panolayout functions from outside the package.

A traced function is replaced at every module attribute it is bound to
(``selftrain`` imports ``fuse``, ``density_map``, ``iou2d`` ... by name, so
wrapping only the defining module would miss those calls). Each call records
a span: name, job id, start, end, parent span and the part of its interval
covered by child spans. Self time is the duration minus that covered part.
Statistics hooks run after a span has closed and their cost is charged to no
span, so tracer bookkeeping does not show up as any layer's self time.

``install`` patches, ``restore`` puts every original back; ``leftover_wrappers``
lists any wrapper still bound, which must be empty after ``restore``.
"""

from __future__ import annotations

import functools
import inspect
import logging
import re
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

_MARK = "__perfbench_traced__"
_CROSSINGS = re.compile(r"(\d+) contested column crossings")


class Span:
    __slots__ = ("name", "job", "start", "end", "parent", "covered")

    def __init__(self, name, job, start, parent):
        self.name = name
        self.job = job
        self.start = start
        self.end = start
        self.parent = parent
        self.covered = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.covered


class _CrossingCounter(logging.Handler):
    """Sums the contested-crossing counts that resample_to_columns logs."""

    def __init__(self, counters: Counter):
        super().__init__(logging.DEBUG)
        self.counters = counters

    def emit(self, record):
        m = _CROSSINGS.search(record.getMessage())
        if m:
            self.counters["reprojection.contested_crossings"] += int(m.group(1))


class Tracer:
    """In-memory spans and counters for one traced phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.job = None
        self.context: dict = {}
        self.missing: list[str] = []
        self._open: list[int] = []
        self._patches: list = []
        self._logger_state = None

    # -- spans -------------------------------------------------------------
    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.job, perf_counter(), parent))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _finish(self, idx: int, t0: float) -> None:
        """Charge the whole wrapper interval since t0 to the parent span."""
        parent = self.spans[idx].parent
        if parent is not None:
            self.spans[parent].covered += perf_counter() - t0

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one per CLI job)."""
        t0 = perf_counter()
        idx = self._begin(name)
        try:
            yield
        finally:
            self.spans[idx].end = perf_counter()
            self._open.pop()
            self._finish(idx, t0)

    def _wrap(self, name: str, fn, hook):
        sig = inspect.signature(fn) if hook is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            idx = tracer._begin(name)
            span = tracer.spans[idx]
            nested = span.parent is not None and tracer.spans[span.parent].name == name
            try:
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span.end = perf_counter()
                    tracer._open.pop()
                if hook is not None and not nested:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(tracer, bound.arguments, out)
                return out
            finally:
                tracer._finish(idx, t0)

        setattr(traced, _MARK, fn)
        return traced

    # -- patching ----------------------------------------------------------
    def install(self, package: str, specs) -> None:
        """Wrap each (module, attr, span name, hook) at all of its bindings.

        A function missing from its module is recorded in ``missing`` and
        skipped, so the traced run survives refactors of the package.
        """
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for mod_name, attr, name, hook in specs:
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        logger = logging.getLogger(f"{package}.reprojection")
        handler = _CrossingCounter(self.counters)
        self._logger_state = (logger, handler, logger.level, logger.propagate)
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        logger.propagate = False

    def restore(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()
        if self._logger_state is not None:
            logger, handler, level, propagate = self._logger_state
            logger.removeHandler(handler)
            logger.setLevel(level)
            logger.propagate = propagate
            self._logger_state = None

    # -- aggregation -------------------------------------------------------
    def totals(self):
        """Per span name: (calls, self seconds, inclusive seconds).

        A span directly nested in a span of the same name (build_stack
        calling the stack helper) is merged into its parent: it adds self
        time but no call.
        """
        calls, self_s, incl = Counter(), Counter(), Counter()
        for s in self.spans:
            self_s[s.name] += s.self_s
            merged = s.parent is not None and self.spans[s.parent].name == s.name
            if not merged:
                calls[s.name] += 1
                incl[s.name] += s.end - s.start
        return calls, self_s, incl


def leftover_wrappers(package: str) -> list[str]:
    """Module attributes of the package still bound to a tracer wrapper."""
    found = []
    for k, mod in sorted(sys.modules.items()):
        if mod is None or not (k == package or k.startswith(package + ".")):
            continue
        for key, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{k}.{key}")
    return found
