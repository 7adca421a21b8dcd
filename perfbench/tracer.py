"""Outside-in span tracing of palmlab, installed by patching its public callables.

palmlab itself has no tracing.  `instrument(tracer)` replaces the public
callables of each layer with wrappers that record a span (name, start, end,
parent, thread, command id, one attribute) and restores them on exit.
Several modules bind a callable by name at import time (``ams`` and
``identities`` import ``run_kernel`` and the estimators), so a callable is
patched in every module that holds it, and the per-chunk ``kernel`` that
``run_kernel`` receives is wrapped too.  Spans live in memory until
`write_spans` is called once at the end.

Worker threads of ``run_kernel``'s thread pool start with an empty stack;
their spans take the innermost open span of the command thread as parent.
"""

from __future__ import annotations

import csv
import itertools
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from palmlab import ams, estimate, events, identities, models, pattern

ESTIMATORS = (
    "est_event_probability", "est_palm_zero", "est_shifted_palm", "est_intensity",
    "est_intermediate", "mc_mean",
)
AMS_ENTRIES = ("cesaro_event", "cesaro_time", "convert_es_to_ts", "convert_ts_to_es")

# Span record fields.  A span's layer is the part of its name before the dot.
ID, NAME, START, END, PARENT, THREAD, CMD, ATTR, COUNT = range(9)


class Tracer:
    """Collects spans; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._command = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attr="") -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else -1
        rec = [next(self._ids), name, time.perf_counter(), 0.0, parent,
               threading.get_ident(), self._command, attr, 0]
        self.spans.append(rec)
        stack.append(rec[ID])
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def command(self, name: str):
        """Top-level span for one CLI command; its spans share a command id."""
        self._command += 1
        self._local.stack = self._root_stack
        rec = self.open(f"cli.{name}")
        try:
            yield rec
        finally:
            self.close(rec)

    def wrap(self, fn, name: str, attr=None, count=None):
        """Wrapper recording a span per call.  `attr(args, kwargs)` labels the
        span; `count(args, kwargs, result)` stores a per-call count."""

        def wrapper(*args, **kwargs):
            rec = self.open(name, attr(args, kwargs) if attr else "")
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec[COUNT] = count(args, kwargs, result)
                return result
            finally:
                self.close(rec)

        return wrapper


def _model_name(args, kwargs) -> str:
    return args[0].descriptor.get("model", args[0].law_tag)


def _spec_id(args, kwargs) -> str:
    return args[0].id


def _points(args, kwargs, batch) -> int:
    return int(batch.points.size)


def _n_events(args, kwargs, codes) -> int:
    return int(np.size(codes))


def _kernel_shape(args, kwargs) -> str:
    return f"{kwargs.get('threads', 1)}/{args[2]}"


def _rejected(args, kwargs, sums) -> int:
    return int(sums.rejected.sum())


@contextmanager
def instrument(tracer: Tracer):
    """Patch every layer's public callables for the duration of the block."""
    saved: list[tuple[object, str, object]] = []
    wrappers: dict[int, object] = {}

    def patch(owner, attr: str, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        key = id(original)
        if key not in wrappers:
            wrappers[key] = make(original)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrappers[key])

    def plain(name, **kw):
        return lambda fn: tracer.wrap(fn, name, **kw)

    def run_kernel_wrapper(fn):
        def call(model, window, budget, ncols, kernel, **kwargs):
            kernel = tracer.wrap(kernel, "estimate.kernel")
            return fn(model, window, budget, ncols, kernel, **kwargs)

        return tracer.wrap(call, "estimate.run_kernel", attr=_kernel_shape, count=_rejected)

    try:
        patch(identities, "run_suite", plain("identities.run_suite"))
        patch(identities, "check_identity", plain("identities.check", attr=_spec_id))
        for owner in (estimate, identities):
            for name in ESTIMATORS:
                patch(owner, name, plain(f"estimate.{name}"))
        for owner in (ams, identities):
            for name in AMS_ENTRIES:
                if hasattr(owner, name):
                    patch(owner, name, plain(f"ams.{name}"))
        for owner in (estimate, ams):
            patch(owner, "run_kernel", run_kernel_wrapper)
        patch(models.ProcessModel, "sample_batch",
              plain("models.sample_batch", attr=_model_name, count=_points))
        patch(pattern.PatternBatch, "pattern", plain("pattern.pattern"))
        patch(pattern.PatternBatch, "global_sorted", plain("pattern.global_sorted"))
        for method in ("__init__", "gsorted", "pos0"):
            patch(events.EventContext, method, plain("events.context"))
        for cls in _subclasses(events.Eventuality):
            for method, count in (("at_events", _n_events), ("at_origin", None),
                                  ("segments", None)):
                if method in cls.__dict__:
                    patch(cls, method, plain(f"events.{method}", count=count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def write_spans(tracer: Tracer, path: Path) -> None:
    """One CSV row per span, times in seconds from the first span's start."""
    t0 = min((rec[START] for rec in tracer.spans), default=0.0)
    with open(path, "w", newline="", encoding="utf8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name", "start", "end", "parent", "thread", "command",
                         "attr", "count"])
        for rec in sorted(tracer.spans, key=lambda r: r[ID]):
            writer.writerow([rec[ID], rec[NAME], f"{rec[START] - t0:.9f}",
                             f"{rec[END] - t0:.9f}", rec[PARENT], rec[THREAD], rec[CMD],
                             rec[ATTR], rec[COUNT]])

