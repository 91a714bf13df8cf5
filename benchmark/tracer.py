"""Spans and counts around the calls into each leakywire layer.

The package binds imported names directly (``spectrum.assemble`` is the same
function object as ``bs_core.assemble``), so wrapping a function in its home
module alone would miss most calls.  ``Tracer.install`` wraps every public
function of every leakywire module once and writes the wrapper into every
module attribute that holds the original object; ``uninstall`` puts the
originals back.  The package itself is not edited.

A span records its name, thread, start and end, and its causal parent: the
innermost open span of the same thread, or, for the first span of a sweep
worker thread, the innermost open span of the main thread at that moment.
Child time is subtracted from a parent's self time only when both ran on the
same thread.  The two eigensolver entry points that bs_core calls
(``numpy.linalg.eigh`` and ``scipy.sparse.linalg.eigsh``) are wrapped as
well, so the path each ``top_eigenpairs`` call took is observed rather than
re-derived.
"""

import functools
import inspect
import threading
import time

import numpy as np
import scipy.sparse.linalg

LAYERS = ("specfun", "geometry", "bs_core", "spectrum", "asymptotics",
          "harness", "cli")

# spans shorter than this are aggregated but not written to the trace file
_SPAN_FILE_MIN_S = 1e-3


class Span:
    __slots__ = ("name", "layer", "tid", "t0", "t1", "parent", "child_s",
                 "info")

    def __init__(self, name, layer, tid, parent):
        self.name = name
        self.layer = layer
        self.tid = tid
        self.parent = parent
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self):
        return self.t1 - self.t0

    @property
    def self_s(self):
        return self.duration - self.child_s

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


class Tracer:
    """Per-thread span stacks over the wrapped leakywire functions.

    ``hooks`` maps a span name to ``hook(args, kwargs, result)``, called
    when the span closes; its return value is stored as ``span.info``.
    Spans keep no arguments themselves, so the trace holds no arrays alive.
    """

    def __init__(self, package, hooks):
        self.package = package
        self.hooks = hooks
        self.spans = []
        self._local = threading.local()
        self._main_stack = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, same_thread = stack[-1], True
            else:
                main = tracer._main_stack
                parent = main[-1] if main and main is not stack else None
                same_thread = False
            span = Span(name, layer, threading.get_ident(), parent)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                if same_thread:
                    parent.child_s += span.t1 - span.t0
                tracer.spans.append(span)
            hook = tracer.hooks.get(name)
            if hook is not None:
                span.info = hook(args, kwargs, out)
            return out

        return traced

    def _targets(self):
        """(name, layer, original) for every public leakywire function."""
        out = []
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    out.append((f"{layer}.{attr}", layer, obj))
        out.append(("numpy.linalg.eigh", "lapack", np.linalg.eigh))
        out.append(("scipy.sparse.linalg.eigsh", "lapack",
                    scipy.sparse.linalg.eigsh))
        return out

    def install(self):
        modules = [self.package] + [getattr(self.package, layer) for layer in LAYERS]
        modules += [np.linalg, scipy.sparse.linalg]
        for name, layer, original in self._targets():
            wrapper = self._wrap(name, layer, original)
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        self._main_stack = self._stack()

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def collect(self):
        """Return the spans recorded since the last collect and forget them."""
        spans, self.spans = self.spans, []
        return spans


def spans_for_file(spans, t_origin):
    """Spans of at least a millisecond as plain dicts, for the trace file."""
    index = {id(s): i for i, s in enumerate(spans)}
    out = []
    for i, s in enumerate(spans):
        if s.duration < _SPAN_FILE_MIN_S:
            continue
        out.append({"id": i, "name": s.name, "thread": s.tid,
                    "start_s": s.t0 - t_origin, "end_s": s.t1 - t_origin,
                    "parent": index.get(id(s.parent)) if s.parent else None})
    return out
