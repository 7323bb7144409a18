"""Span recording for the traced benchmark run.

Spans are recorded on the benchmark's side of each layer boundary: a
delegating `TracingOperator` wraps the spatial layer, and `patched` swaps the
library's module attributes that `decompose` and the solvers look up at call
time for recording wrappers.  Nothing in the library changes.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import chebpint
from chebpint import solver, spectral, timedisc
from chebpint.spatial import SpatialOperator

# (module, attribute, span name).  The benchmark calls make_benchmark,
# decompose, the rhs functions and the solvers through these attributes;
# decompose looks its layers up in the spectral module, the solvers look up
# apply_B in the solver module and SNI imports rhs_first_order from timedisc
# at call time.
SETUP_POINTS = (
    (chebpint, "make_benchmark", "spatial.make_benchmark"),
    (spectral, "decompose", "spectral.decompose"),
    (spectral, "find_roots", "chebroots.find_roots"),
    (spectral, "build_V", "spectral.build_V"),
    (spectral, "build_Vinv_fast", "spectral.build_Vinv_fast"),
    (spectral, "cond2_estimate", "spectral.cond2_estimate"),
    (spectral, "decomposition_residual", "spectral.decomposition_residual"),
)
SOLVE_POINTS = (
    (timedisc, "rhs_first_order", "timedisc.rhs"),
    (timedisc, "rhs_second_order", "timedisc.rhs"),
    (solver, "apply_B", "timedisc.apply_B"),
    (solver, "solve_first_order_linear", "solver.solve"),
    (solver, "solve_second_order_linear", "solver.solve"),
    (solver, "solve_semilinear_sni", "solver.solve"),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    solve: str
    thread: int

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Collects spans in memory, each tagged with `solve`, which the caller
    sets before every solve.  A span opened on a thread with no open span of
    its own (a solver's pool worker) gets the innermost span open on the
    thread that created the tracer as its parent."""

    def __init__(self):
        self.spans = []
        self.solve = ""
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        enclosing = stack or self._owner_stack
        parent = enclosing[-1] if enclosing else None
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(span_id, name, start, end, parent, self.solve,
                          threading.get_ident())
            with self._lock:
                self.spans.append(record)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return recorded


def missing(points):
    """The attributes in points that the library no longer has."""
    return [f"{module.__name__}.{attr}" for module, attr, _ in points
            if not hasattr(module, attr)]


@contextmanager
def patched(tracer, points):
    """Replace each (module, attribute) that exists by a recording wrapper,
    and restore the originals on exit."""
    saved = []
    try:
        for module, attr, name in points:
            if hasattr(module, attr):
                original = getattr(module, attr)
                setattr(module, attr, tracer.wrap(name, original))
                saved.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class TracingOperator(SpatialOperator):
    """Delegating spatial operator that records a span around every call."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.tracer = tracer
        self.m = inner.m

    def apply(self, v):
        with self.tracer.span("spatial.apply"):
            return self.inner.apply(v)

    def shifted_solve(self, sigma, g):
        with self.tracer.span("spatial.shifted_solve"):
            return self.inner.shifted_solve(sigma, g)

    def shifted_diag_solve(self, sigma, diag, g):
        with self.tracer.span("spatial.shifted_diag_solve"):
            return self.inner.shifted_diag_solve(sigma, diag, g)


def self_times(spans):
    """Span id -> duration minus the part of it that its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.seconds - covered
    return out
