"""Host-clock spans around the program's layers, recorded from outside.

:class:`LayerTracer` wraps public functions and methods of the program's
layers for the duration of a ``with tracer.active():`` block and restores
the originals on exit, so untraced episodes run the unmodified code.
Every wrapped call is a span: its host seconds go to the span's layer,
and its duration is also credited to the enclosing span as child time,
so a layer's *self* time is its span time minus its wrapped children.

Simulated procs are generators the engine resumes one syscall at a
time; each proc is wrapped in :class:`_TimedProc`, which times every
resume as a span of the proc's layer (builder, worker or coordinator).

Totals are keyed by ``(phase, layer)``; the episode runner sets
``tracer.phase`` to ``"fit"``, ``"query"`` or ``"insert"`` around each
public call.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

from repro import HnswIndex, PartitionRouter
from repro.core.searcher import ModeledSearcher, RealHnswSearcher
from repro.runtime.report import ReportBuilder
from repro.serving.cache import ResultCache
from repro.simmpi.engine import Simulation


def _one(*args, **kwargs) -> int:
    return 1


def _rows(self, X, *args, **kwargs) -> int:
    return len(X)


def _rows_2nd(self, partition, Q, *args, **kwargs) -> int:
    return len(Q)


#: (owner, method, layer, units-of-work counter, monotone eval counter)
_METHODS = (
    (Simulation, "run", "simmpi", _one, None),
    (HnswIndex, "add_items", "hnsw.insert", _rows, "n_dist_evals"),
    (HnswIndex, "add", "hnsw.insert", _one, "n_dist_evals"),
    (HnswIndex, "knn_search", "hnsw.search", _one, "n_dist_evals"),
    (HnswIndex, "knn_search_batch", "hnsw.search", _rows, "n_dist_evals"),
    (PartitionRouter, "route_approx", "vptree.route", _one, "n_dist_evals"),
    (RealHnswSearcher, "search", "searcher", _one, None),
    (RealHnswSearcher, "search_batch", "searcher", _rows_2nd, None),
    (RealHnswSearcher, "search_filtered", "searcher", _one, None),
    (RealHnswSearcher, "search_filtered_batch", "searcher", _rows_2nd, None),
    (ModeledSearcher, "search", "searcher", _one, None),
    (ModeledSearcher, "search_batch", "searcher", _rows_2nd, None),
    (ModeledSearcher, "search_filtered", "searcher", _one, None),
    (ModeledSearcher, "search_filtered_batch", "searcher", _rows_2nd, None),
    (ResultCache, "key", "cache", _one, None),
    (ResultCache, "get", "cache", _one, None),
    (ResultCache, "put", "cache", _one, None),
    (ReportBuilder, "build", "runtime.report", _one, None),
)


def proc_layer(name: str) -> str:
    """The layer a simulated proc belongs to, from its registered name."""
    if name.startswith("build"):
        return "builder"
    if name.startswith("worker"):
        return "worker"
    return "coordinator"  # master, owners, and the serving arrival source


class LayerTracer:
    """Per-layer host seconds, self seconds, calls, units and evals."""

    def __init__(self) -> None:
        self.phase = "fit"
        #: open spans, innermost last: [layer, child seconds]
        self._stack: list[list] = []
        self.total: dict[tuple, float] = defaultdict(float)
        self.self_time: dict[tuple, float] = defaultdict(float)
        self.calls: dict[tuple, int] = defaultdict(int)
        self.units: dict[tuple, int] = defaultdict(int)
        self.evals: dict[tuple, int] = defaultdict(int)
        #: host seconds inside outermost spans, per phase
        self.root: dict[str, float] = defaultdict(float)

    def _close(self, layer: str, frame: list, dt: float) -> None:
        key = (self.phase, layer)
        self.total[key] += dt
        self.self_time[key] += dt - frame[1]
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][1] += dt
        else:
            self.root[self.phase] += dt

    def _wrap(self, fn, layer: str, units, evals_attr):
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == layer:
                # a layer calling its own public surface (search_batch ->
                # search) is one span, not two
                return fn(obj, *args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            before = getattr(obj, evals_attr) if evals_attr else 0
            t0 = perf_counter()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                key = (tracer.phase, layer)
                tracer.units[key] += units(obj, *args, **kwargs)
                if evals_attr:
                    tracer.evals[key] += getattr(obj, evals_attr) - before
                tracer._close(layer, frame, dt)

        return wrapper

    def _wrap_add_proc(self, add_proc):
        tracer = self

        @functools.wraps(add_proc)
        def wrapper(sim, program, *args, name: str = "", **kwargs):
            layer = proc_layer(name)

            def timed_program(ctx, *a):
                return _TimedProc(program(ctx, *a), layer, tracer)

            return add_proc(sim, timed_program, *args, name=name, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in _METHODS]
        saved.append((Simulation, "add_proc", Simulation.__dict__["add_proc"]))
        try:
            for owner, attr, layer, units, evals_attr in _METHODS:
                setattr(owner, attr, self._wrap(owner.__dict__[attr], layer, units, evals_attr))
            Simulation.add_proc = self._wrap_add_proc(Simulation.__dict__["add_proc"])
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
            self._stack.clear()


class _TimedProc:
    """A proc generator whose every resume is a span of ``layer``."""

    def __init__(self, gen, layer: str, tracer: LayerTracer) -> None:
        self._gen = gen
        self._layer = layer
        self._tracer = tracer

    def _resume(self, fn, arg):
        tracer = self._tracer
        frame = [self._layer, 0.0]
        tracer._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(arg)
        finally:
            dt = perf_counter() - t0
            tracer._stack.pop()
            tracer._close(self._layer, frame, dt)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def close(self):
        self._gen.close()
