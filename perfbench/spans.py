"""In-memory spans recorded around calls into the program's layers.

A span is (id, parent, name, start, end, thread).  The parent is the
innermost open span of the same thread, so a layer's self time is its
duration minus the durations of its direct children.  Spans opened in
the simulated-MPI rank threads have no parent in the main thread; they
are grouped by the benchmark's own episode spans instead (see
:meth:`Tracer.per_episode`).

:func:`instrument` wraps the program's public layer entry points for the
duration of a traced run and restores them afterwards.  Nothing in the
program is edited: the wrappers live here and only exist while tracing.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float
    tid: int

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Span recorder; thread safe, one open-span stack per thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Last instance each ``*.setup`` wrapper saw (program objects the
        #: workloads do not hold themselves, e.g. a ParallelFMM built
        #: inside ``StokesSingleLayer.refresh_geometry``).
        self.objects: dict[str, object] = {}
        #: While set, :meth:`span` records nothing (overhead measurement).
        self.paused = False
        #: Entry points :func:`instrument` could not find.
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        if self.paused:
            return nullcontext()
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(sid, parent, name, t0, t1, threading.get_ident())
                )

    def record(self, name: str, t0: float, t1: float) -> None:
        """A span whose interval the caller measured (async requests)."""
        with self._lock:
            sid = next(self._ids)
            self.spans.append(
                Span(sid, None, name, t0, t1, threading.get_ident())
            )

    # -- queries ------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        covered = sum(c.dur for c in self.spans if c.parent == span.sid)
        return span.dur - covered

    def child_time(self, span: Span, name: str) -> float:
        return sum(
            c.dur for c in self.spans if c.parent == span.sid and c.name == name
        )

    def per_episode(self, name: str, episodes: list[Span]) -> list[float]:
        """Per episode: the slowest thread's total time in spans ``name``.

        Used for layers that run inside the rank threads, where "max over
        ranks" is the time the episode waited for that layer.
        """
        out = []
        for ep in episodes:
            by_tid: dict[int, float] = {}
            for s in self.spans:
                if s.name == name and ep.t0 <= s.t0 and s.t1 <= ep.t1:
                    by_tid[s.tid] = by_tid.get(s.tid, 0.0) + s.dur
            out.append(max(by_tid.values(), default=0.0))
        return out

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON (viewable in Perfetto / chrome://tracing)."""
        base = min((s.t0 for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name, "ph": "X", "pid": 0, "tid": s.tid,
                "ts": (s.t0 - base) * 1e6, "dur": s.dur * 1e6,
                "args": {"id": s.sid, "parent": s.parent},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    enabled = False
    paused = False

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.objects: dict[str, object] = {}
        self.missing: list[str] = []

    def span(self, name: str):
        return nullcontext()

    def record(self, name: str, t0: float, t1: float) -> None:
        pass


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _wrap(tracer: Tracer, name: str, fn):
    keep = name.endswith(".setup")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if keep:
            tracer.objects[name] = args[0]
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _wrap_async(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            if not tracer.paused:
                tracer.record(name, t0, time.perf_counter())

    return wrapper


@contextmanager
def instrument(tracer):
    """Wrap the layers' public entry points in spans while tracing.

    The module-level names are the ones the callers resolve at call time
    (``repro.core.fmm`` for the sequential setup, ``repro.parallel.pfmm``
    for the rank setup), so the wrappers see every call the program makes.
    """
    if not tracer.enabled:
        yield
        return
    import repro.core.fmm as fmm_mod
    import repro.parallel.pfmm as pfmm_mod
    from repro.bie.stokes_bie import StokesSingleLayer
    from repro.serve.service import EvaluationService

    targets = [
        (fmm_mod, "build_tree", "octree.build_tree", _wrap),
        (fmm_mod, "build_lists", "octree.build_lists", _wrap),
        (fmm_mod, "build_plan", "plan.build_plan", _wrap),
        (pfmm_mod, "parallel_build_tree", "octree.build_tree", _wrap),
        (pfmm_mod, "build_lists", "octree.build_lists", _wrap),
        (pfmm_mod, "build_plan", "plan.build_plan", _wrap),
        (fmm_mod.KIFMM, "setup", "fmm.setup", _wrap),
        (fmm_mod.KIFMM, "apply", "fmm.apply", _wrap),
        (pfmm_mod.ParallelFMM, "setup", "pfmm.setup", _wrap),
        (pfmm_mod.ParallelFMM, "apply", "pfmm.apply", _wrap),
        (StokesSingleLayer, "refresh_geometry", "bie.refresh_geometry", _wrap),
        (StokesSingleLayer, "matvec", "bie.matvec", _wrap),
        (EvaluationService, "evaluate", "serve.evaluate", _wrap_async),
    ]
    # A target a later refactor renamed or moved is skipped and listed in
    # ``tracer.missing``, so its spans read 0 instead of the run failing.
    present = [t for t in targets if t[1] in vars(t[0])]
    tracer.missing = [f"{t[0].__name__}.{t[1]}" for t in targets if t not in present]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in present]
    try:
        for owner, attr, name, wrap in present:
            setattr(owner, attr, wrap(tracer, name, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
