"""In-memory span tracer that wraps bqual's public functions from outside.

A span records name, layer, start, end, parent and job id.  Spans are
opened by wrappers installed at runtime around the original functions,
which are found by identity in every ``bqual.*`` module namespace that
imported them, and by a ``gc.callbacks`` hook that records each cyclic
collection as a child of the innermost open span.  Nothing in bqual is
edited on disk and no GC setting is changed.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

GC_LAYER = "gc"
JOB_LAYER = "job"
HOOK_LAYER = "trace"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    job: str
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """A public function to wrap.

    ``before(args, kwargs)`` runs just before the span opens; its result is
    passed to ``after(tracer, before_value, args, kwargs, result)``, which
    runs in a separate ``trace.hook`` span once the call has returned and
    gives the span's counts.
    """

    module: str
    attr: str
    layer: str
    name: str
    before: Callable | None = None
    after: Callable | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((span.end - span.start) - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start: float | None = None
        # Arguments seen in the current job, held so that ids stay unique.
        self.job_refs: list = []
        self.seen: set = set()

    # --- spans -------------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        # Allocate the span before taking its index: the allocation can run
        # a collection whose callback appends a span of its own.
        span = Span(name, layer, 0.0, 0.0, parent, self.job)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = span.end = time.perf_counter()
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span

    def begin_job(self, job: str) -> int:
        self.job = job
        self.job_refs.clear()
        self.seen.clear()
        return self.open(job, JOB_LAYER)

    def end_job(self, index: int) -> Span:
        span = self.close(index)
        self.job_refs.clear()
        self.seen.clear()
        return span

    def repeated(self, *objs) -> bool:
        """True when these exact objects were passed together earlier in
        this job."""
        key = tuple(id(o) for o in objs)
        if key in self.seen:
            return True
        self.seen.add(key)
        self.job_refs.append(objs)
        return False

    # --- gc ----------------------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if self._gc_start is None or not self._stack:
            self._gc_start = None
            return
        parent = self._stack[-1]
        self.spans.append(
            Span(
                f"gc.gen{info['generation']}",
                GC_LAYER,
                self._gc_start,
                time.perf_counter(),
                parent,
                self.job,
                {"generation": info["generation"]},
            )
        )
        self._gc_start = None

    # --- wrapping ----------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            before = target.before(args, kwargs) if target.before else None
            index = tracer.open(target.name, target.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if target.after is not None:
                hook = tracer.open("trace.hook", HOOK_LAYER)
                try:
                    tracer.spans[index].counts = target.after(
                        tracer, before, args, kwargs, result
                    )
                except Exception as exc:  # a hook must never fail the job
                    tracer.hook_errors.append(f"{target.name}: {exc!r}")
                finally:
                    tracer.close(hook)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.attr)
        return traced

    def install(self, targets: list[Target], package: str = "bqual") -> None:
        """Replace each target, by identity, in every module of ``package``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        originals: list[tuple[Target, Callable]] = []
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                module = None
            original = getattr(module, target.attr, None) if module is not None else None
            if original is None or not callable(original):
                self.absent.append(target.name)
            elif any(original is seen for _, seen in originals):
                raise ValueError(f"{target.name}: function is already wrapped")
            else:
                originals.append((target, original))
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        ]
        for target, original in originals:
            wrapper = self._wrap(original, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []
