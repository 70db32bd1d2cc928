"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions of the program from the outside (the
program itself carries no instrumentation): each wrapped call records a
span ``(id, parent, name, start, end, request, thread)``.  The parent
and the request id travel in a :class:`contextvars.ContextVar`, so
spans nest correctly across asyncio tasks; :class:`ContextThreadPool`
carries the context over an executor hop.  Spans stay in memory and are
written once, when the run ends.  A span's self time is its duration
minus the durations of its children.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_current: contextvars.ContextVar = contextvars.ContextVar(
    "e2ebench_span", default=None)

# span tuple fields
ID, PARENT, NAME, START, END, REQUEST, THREAD = range(7)


class ContextThreadPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in the submitter's context, so a
    span opened on the event loop parents the spans of its executor
    work."""

    def submit(self, fn, /, *args, **kwargs):
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


class Tracer:
    """Span and call-count recorder; :meth:`wrap` installs a wrapper,
    :meth:`restore` removes every wrapper it installed."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def count(self, name: str) -> None:
        with self._lock:  # executor threads count concurrently
            self.counts[name] += 1

    def _open(self, request: Any = None) -> Tuple[int, Any, Any, Any]:
        parent = _current.get()
        sid = next(self._ids)
        if request is None and parent is not None:
            request = parent[1]
        token = _current.set((sid, request))
        return sid, (parent[0] if parent else None), request, token

    def _close(self, sid, parent, name, t0, request, token) -> None:
        t1 = time.perf_counter_ns()
        _current.reset(token)
        self.spans.append((sid, parent, name, t0, t1, request,
                           threading.current_thread().name))

    def wrap(self, owner: Any, attr: str, name: str, *,
             name_fn: Optional[Callable[..., str]] = None,
             on_result: Optional[Callable[..., None]] = None,
             count_only: bool = False, new_request: bool = False) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name_fn(*args, **kwargs)`` overrides the span name per call;
        ``on_result(result, *args, **kwargs)`` sees each return value;
        ``count_only`` counts calls without spans (for per-event hot
        functions); ``new_request`` starts a fresh request id.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        tracer = self

        if count_only:
            @functools.wraps(original)
            def counted(*args, **kwargs):
                tracer.count(name)
                return original(*args, **kwargs)
            wrapper = counted
        elif inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def traced_async(*args, **kwargs):
                label = name_fn(*args, **kwargs) if name_fn else name
                tracer.count(label)
                sid, parent, req, token = tracer._open(
                    next(tracer._ids) if new_request else None)
                t0 = time.perf_counter_ns()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._close(sid, parent, label, t0, req, token)
                if on_result:
                    on_result(result, *args, **kwargs)
                return result
            wrapper = traced_async
        else:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                label = name_fn(*args, **kwargs) if name_fn else name
                tracer.count(label)
                sid, parent, req, token = tracer._open(
                    next(tracer._ids) if new_request else None)
                t0 = time.perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(sid, parent, label, t0, req, token)
                if on_result:
                    on_result(result, *args, **kwargs)
                return result
            wrapper = traced
        setattr(owner, attr,
                classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def durations(self, exclude_threads: str = "") -> Dict[str, List[Tuple[int, int]]]:
        """``name -> [(duration_ns, self_ns), …]`` over recorded spans,
        skipping threads whose name starts with ``exclude_threads``."""
        child_ns: Dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s[PARENT] is not None:
                child_ns[s[PARENT]] += s[END] - s[START]
        out: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
        for s in self.spans:
            if exclude_threads and s[THREAD].startswith(exclude_threads):
                continue
            dur = s[END] - s[START]
            out[s[NAME]].append((dur, dur - child_ns.get(s[ID], 0)))
        return out

    def children_ns(self, names: Iterable[str]) -> Dict[int, int]:
        """Per parent span id, the total duration of its children whose
        names are in ``names``."""
        wanted = set(names)
        acc: Dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s[PARENT] is not None and s[NAME] in wanted:
                acc[s[PARENT]] += s[END] - s[START]
        return acc

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (done once, at the end)."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                    "span": s[ID], "parent": s[PARENT],
                    "request": s[REQUEST], "thread": s[THREAD],
                }, separators=(",", ":")) + "\n")


def median_ms(pairs: List[Tuple[int, int]]) -> float:
    """Median per-call self time in milliseconds (0.0 when never
    called)."""
    if not pairs:
        return 0.0
    values = sorted(p[1] for p in pairs)
    mid = len(values) // 2
    ns = values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2
    return ns / 1e6
