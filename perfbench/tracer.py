"""In-memory span tracer for the benchmark's traced server runs.

The tracer patches callables of the running service by dotted path
(``"repro.core.inference:TCrowdModel.fit"``) with wrappers that record a
span per call: its name, start and end, the thread it ran on, its parent
span and the root span of its tree.  Nothing in ``src/`` is edited; the
wrappers are installed by ``perfbench/launcher.py`` before the server
starts serving.

* Spans are thread-aware: each thread keeps its own stack.  A span opened
  on an empty stack is a root.  The launcher opens one root per HTTP
  request (``service.app.<endpoint>``), so every span of a request shares
  that root's id; a refit on the async engine's worker thread opens on an
  empty stack and so becomes a background root of its own.
* Spans stay in memory (``Tracer.spans``) and are written out only when
  the launcher is asked to flush them or exits.
* A target that does not exist (a module, class or attribute removed by a
  later change) is recorded in ``Tracer.absent`` instead of raising.

The pure functions at the bottom (:func:`self_times`,
:func:`reconciliation`, :func:`aggregate`) turn a list of spans into
per-layer self-times; the client runs them on the flushed spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

#: Name of the pseudo-layer holding the tracer's own bookkeeping (attribute
#: computation such as serialised byte counts), kept out of the layer that
#: was being measured.
ACCOUNTING = "trace.accounting"

#: Prefix of request roots: the launcher names each HTTP request's root
#: span ``service.app.<endpoint>``.
REQUEST_PREFIX = "service.app."


class Span(NamedTuple):
    """One closed span; ``parent`` is ``None`` for a root."""

    id: int
    parent: Optional[int]
    root: int
    name: str
    thread: int
    start: float
    end: float
    attrs: Optional[dict]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Target(NamedTuple):
    """A callable to wrap: ``path`` is ``"module:Qual.name"``."""

    path: str
    span: str
    attrs: Optional[Callable] = None


class Tracer:
    """Records spans from wrapped callables while ``enabled`` is true."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        """Open a span on this thread's stack; returns its mutable entry."""
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
            entry = [span_id, parent[0], parent[2], name]
        else:
            entry = [span_id, None, span_id, name]
        entry += [threading.get_ident(), time.perf_counter(), None, None]
        stack.append(entry)
        return entry

    def close(self, entry: list, attrs: Optional[dict] = None) -> None:
        """Close ``entry`` (the innermost open span of this thread)."""
        entry[6] = time.perf_counter()
        entry[7] = attrs
        stack = self._stack()
        if stack and stack[-1] is entry:
            stack.pop()
        else:  # pragma: no cover - only after an exception skipped a close
            stack.remove(entry)
        self.spans.append(Span(*entry))

    def wrap(self, func: Callable, name: str, attrs: Optional[Callable] = None):
        """``func`` recording a span called ``name`` per call.

        ``attrs(args, kwargs, result)`` may return a dict stored on the
        span; it runs inside a child :data:`ACCOUNTING` span so its cost is
        charged to the tracer, not to the layer.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            entry = tracer.open(name)
            values = None
            try:
                result = func(*args, **kwargs)
                if attrs is not None:
                    accounting = tracer.open(ACCOUNTING)
                    try:
                        values = attrs(args, kwargs, result)
                    finally:
                        tracer.close(accounting)
                return result
            finally:
                tracer.close(entry, values)

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        """Patch every target in place; missing ones go to ``absent``."""
        for target in targets:
            try:
                self._patch(target)
            except (ImportError, AttributeError):
                self.absent.append(target.path)

    def _patch(self, target: Target) -> None:
        module_name, _, qualname = target.path.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if attr in vars(owner) else None
        if raw is None:
            raise AttributeError(f"{target.path} is not defined on its owner")
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, target.span, target.attrs))
        elif callable(raw):
            wrapped = self.wrap(raw, target.span, target.attrs)
        else:
            raise AttributeError(f"{target.path} is not callable")
        setattr(owner, attr, wrapped)


# -- arithmetic over closed spans ---------------------------------------------


def covered_length(intervals: Sequence[tuple], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    current_lo = current_hi = None
    for lo, hi in clipped:
        if current_hi is None or lo > current_hi:
            if current_hi is not None:
                total += current_hi - current_lo
            current_lo, current_hi = lo, hi
        else:
            current_hi = max(current_hi, hi)
    if current_hi is not None:
        total += current_hi - current_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → duration minus the part its children's union covers.

    Children that overlap each other (work fanned out to other threads)
    are counted once; background roots have no parent and keep their own
    self-time outside every request tree.
    """
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration
        - covered_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def is_request_root(span: Span) -> bool:
    return span.parent is None and span.name.startswith(REQUEST_PREFIX)


def reconciliation(spans: Sequence[Span], selfs: Dict[int, float]) -> float:
    """Σ self-time of request-tree spans ÷ Σ request wall time."""
    request_roots = {span.id: span for span in spans if is_request_root(span)}
    wall = sum(span.duration for span in request_roots.values())
    if wall <= 0.0:
        return float("nan")
    total = sum(selfs[span.id] for span in spans if span.root in request_roots)
    return total / wall


def aggregate(spans: Sequence[Span], selfs: Dict[int, float]) -> Dict[str, dict]:
    """Per span name: calls, self/wall seconds split by root kind, attr sums.

    ``request_self_s`` is self-time inside request trees, ``background_self_s``
    inside background roots (async refits, start-up recovery).
    """
    request_roots = {span.id for span in spans if is_request_root(span)}
    table: Dict[str, dict] = defaultdict(
        lambda: {
            "calls": 0,
            "self_s": 0.0,
            "wall_s": 0.0,
            "request_self_s": 0.0,
            "background_self_s": 0.0,
            "background_calls": 0,
            "attrs": defaultdict(float),
        }
    )
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["self_s"] += selfs[span.id]
        row["wall_s"] += span.duration
        if span.root in request_roots:
            row["request_self_s"] += selfs[span.id]
        else:
            row["background_self_s"] += selfs[span.id]
            row["background_calls"] += 1
        for key, value in (span.attrs or {}).items():
            if key != "request":
                row["attrs"][key] += value
    return dict(table)


def spans_from_json(rows: Iterable[list]) -> List[Span]:
    """Spans as written by the launcher (one JSON list per span)."""
    return [Span(*row) for row in rows]
