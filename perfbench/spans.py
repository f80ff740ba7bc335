"""In-memory wall-clock spans recorded from outside the program.

The benchmark never edits ``src/``.  It traces a layer by replacing one
of the layer's public functions (a module or class attribute) with a
wrapper that opens a span around the original call.  Spans carry a
parent id (the innermost span open on the same thread), so a layer's
*self time* is its span's duration minus the part of that interval its
child spans cover.  Spans stay in memory and are written out once, when
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    """One timed call: ``[start, end)`` on the ``perf_counter`` clock."""

    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid: int, parent: Optional[int], name: str, start: float) -> None:
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, Any]:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class Tracer:
    """Collects spans; one instance per traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a span named ``name`` under the current thread's
        innermost open span."""
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        sp = Span(sid, stack[-1].id if stack else None, name, self._clock())
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self._clock()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def named(self, name: str) -> List[Span]:
        """Closed spans called ``name``, in completion order."""
        return [s for s in self.spans if s.name == name]

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sp in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(sp.to_json(), sort_keys=True) + "\n")


def covered(interval: Tuple[float, float], parts: List[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.id: sp.duration - covered((sp.start, sp.end), children.get(sp.id, []))
        for sp in spans
    }


_INHERITED = object()


class Patches:
    """Attribute replacements that are undone on exit, in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, tracer: Tracer, owner: Any, attr: str, name: str,
             on_result: Optional[Callable[[Span, Any, tuple, dict], None]] = None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.  ``on_result``
        may copy counters off the return value into the span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as sp:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, result, args, kwargs)
                return result

        self.set(owner, attr, traced)

    def set(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr``; on exit restore the raw attribute (or
        remove it again if ``owner`` only inherited it)."""
        own = vars(owner)
        self._undo.append((owner, attr, own[attr] if attr in own else _INHERITED))
        setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
