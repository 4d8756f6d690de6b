"""In-memory span tracer that wraps attributes of a program and restores them.

A span is one call of a wrapped function: its name, start and end on the
``perf_counter`` clock, the index of the span that was open when it began
(-1 for none), and the operation id the benchmark set before the call. Spans
are kept in a list and only read after the traced operation, so tracing
writes nothing while the program runs.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from the functions it wraps; ``restore`` undoes every wrap.

    Use as a context manager so that the wraps are undone however the traced
    code exits.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int, failed: bool = False) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.failed = failed
        self._open.pop()

    def patch(self, owner, attr: str, make_wrapper) -> bool:
        """Replace ``owner.attr`` by ``make_wrapper(original)``.

        Returns False, and changes nothing, when ``owner`` has no such
        attribute, so a plan can name functions a later version dropped.
        """
        own = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            return False
        self._patches.append((owner, attr, own))
        setattr(owner, attr, make_wrapper(original))
        return True

    def wrap(self, owner, attr: str, name, on_result=None) -> bool:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a span name or a function of the call's positional
        arguments that returns one. ``on_result(args, kwargs, result)`` runs
        after a call returns, outside its span.
        """
        def make_wrapper(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = self._begin(name(args) if callable(name) else name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self._end(index, failed=True)
                    raise
                self._end(index)
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result
            return traced
        return self.patch(owner, attr, make_wrapper)

    def restore(self) -> None:
        """Put back every attribute this tracer replaced, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)  # the original was inherited
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans come from one thread and nest, so the children of a span never
    overlap each other.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out
