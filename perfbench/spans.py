"""Spans recorded around library calls, and the self-time arithmetic over them.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root).  Spans come from wrapping public functions
of the library under the name the calling module looks up, so the library
itself carries no tracing code.  A span's self time is its duration minus
the durations of its direct children; summed over a tree, self times add up
to the root's duration exactly.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder that can patch functions in and out."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, fn, name: str, probe=None):
        """`fn` inside a span; `probe(*args)` runs first, outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(*args)
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def install(self, sites, probes=None) -> None:
        """Patch each `(module, attribute, span name)` with a traced wrapper."""
        probes = probes or {}
        for module, attr, name in sites:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, probes.get(name)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def roots(spans) -> list[int]:
    """Index of the root span above each span (parents precede children)."""
    out = []
    for i, (_, _, _, parent) in enumerate(spans):
        out.append(i if parent < 0 else out[parent])
    return out


def under(spans, name: str) -> list[bool]:
    """Whether each span has an ancestor called `name`."""
    out = []
    for _, _, _, parent in spans:
        out.append(parent >= 0 and (spans[parent][0] == name or out[parent]))
    return out
