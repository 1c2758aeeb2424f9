"""Spans around the calls one laglab layer makes into another.

The tracer replaces module attributes (for example ``laglab.verifier.lagrangian``,
the name through which the verifier reaches the solver) with wrappers that
record a span per call, and puts the originals back on exit.  Nothing under
``src/`` is changed; only calls that go through a patched attribute are seen.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of the
enclosing span (or -1), and ``info`` a small dict of facts read from the
call's return value (bytes rendered, graphs yielded, solver route).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """In-memory span recorder; install patches with :meth:`patched`."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []
        self.active = False  # true while the patches are installed

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int, info: dict | None = None) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][INFO] = info
        self._stack.pop()

    def current(self) -> list:
        """The innermost open span."""
        return self.spans[self._stack[-1]]

    def enclosing(self, name: str) -> list | None:
        """The innermost open span called ``name``, if any."""
        for idx in reversed(self._stack):
            if self.spans[idx][NAME] == name:
                return self.spans[idx]
        return None

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        self.calls[name] = self.calls.get(name, 0) + 1
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, describe=None):
        """A wrapper recording one span per call; ``describe(tracer, result)``
        returns the span's info dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            idx = self._open(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    info = describe(self, result)
                return result
            finally:
                self._close(idx, info)

        return traced

    def wrap_generator(self, name: str, fn):
        """A wrapper for a generator function: each ``next`` is one span, so
        busy time is the time spent producing items, wherever they are
        consumed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            inner = fn(*args, **kwargs)

            def items():
                while True:
                    idx = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(idx)
                        return
                    except BaseException:
                        self._close(idx)
                        raise
                    self._close(idx, {"items": 1})
                    yield item

            return items()

        return traced

    @contextlib.contextmanager
    def patched(self, patches):
        """Install ``(module, attr, span, kind, describe)`` patches, where kind
        is ``"call"`` or ``"generator"``, and restore the originals on exit."""
        saved = []
        try:
            for module, attr, span, kind, describe in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if kind == "generator":
                    setattr(module, attr, self.wrap_generator(span, original))
                else:
                    setattr(module, attr, self.wrap(span, original, describe))
            self.active = True
            yield self
        finally:
            self.active = False
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds, self seconds, durations."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict] = {}
        for idx, span in enumerate(self.spans):
            dur = span[END] - span[START]
            agg = out.setdefault(span[NAME], {"busy_s": 0.0, "self_s": 0.0,
                                              "durations": [], "infos": []})
            agg["busy_s"] += dur
            agg["self_s"] += dur - child_time[idx]
            agg["durations"].append(dur)
            if span[INFO]:
                agg["infos"].append(span[INFO])
        for name, agg in out.items():
            agg["calls"] = self.calls.get(name, 0)
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        base = self.spans[0][START] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps([span[NAME], span[START] - base, span[END] - base,
                                     span[PARENT], span[INFO]]) + "\n")

