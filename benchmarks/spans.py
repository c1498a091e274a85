"""In-memory span tracing of semgrasp from outside the package.

A span is recorded around a call into one of the package's module
attributes: ``Tracer.wrap`` replaces the attribute with a timing wrapper
through a ``Patches`` set, whose ``restore`` (or leaving its ``with`` block)
puts the original back. Only attributes the pipeline looks up at call time
can be traced, so each entry point names the module whose global the caller
reads, e.g. ``semgrasp.training.forward`` for the forward passes inside
``evaluate``. Nothing under src/ is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path


class MissingEntryPoint(RuntimeError):
    """A module attribute the benchmark calls or traces no longer exists."""


def resolve(dotted: str):
    """(module, attribute name) for 'semgrasp.mod.attr'; raises MissingEntryPoint."""
    module_name, _, attr = dotted.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        module = None
    if module is None or not hasattr(module, attr):
        raise MissingEntryPoint(
            f"entry point {dotted} no longer exists: the benchmark calls or traces it. "
            f"Update CALLS/TRACED in benchmarks/workloads.py and the module map "
            f"in benchmarks/README.md to the new API"
        )
    return module, attr


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "children_s")

    def __init__(self, name: str, start: float, parent: int | None, attrs: dict | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_s


class Patches:
    """Replaced module attributes, put back by restore() or on leaving `with`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, dotted: str, make_wrapper) -> None:
        """Replace the attribute `dotted` with make_wrapper(original)."""
        module, attr = resolve(dotted)
        original = getattr(module, attr)
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))
        self._saved.append((module, attr, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Tracer:
    """Records spans (name, start, end, parent); parents come from a call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, attrs))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, error: BaseException | None = None) -> Span:
        span = self.spans[self._stack.pop()]
        span.end = time.perf_counter()
        if error is not None:
            span.attrs = {**(span.attrs or {}), "error": type(error).__name__}
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration
        return span

    @property
    def depth(self) -> int:
        return len(self._stack)

    def unwind(self, depth: int, error: BaseException | None = None) -> None:
        """Close every span opened above `depth` (after an exception)."""
        while len(self._stack) > depth:
            self.close(error)

    def call(self, name: str, fn, args, kwargs, attrs: dict | None = None):
        self.open(name, attrs)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            self.close(e)
            raise
        self.close()
        return result

    def wrap(self, patches: Patches, dotted: str, attrs=None) -> None:
        """Trace every call made through the module attribute `dotted`.

        The span is named after the module that defines the function, so a
        function reached through two modules' globals gets one name.
        attrs, if given, maps the call's (args, kwargs) to span attributes;
        it runs before the span opens, so its cost is not counted.
        """
        tracer = self

        def make(original):
            name = f"{original.__module__.removeprefix('semgrasp.')}.{original.__name__}"

            def traced(*args, **kwargs):
                extra = attrs(args, kwargs) if attrs is not None else None
                return tracer.call(name, original, args, kwargs, extra)

            return traced

        patches.patch(dotted, make)

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds (total minus children)."""
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.self_time
        return out

    def dump(self, path: Path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, "self_times": self.self_times()}) + "\n")
