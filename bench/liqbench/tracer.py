"""In-memory spans around liqimpact's public functions, patched from outside.

Each wrapper is installed at the module attribute where the caller looks the
function up (``cli.read_ticks`` for the CLI, ``estimation.big_phi`` for the
fitter, ``sde.f_sshape`` for the simulator), so the library runs unmodified
and an untraced run has no wrappers at all.  Spans nest through a stack: the
process is single-threaded at the default ``--jobs``.  A span records its
name, parent, start and end, and the counts its hook reads off the call.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

ROOT = "bench.op"


class TraceError(RuntimeError):
    """A wrapped attribute is missing, or a required span was never entered."""


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "counts")

    def __init__(self, name: str, parent: int, t0: float):
        self.name = name
        self.parent = parent
        self.t0 = t0
        self.t1 = t0
        self.counts: dict[str, float] | None = None


class Tracer:
    """Collects spans in memory; :meth:`ops` splits them per benchmark operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else -1, time.perf_counter()))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].t1 = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, owner: object, attr: str, name: str,
             hook: Callable[[tuple, dict, object], dict] | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``hook(args, kwargs, result)`` returns counts to attach to the span.
        Classmethods are re-wrapped as classmethods.
        """
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if raw is None and not hasattr(owner, attr):
            raise TraceError(f"cannot trace {name}: {getattr(owner, '__name__', owner)}.{attr} does not exist")
        original = raw if raw is not None else getattr(owner, attr)
        func = original.__func__ if isinstance(original, classmethod) else original

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                self.spans[idx].counts = hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        setattr(owner, attr, classmethod(wrapper) if isinstance(original, classmethod) else wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def ops(self) -> list["OpTrace"]:
        """One :class:`OpTrace` per root span, in order."""
        roots = [i for i, s in enumerate(self.spans) if s.name == ROOT]
        bounds = roots[1:] + [len(self.spans)]
        return [OpTrace(self.spans, r, end) for r, end in zip(roots, bounds)]

    def dump(self, path) -> None:
        """Write every span as CSV: name, parent index, start and end (ns from the first span)."""
        import gzip

        if not self.spans:
            return
        base = self.spans[0].t0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,parent,t0_ns,t1_ns\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.name},{s.parent},{round((s.t0 - base) * 1e9)},{round((s.t1 - base) * 1e9)}\n")


class OpTrace:
    """Per-name aggregates over one operation's spans (the root and its descendants)."""

    def __init__(self, spans: list[Span], start: int, end: int):
        self.wall = spans[start].t1 - spans[start].t0
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.items: dict[str, list[tuple[float, dict | None]]] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        for i in range(start, end):
            s = spans[i]
            if s.parent >= start:
                child_time[s.parent] += s.t1 - s.t0
        for i in range(start, end):
            s = spans[i]
            dur = s.t1 - s.t0
            self.total[s.name] += dur
            self.self_time[s.name] += dur - child_time[i]
            self.items[s.name].append((dur, s.counts))

    def calls(self, name: str) -> int:
        return len(self.items.get(name, ()))

    def count(self, name: str, key: str) -> float:
        return sum(c.get(key, 0) for _, c in self.items.get(name, ()) if c)

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.split(".", 1)[0] == layer)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
