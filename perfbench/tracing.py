"""Out-of-program span tracing: wrappers installed at run time.

The benchmark never edits ``src/``. Instead, :class:`SpanTracer`
replaces each layer's public entry point with a timing wrapper for the
length of a traced run. A function is patched in *every* loaded
``repro`` module that holds it, because callers such as
``heuristics/lpr.py`` import ``solve_lp_scipy`` and ``build_lp`` by
name; patching only the defining module would miss those calls.
Methods are patched on their class.

A span's self time is its duration minus the time covered by the
wrapped spans it caused on the same thread. *Transparent* spans (the
``repro.api`` facade) are timed but never become a parent, so layer
self times do not depend on whether the facade is wrapped. Spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from array import array

#: spans kept for the JSONL dump; aggregates always cover every call
MAX_KEPT_SPANS = 200_000


class SpanTracer:
    """Per-name call counts, total and self time, plus a span log."""

    def __init__(self):
        self.stats: "dict[str, list]" = {}  # name -> [calls, total_s, self_s]
        # Spans live in flat typed arrays, not tuples: a few hundred
        # thousand tracked objects would make the garbage collector's
        # full passes, and so the traced run, measurably slower.
        self._names: "list[str]" = []
        self._name_ids: "dict[str, int]" = {}
        self._ints = array("q")  # id, parent (-1: none), name, request (-1)
        self._times = array("d")  # start, end, self
        self.top_level = array("d")  # start, end of spans with no parent
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []  # (owner, attr, original)

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self):
        """Id shared by every span of the request on this thread."""
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value) -> None:
        self._local.request_id = value

    def wrap(self, name, fn, transparent: bool = False):
        """A wrapper timing ``fn`` as span ``name``.

        ``name`` may be a callable of the wrapped call's first argument
        (the instance, for methods) that returns the span name.
        """
        tracer = self

        def traced(*args, **kwargs):
            label = name(args[0]) if callable(name) else name
            stack = tracer._stack()
            frame = [next(tracer._ids), 0.0]  # id, child time
            parent = stack[-1][0] if stack else None
            if not transparent:
                stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                duration = t1 - t0
                if not transparent:
                    stack.pop()
                    if stack:
                        stack[-1][1] += duration
                tracer._record(
                    label, frame, parent, t0, t1, duration, transparent
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _record(self, label, frame, parent, t0, t1, duration, transparent):
        self_s = duration - frame[1]
        request = self.request_id
        with self._lock:
            entry = self.stats.get(label)
            if entry is None:
                entry = self.stats[label] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_s
            if parent is None and not transparent:
                self.top_level.extend((t0, t1))
            # request-tagged spans are few and feed the service metrics,
            # so the cap never drops them
            if request is None and len(self._times) >= 3 * MAX_KEPT_SPANS:
                self.dropped += 1
                return
            name_id = self._name_ids.get(label)
            if name_id is None:
                name_id = self._name_ids[label] = len(self._names)
                self._names.append(label)
            self._ints.extend((
                frame[0], -1 if parent is None else parent, name_id,
                -1 if request is None else int(request),
            ))
            self._times.extend((t0, t1, self_s))

    # ------------------------------------------------------------------
    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module_name: str, attr: str, name) -> None:
        """Wrap ``module_name.attr`` wherever a ``repro`` module holds it."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self.wrap(name, original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, key, wrapper)

    def patch_method(self, cls, attr: str, name, transparent=False) -> None:
        """Wrap the plain function ``cls.attr`` on its class."""
        self.replace(cls, attr, self.wrap(name, cls.__dict__[attr], transparent))

    def hook_method(self, cls, attr: str, after) -> None:
        """Call ``after(instance)`` once ``cls.attr`` returns (untimed)."""
        original = cls.__dict__[attr]

        def hooked(instance, *args, **kwargs):
            result = original(instance, *args, **kwargs)
            after(instance)
            return result

        self.replace(cls, attr, hooked)

    def restore(self) -> None:
        """Put every patched attribute back (reverse order)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        entry = self.stats.get(name)
        return entry[0] if entry else 0

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    @property
    def spans(self):
        """Kept spans as ``(id, parent, name, start, end, self_s, request)``."""
        ints, times = self._ints, self._times
        for i in range(len(times) // 3):
            parent, request = ints[4 * i + 1], ints[4 * i + 3]
            yield (
                ints[4 * i], None if parent < 0 else parent,
                self._names[ints[4 * i + 2]], times[3 * i], times[3 * i + 1],
                times[3 * i + 2], None if request < 0 else request,
            )

    def durations(self, name: str) -> list:
        """Durations (s) of the kept spans named ``name``."""
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def covered_s(self) -> float:
        """Length of the union of top-level layer spans, all threads."""
        total = 0.0
        end = float("-inf")
        pairs = zip(self.top_level[0::2], self.top_level[1::2])
        for t0, t1 in sorted(pairs):
            if t1 <= end:
                continue
            total += t1 - max(t0, end)
            end = t1
        return total

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, label, t0, t1, self_s, request in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": label,
                            "start": t0,
                            "end": t1,
                            "self_s": self_s,
                            "request": request,
                        }
                    )
                    + "\n"
                )
            if self.dropped:
                out.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
