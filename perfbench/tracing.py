"""Span tracing for the traced pass, recorded from the benchmark's side.

The program is never edited or configured for tracing: :class:`Tracer`
replaces layer entry points (``Link.carry``, ``Host.on_frame_batch``,
``HookPoint.verdict``, ...) on their classes with wrappers that open a
span around the original call, and puts the originals back afterwards.
Wrapping only changes *when* Python code runs, never *which* program code
runs, so the data plane takes the same path traced and untraced; the
benchmark asserts that by comparing ``PERF`` counters between the two
passes.  repro's own ``TRACER`` stays off: enabling it moves switches and
the replay engine onto the per-frame plane.

A span covers one call into a layer.  Its *self time* is its duration
minus the time covered by spans opened inside it, so the self times of
every layer plus the time spent outside any span (the benchmark's
residual) add up to the traced wall time.  A call that re-enters the
layer already on top of the stack (``Host.on_frame_batch`` unrolling into
``Host.on_frame``, ``Simulator.advance_to`` calling ``run``) stays part
of the enclosing span.

Spans stay in memory: per-layer totals for every span, plus the first
:data:`MAX_SPANS` raw spans, which :meth:`Tracer.write_spans` writes out
as JSON lines when the benchmark ends.
"""

from __future__ import annotations

import json
import sys
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Raw spans retained for the span file; later spans only feed totals.
MAX_SPANS = 50_000
#: Pseudo-layer holding the time the wrappers' counting callbacks take.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Layer spans and counts gathered by wrapping class attributes."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[layer, start, child_time, span_id]``.
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.spans_by_layer: Counter = Counter()
        self.counts: Counter = Counter()
        #: Wall time covered by spans opened with an empty stack.
        self.top_s = 0.0
        self._next_id = 0
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self._patched: List[tuple] = []
        #: Every ``TraceRecorder`` built while the tracer is installed.
        self.recorders: "weakref.WeakSet" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        cls: type,
        attr: str,
        layer: str,
        on_enter: Optional[Callable] = None,
        on_exit: Optional[Callable] = None,
        on_call: Optional[Callable] = None,
    ) -> None:
        """Replace ``cls.attr`` with a span-recording wrapper.

        ``on_enter(args)`` runs before the call and ``on_exit(args,
        result)`` after it, both only when the call opens a span (not on
        same-layer re-entry); ``on_call(args)`` runs on every call.  They
        keep the layer's counts.
        """
        original = cls.__dict__[attr]
        stack = self._stack
        span = self.span
        name = f"{cls.__name__}.{attr}"

        def wrapper(*args, **kwargs):
            if on_call is not None:
                self.bookkeep(on_call, args)
            if stack and stack[-1][0] == layer:
                return original(*args, **kwargs)
            if on_enter is not None:
                self.bookkeep(on_enter, args)
            result = span(layer, name, original, *args, **kwargs)
            if on_exit is not None:
                self.bookkeep(on_exit, args, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patched.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def span(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one span of ``layer``."""
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        parent_id = stack[-1][3] if stack else None
        frame = [layer, 0.0, 0.0, span_id]
        stack.append(frame)
        start = frame[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[2]
            self.spans_by_layer[layer] += 1
            if stack:
                stack[-1][2] += duration
            else:
                self.top_s += duration
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent_id, layer, name, start, end))
            else:
                self.spans_dropped += 1

    def bookkeep(self, fn: Callable, *args) -> None:
        """Run a counting callback, timed into :data:`BOOKKEEPING`.

        The benchmark's own per-call work (inspecting frame bytes) must
        not inflate the self time of the layer that happens to be open.
        """
        stack = self._stack
        start = perf_counter()
        fn(*args)
        spent = perf_counter() - start
        self.self_s[BOOKKEEPING] += spent
        if stack:
            stack[-1][2] += spent
        else:
            self.top_s += spent

    def wrap_iterator(
        self,
        cls: type,
        layer: str,
        on_item: Callable,
        on_open: Optional[Callable] = None,
    ) -> None:
        """Make every ``next()`` on ``iter(instance)`` a span of ``layer``.

        ``on_item(item)`` runs for every item and ``on_open()`` once per
        ``iter()`` call.
        """
        original = cls.__dict__["__iter__"]
        tracer = self
        name = f"{cls.__name__}.__next__"

        class _TimedIterator:
            def __init__(self, inner) -> None:
                self._inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                item = tracer.span(layer, name, next, self._inner)
                tracer.bookkeep(on_item, item)
                return item

        def __iter__(instance):
            if on_open is not None:
                tracer.bookkeep(on_open)
            return _TimedIterator(original(instance))

        self._patched.append((cls, "__iter__", original))
        cls.__iter__ = __iter__

    def track_recorders(self, cls: type) -> None:
        """Add every ``cls`` instance built from now on to :attr:`recorders`."""
        original = cls.__dict__["__init__"]
        recorders = self.recorders

        def __init__(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            recorders.add(instance)

        self._patched.append((cls, "__init__", original))
        cls.__init__ = __init__

    def uninstall(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write_spans(self, path: Path) -> None:
        """Write the retained raw spans, one JSON object a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, layer, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "layer": layer,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
            if self.spans_dropped:
                out.write(json.dumps({"dropped": self.spans_dropped}) + "\n")


def retained_capture(recorders) -> tuple:
    """``(records, bytes)`` held by live capture rings.

    Frame buffers are shared between capture points (a flood records the
    same bytes object at every port), so each buffer counts once.
    """
    records = 0
    size = 0
    seen = set()
    for recorder in list(recorders):
        ring = recorder.records
        records += len(ring)
        for record in ring:
            size += sys.getsizeof(record)
            frame = record.frame
            if id(frame) not in seen:
                seen.add(id(frame))
                size += sys.getsizeof(frame)
    return records, size
