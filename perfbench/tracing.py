"""In-memory tracing for the traced benchmark run.

The tracer wraps public functions of each layer from the outside (no
program code changes) and records, per wrapped name, the call count,
total time, self time (total minus time spent in wrapped callees) and
work items.  Calls that run a bounded number of times per run also keep
a full span ``(name, start, end, parent, request_id)``; hot calls such
as ``EventQueue.push`` or ``position_at`` are aggregated only, so a
traced run does not hold millions of span records.

Two invariants are checked on every call exit and counted in
:attr:`Tracer.violations`: self time is never negative, and the time
of a call's children never exceeds the call's own duration.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.storage import StorageBackend

#: Float slack for the child-within-parent check (perf_counter deltas
#: of nested intervals can differ from the enclosing delta by rounding).
_EPS_S = 1e-9


class Stat:
    """Aggregate counters for one traced name."""

    __slots__ = ("calls", "total_s", "self_s", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: Work done: rows an iterator yielded (see :meth:`Tracer.wrap_iter`).
        self.items = 0


class Tracer:
    """Spans and per-name aggregates, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        #: Full spans: [name, start, end, parent index or -1, request id].
        self.spans: List[list] = []
        #: Request id stamped on spans opened while it is set.
        self.request_id: Optional[str] = None
        self.violations = 0
        # One entry per open wrapped call: accumulated child time.
        self._frames: List[List[float]] = []
        # Span indices of the open spanned calls (innermost last).
        self._open_spans: List[int] = []
        self._patches: List[tuple] = []

    def stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, *, span: bool = False) -> Callable:
        """``fn`` with its calls counted and timed under ``name``."""
        stat = self.stat(name)
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if span:
                index = len(spans)
                parent = open_spans[-1] if open_spans else -1
                spans.append([name, 0.0, 0.0, parent, tracer.request_id])
                open_spans.append(index)
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                child = frame[0]
                if child > duration + _EPS_S:
                    tracer.violations += 1
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - child
                if frames:
                    frames[-1][0] += duration
                if span:
                    open_spans.pop()
                    record = spans[index]
                    record[1] = start
                    record[2] = end
            return result

        return functools.wraps(fn)(traced)

    def wrap_iter(self, name: str, fn: Callable[..., Iterator]) -> Callable:
        """Like :meth:`wrap` for a function returning an iterator.

        Time is charged while the iterator produces each item (the
        consumer's own work between items is not), one call is counted
        per iterator, and ``items`` counts what it yielded.
        """
        stat = self.stat(name)
        frames = self._frames
        clock = time.perf_counter
        tracer = self

        def step(iterator: Iterator):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return next(iterator)
            finally:
                duration = clock() - start
                frames.pop()
                if frame[0] > duration + _EPS_S:
                    tracer.violations += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                if frames:
                    frames[-1][0] += duration

        def traced(*args, **kwargs):
            stat.calls += 1
            iterator = iter(fn(*args, **kwargs))
            produced = 0
            try:
                while True:
                    try:
                        item = step(iterator)
                    except StopIteration:
                        return
                    produced += 1
                    yield item
            finally:
                stat.items += produced

        return functools.wraps(fn)(traced)

    def patch(self, owner: type, attr: str, name: str, **options: Any) -> None:
        """Replace ``owner.attr`` by its traced version until :meth:`unpatch`.

        An inherited method is wrapped on ``owner`` itself and removed
        from it again on :meth:`unpatch`.
        """
        original = owner.__dict__.get(attr)
        target = getattr(owner, attr) if original is None else original
        wrapper = (
            self.wrap_iter(name, target)
            if options.pop("iterator", False)
            else self.wrap(name, target, **options)
        )
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def collect_instances(self, owner: type, into: List[Any]) -> None:
        """Append every ``owner`` built until :meth:`unpatch` to ``into``."""
        original = owner.__dict__["__init__"]

        def init(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            into.append(instance)

        setattr(owner, "__init__", init)
        self._patches.append((owner, "__init__", original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def span_check(self) -> int:
        """Spans that end before they start or leave their parent's interval."""
        bad = 0
        for name, start, end, parent, _ in self.spans:
            if end < start:
                bad += 1
            elif parent >= 0:
                _, p_start, p_end, _, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    bad += 1
        return bad

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        """Write aggregates and spans as one JSON document."""
        payload = {
            **extra,
            "aggregates": {
                name: {
                    "calls": s.calls,
                    "total_s": s.total_s,
                    "self_s": s.self_s,
                    "items": s.items,
                }
                for name, s in sorted(self.stats.items())
            },
            "span_fields": ["name", "start", "end", "parent", "request_id"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


class TimedBackend(StorageBackend):
    """A :class:`StorageBackend` that times every call into ``inner``.

    It is handed to ``build_world(storage=...)`` in traced service runs,
    so every storage operation on the service path becomes a span that
    carries the request id of the request being handled.
    """

    def __init__(self, inner: StorageBackend, tracer: Tracer) -> None:
        self._inner = inner
        self.name = inner.name
        wrap = tracer.wrap
        self._put_doc = wrap("storage.put_doc", inner.put_doc, span=True)
        self._get_doc = wrap("storage.get_doc", inner.get_doc, span=True)
        self._delete_doc = wrap("storage.delete_doc", inner.delete_doc, span=True)
        self._doc_keys = wrap("storage.doc_keys", inner.doc_keys, span=True)
        self._doc_count = wrap("storage.doc_count", inner.doc_count, span=True)
        self._has_doc = wrap("storage.has_doc", inner.has_doc, span=True)
        self._clear_docs = wrap("storage.clear_docs", inner.clear_docs, span=True)
        self._append_log = wrap("storage.append_log", inner.append_log, span=True)
        self._scan_log = tracer.wrap_iter("storage.scan_log", inner.scan_log)
        self._log_count = wrap("storage.log_count", inner.log_count, span=True)
        self._prune_tagged = wrap("storage.prune_tagged", inner.prune_tagged, span=True)
        self._clear_log = wrap("storage.clear_log", inner.clear_log, span=True)
        self._checkpoint = wrap("storage.checkpoint", inner.checkpoint, span=True)
        self._restore = wrap("storage.restore", inner.restore, span=True)
        self._flush = wrap("storage.flush", inner.flush, span=True)

    def put_doc(self, ns, key, doc):
        return self._put_doc(ns, key, doc)

    def get_doc(self, ns, key):
        return self._get_doc(ns, key)

    def delete_doc(self, ns, key):
        return self._delete_doc(ns, key)

    def doc_keys(self, ns):
        return self._doc_keys(ns)

    def doc_count(self, ns):
        return self._doc_count(ns)

    def has_doc(self, ns, key):
        return self._has_doc(ns, key)

    def clear_docs(self, ns):
        return self._clear_docs(ns)

    def append_log(self, ns, doc, *, tag=None):
        return self._append_log(ns, doc, tag=tag)

    def scan_log(self, ns, *, tag=None):
        return self._scan_log(ns, tag=tag)

    def log_count(self, ns, *, tag=None):
        return self._log_count(ns, tag=tag)

    def prune_tagged(self, ns, tag):
        return self._prune_tagged(ns, tag)

    def clear_log(self, ns):
        return self._clear_log(ns)

    def checkpoint(self, tag):
        return self._checkpoint(tag)

    def restore(self, tag):
        return self._restore(tag)

    def checkpoint_tags(self):
        return self._inner.checkpoint_tags()

    def flush(self):
        return self._flush()

    def close(self):
        return self._inner.close()

    def namespaces(self):
        return self._inner.namespaces()
