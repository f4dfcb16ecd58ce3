"""Span tracing around the public entry points of each layer.

Nothing here changes the program: :class:`Tracer` replaces selected
methods with timing wrappers (on live instances, or on a class for the
set-up calls) and puts the originals back afterwards.  Spans stay in
memory and are written out once, when the run ends.

A span is ``(id, name, start, end, parent, rid)``.  ``parent`` is the
innermost open span of the same thread (0 at top level) and ``rid`` is
the request id that the worker thread is serving, carried through a
thread-local that the ``take``/``drain_matching`` wrappers set.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

Span = Tuple[int, str, float, float, int, int]


class Tracer:
    """Collects spans and per-layer counts for one traced phase."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.queue_wait_s: List[float] = []
        self.takes = 0
        self.drained = 0
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    # -- span recording -------------------------------------------------

    def traced(self, name: str, fn: Callable[..., Any],
               rid_of: Optional[Callable[..., int]] = None
               ) -> Callable[..., Any]:
        """``fn`` wrapped so that each call records one span."""
        spans, ids, tls = self.spans, self._ids, self._tls
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            rid = (rid_of(*args) if rid_of is not None
                   else getattr(tls, "rid", 0))
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, rid))

        return wrapper

    def wrap(self, obj: Any, attr: str, name: str,
             rid_of: Optional[Callable[..., int]] = None) -> None:
        """Shadow ``obj.attr`` (a bound method) with a traced wrapper."""
        self._install(obj, attr,
                      self.traced(name, getattr(obj, attr), rid_of))

    def wrap_dequeue(self, admission: Any) -> None:
        """Carry request ids and queue waits out of the admission layer.

        ``take`` blocks while the queue is empty, so it records no span;
        each dequeued request sets the worker's current rid and adds its
        wait (dequeue time minus ``t_submit``) to :attr:`queue_wait_s`.
        """
        take, drain = admission.take, admission.drain_matching
        tls, waits = self._tls, self.queue_wait_s

        def traced_take(*args: Any, **kwargs: Any) -> Any:
            item = take(*args, **kwargs)
            if item is not None:
                waits.append(time.monotonic() - item.t_submit)
                tls.rid = item.rid
                self.takes += 1
            return item

        def traced_drain(*args: Any, **kwargs: Any) -> Any:
            items = drain(*args, **kwargs)
            # A worker already inside the original ``take`` when the
            # wrappers went in drains for a batch that no take counted.
            if getattr(tls, "rid", None) is not None:
                now = time.monotonic()
                waits.extend(now - item.t_submit for item in items)
                self.drained += len(items)
            return items

        self._install(admission, "take", traced_take)
        self._install(admission, "drain_matching", traced_drain)

    def wrap_class(self, cls: type, attr: str, name: str,
                   on_return: Optional[Callable[[Any], None]] = None
                   ) -> None:
        """Trace a function, classmethod or ``__init__`` on a class."""
        raw = cls.__dict__[attr]
        is_cm = isinstance(raw, classmethod)
        func = raw.__func__ if is_cm else raw
        inner = self.traced(name, func)
        if on_return is not None:
            def hooked(*args: Any, **kwargs: Any) -> Any:
                out = inner(*args, **kwargs)
                on_return(out)
                return out
            wrapped: Any = hooked
        else:
            wrapped = inner
        setattr(cls, attr, classmethod(wrapped) if is_cm else wrapped)
        self._undo.append((cls, attr, raw, True))

    def _install(self, obj: Any, attr: str, wrapper: Any) -> None:
        # object.__setattr__ also reaches frozen dataclasses (plans).
        object.__setattr__(obj, attr, wrapper)
        self._undo.append((obj, attr, None, False))

    def unwrap(self) -> None:
        """Put every wrapped method back."""
        for obj, attr, raw, on_class in reversed(self._undo):
            if on_class:
                setattr(obj, attr, raw)
            else:
                object.__delattr__(obj, attr)
        self._undo = []

    # -- analysis -------------------------------------------------------

    def durations_s(self, names: Iterable[str]) -> np.ndarray:
        """Durations of every span with one of ``names``."""
        wanted = set(names)
        return np.asarray([s[3] - s[2] for s in self.spans
                           if s[1] in wanted], dtype=np.float64)

    def self_times_s(self, names: Iterable[str]) -> np.ndarray:
        """Span duration minus the part its child spans cover."""
        wanted = set(names)
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, _, t0, t1, parent, _ in self.spans:
            if parent:
                children.setdefault(parent, []).append((t0, t1))
        out = []
        for sid, name, t0, t1, _, _ in self.spans:
            if name in wanted:
                covered = _coverage(children.get(sid, ()), t0, t1)
                out.append(t1 - t0 - covered)
        return np.asarray(out, dtype=np.float64)

    def write(self, path: Any) -> None:
        """Write the spans as JSON lines, sorted by start time."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, rid in sorted(
                    self.spans, key=lambda s: s[2]):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "rid": rid,
                }) + "\n")


def _coverage(intervals: Iterable[Tuple[float, float]],
              lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def median_us(values: np.ndarray) -> float:
    """Median of a seconds array in microseconds (0 when empty)."""
    return float(np.median(values)) * 1e6 if values.size else 0.0
