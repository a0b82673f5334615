"""Per-job span trees: where a simulation's wall-clock actually went.

A trace is a tree of named :class:`Span`\\ s — submit → queue-wait →
prepare/shard-attach → per-iteration sweeps → charge — keyed by a
correlation id (the job content-key prefix).  The worker entry point
opens the root with :func:`trace`; instrumented library code wraps its
phases in :func:`span`, which attaches to whatever span is current on
this thread (a ``ContextVar``, so concurrent worker-slot threads in the
same process cannot cross-wire their trees).

Crucially, :func:`span` is a **no-op when no root trace is active**:
calling ``GraphR.run`` or ``execute_job`` directly — as most tests and
library users do — produces exactly the same ``RunStats`` as before
this package existed.  Only the job runtime opens roots, and the
serialized tree rides in ``RunStats.extra["trace"]``, which never
enters job content keys.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "current_span", "enabled", "set_enabled", "span",
           "trace"]

_enabled = True
_current: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span",
                                                    default=None)


def set_enabled(flag: bool) -> None:
    """Globally enable/disable tracing (process-wide).  While disabled,
    :func:`trace` yields ``None`` and no tree is built."""
    global _enabled
    _enabled = bool(flag)


def enabled() -> bool:
    """Whether tracing is on."""
    return _enabled


class Span:
    """One timed phase; children nest to form the trace tree."""

    __slots__ = ("name", "correlation_id", "start_s", "duration_s",
                 "meta", "children", "_t0")

    def __init__(self, name: str,
                 correlation_id: Optional[str] = None) -> None:
        self.name = name
        self.correlation_id = correlation_id
        self.start_s: Optional[float] = None
        self.duration_s: Optional[float] = None
        self.meta: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self._t0: Optional[float] = None

    # ------------------------------------------------------------------
    def start(self) -> "Span":
        self.start_s = time.time()
        self._t0 = time.perf_counter()
        return self

    def finish(self) -> "Span":
        if self._t0 is not None and self.duration_s is None:
            self.duration_s = time.perf_counter() - self._t0
        return self

    def annotate(self, **meta: Any) -> "Span":
        """Attach JSON-safe key/value details (tile counts, bytes...)."""
        self.meta.update(meta)
        return self

    def child(self, name: str) -> "Span":
        """Create and attach (but do not start) a child span."""
        child = Span(name, correlation_id=self.correlation_id)
        self.children.append(child)
        return child

    def add_child(self, name: str, duration_s: float,
                  **meta: Any) -> "Span":
        """Attach an already-measured phase (e.g. the supervisor
        injecting queue-wait computed from store timestamps)."""
        child = self.child(name)
        child.duration_s = float(duration_s)
        if meta:
            child.meta.update(meta)
        return child

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe tree (the ``RunStats.extra["trace"]`` payload)."""
        out: Dict[str, Any] = {"name": self.name}
        if self.correlation_id is not None:
            out["correlation_id"] = self.correlation_id
        if self.start_s is not None:
            out["start_s"] = self.start_s
        if self.duration_s is not None:
            out["duration_s"] = self.duration_s
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def walk(self) -> Iterator["Span"]:
        """This span then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every span in the tree with the given name."""
        return [s for s in self.walk() if s.name == name]

    def __repr__(self) -> str:
        dur = (f"{self.duration_s:.6f}s"
               if self.duration_s is not None else "open")
        return (f"Span({self.name!r}, {dur}, "
                f"children={len(self.children)})")


def current_span() -> Optional[Span]:
    """The span active on this thread, or ``None`` outside a trace."""
    return _current.get()


@contextmanager
def trace(name: str, correlation_id: Optional[str] = None
          ) -> Iterator[Optional[Span]]:
    """Open a **root** span and make it current.

    Yields the root (or ``None`` when tracing is disabled — callers
    must guard).  Only job-runtime entry points open roots; everything
    downstream uses :func:`span`.
    """
    if not _enabled:
        yield None
        return
    root = Span(name, correlation_id=correlation_id).start()
    token = _current.set(root)
    try:
        yield root
    finally:
        root.finish()
        _current.reset(token)


@contextmanager
def span(name: str, **meta: Any) -> Iterator[Optional[Span]]:
    """Time one phase under the current span.

    A no-op (yields ``None``) when no trace is active or tracing is
    disabled, so library code can call this unconditionally without
    ever changing behaviour for direct, untracked runs.
    """
    parent = _current.get()
    if parent is None or not _enabled:
        yield None
        return
    child = parent.child(name).start()
    if meta:
        child.meta.update(meta)
    token = _current.set(child)
    try:
        yield child
    finally:
        child.finish()
        _current.reset(token)
