"""Structured span tracing over virtual time.

A :class:`Tracer` records hierarchical **spans** — named intervals of
virtual time with attributes and a parent — so any run can answer
"where did this confirmation session spend its 200 ms" without
print-debugging.  Two rules:

* **Zero-overhead when off.**  The default tracer on every
  :class:`~repro.sim.kernel.Simulator` is the shared :data:`NULL_TRACER`;
  its ``span`` is an allocation-free no-op and hot loops additionally
  guard on ``tracer.enabled``.  Disabled tracing draws no randomness
  and advances no clock, so traced and untraced runs are bit-identical.
* **Spans are scopes.**  ``with tracer.span("tpm.quote"):`` nests via an
  internal stack, so a span opens and closes inside one stretch of
  synchronous code: the confirmation session, its TPM commands and
  inline RPC calls, or one event's handler.  Readers walk the forest
  from :attr:`Tracer.roots` with :attr:`Span.children` and
  :meth:`Span.walk`.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.sim.clock import VirtualClock


class TracingError(RuntimeError):
    """Raised on tracer misuse (unbalanced or re-entered scopes)."""


class Span:
    """One named interval of virtual time in the span tree.

    ``end`` is ``None`` while the span is open; the span is the context
    manager that :meth:`Tracer.span` returns.
    """

    __slots__ = (
        "name",
        "start",
        "end",
        "attributes",
        "parent",
        "children",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        start: float,
        parent: Optional["Span"],
        attributes: Dict[str, Any],
        tracer: "Tracer",
    ) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes = attributes
        self.parent = parent
        self.children: List["Span"] = []
        self._tracer = tracer

    # -- queries -----------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Virtual seconds covered by this span (0.0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration not covered by direct children."""
        return self.duration - sum(child.duration for child in self.children)

    def set(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute on the span."""
        self.attributes[key] = value

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- scope protocol ----------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._enter_scope(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.attributes["error"] = f"{type(exc).__name__}: {exc}"
        self._tracer._exit_scope(self)
        return False

    def __repr__(self) -> str:
        state = f"end={self.end:.6f}" if self.finished else "open"
        return f"Span({self.name!r}, start={self.start:.6f}, {state})"


class _NullSpan:
    """Shared do-nothing span returned by the disabled tracer."""

    __slots__ = ()

    name = ""
    start = 0.0
    end = 0.0
    duration = 0.0
    self_seconds = 0.0
    finished = True
    parent = None

    @property
    def attributes(self) -> Dict[str, Any]:
        return {}

    @property
    def children(self) -> List["Span"]:
        return []

    def set(self, key: str, value: Any) -> None:
        pass

    def walk(self):
        return iter(())

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __repr__(self) -> str:
        return "NullSpan()"


#: The shared no-op span handed out by :data:`NULL_TRACER`.
NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-overhead disabled tracer (see :data:`NULL_TRACER`).

    Every method is a no-op returning :data:`NULL_SPAN`; ``enabled`` is
    False so hot loops can skip even the no-op call.
    """

    enabled = False
    roots: Sequence[Span] = ()

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return NULL_SPAN

    @property
    def current(self) -> None:
        return None

    def clear(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTracer()"


#: Shared singleton used wherever tracing is disabled.
NULL_TRACER = NullTracer()


class Tracer:
    """Records a forest of scoped spans against a :class:`VirtualClock`."""

    enabled = True

    #: Hard cap on recorded spans; exceeding it raises
    #: :class:`TracingError` (a runaway-instrumentation backstop, set
    #: far above any legitimate run).
    MAX_SPANS = 2_000_000

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        self._count = 0
        self._stack: List[Span] = []
        self.roots: List[Span] = []

    # -- recording ---------------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attributes: Any) -> Span:
        """A scoped span: use as ``with tracer.span("name") as s:``.

        The parent is the innermost open span.  The start timestamp is
        taken here, so create the span directly in the ``with``
        statement.
        """
        if self._count >= self.MAX_SPANS:
            raise TracingError(f"exceeded MAX_SPANS={self.MAX_SPANS}")
        parent = self.current
        span = Span(
            name=name,
            start=self._clock.now,
            parent=parent,
            attributes=attributes,
            tracer=self,
        )
        self._count += 1
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        return span

    def _enter_scope(self, span: Span) -> None:
        if span.finished:
            raise TracingError(f"span {span.name!r} re-entered after finish")
        self._stack.append(span)

    def _exit_scope(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise TracingError(
                f"unbalanced span scopes: exiting {span.name!r} but stack "
                f"top is {self._stack[-1].name if self._stack else 'empty'!r}"
            )
        self._stack.pop()
        span.end = self._clock.now

    def clear(self) -> None:
        """Drop all recorded spans (open scopes must be closed first)."""
        if self._stack:
            raise TracingError("cannot clear while spans are open")
        self.roots = []
        self._count = 0

    def __repr__(self) -> str:
        return f"Tracer(spans={self._count}, open={len(self._stack)})"


def traced(name: Optional[str] = None) -> Callable:
    """Method decorator: run the call inside a span.

    The tracer is resolved per call from ``self.tracer``,
    so the same class works traced or untraced — with the default
    :data:`NULL_TRACER` the wrapper adds one attribute lookup and a
    no-op context manager.
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(self, *args: Any, **kwargs: Any) -> Any:
            tracer = getattr(self, "tracer", None) or NULL_TRACER
            with tracer.span(span_name):
                return fn(self, *args, **kwargs)

        return wrapper

    return decorate
