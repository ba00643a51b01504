"""Structured tracing over the simulated clock.

A :class:`Tracer` records a forest of :class:`Span` trees. Spans nest by a
strict stack discipline — the VM is a single simulated process, so at any
instant exactly one chain of open spans exists — and every timestamp comes
from the simulated :class:`~repro.vm.clock.Clock`, which makes traces
deterministic and replayable.

The tracer is deliberately forgiving: ending a span that is not the top of
the stack implicitly closes the spans opened inside it (and records the
fact in :attr:`Tracer.anomalies`), and ending with an empty stack is a
recorded no-op. Update aborts can unwind through several phases at once;
the trace must survive that and say what happened, not corrupt itself.

:meth:`Tracer.validate` checks the invariants the test-suite relies on:
every span closed, children inside their parent's bounds, siblings
non-overlapping and in start order.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: slack for float comparisons on simulated-ms timestamps
_EPS = 1e-9


@dataclass
class Span:
    """One timed, named piece of work. ``end_ms`` is ``None`` while open."""

    name: str
    category: str = "vm"
    start_ms: float = 0.0
    end_ms: Optional[float] = None
    args: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    #: zero-duration marker event (exported as a Chrome instant event)
    instant: bool = False

    @property
    def duration_ms(self) -> float:
        return (self.end_ms - self.start_ms) if self.end_ms is not None else 0.0

    @property
    def closed(self) -> bool:
        return self.end_ms is not None

    def walk(self) -> Iterator["Span"]:
        """Depth-first pre-order over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every descendant (or self) with the given name."""
        return [span for span in self.walk() if span.name == name]


#: sentinel returned by a disabled tracer so call sites stay branch-free
_NULL_SPAN = Span("<disabled>")


class Tracer:
    """Records nested spans against one simulated clock."""

    def __init__(self, clock, enabled: bool = True):
        self.clock = clock
        self.enabled = enabled
        self.roots: List[Span] = []
        #: tolerated-but-suspicious events (mismatched ends, forced closes)
        self.anomalies: List[str] = []
        self._stack: List[Span] = []

    # ------------------------------------------------------------------
    # recording

    def begin(self, name: str, category: str = "vm", **args) -> Span:
        """Open a span; it nests under the innermost open span."""
        if not self.enabled:
            return _NULL_SPAN
        span = Span(name, category, self.clock.now_ms, None,
                    dict(args) if args else {})
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Optional[Span] = None, **args) -> None:
        """Close ``span`` (default: the innermost open one).

        If spans opened inside ``span`` are still open they are closed too
        — an abort unwinding through several phases must not wedge the
        stack — and each forced close is recorded as an anomaly.
        """
        if not self.enabled or span is _NULL_SPAN:
            return
        if not self._stack:
            self.anomalies.append(
                f"end({span.name if span else '<top>'!r}) with no open span"
            )
            return
        if span is None:
            span = self._stack[-1]
        if span not in self._stack:
            self.anomalies.append(
                f"end({span.name!r}) for a span that is not open"
            )
            return
        now = self.clock.now_ms
        while self._stack[-1] is not span:
            dangling = self._stack.pop()
            dangling.end_ms = now
            self.anomalies.append(
                f"span {dangling.name!r} implicitly closed by "
                f"end({span.name!r})"
            )
        self._stack.pop()
        span.end_ms = now
        if args:
            span.args.update(args)

    @contextmanager
    def span(self, name: str, category: str = "vm", **args):
        """``with tracer.span(...) as s:`` — exception-safe begin/end."""
        opened = self.begin(name, category, **args)
        try:
            yield opened
        finally:
            self.end(opened)

    def instant(self, name: str, category: str = "vm", **args) -> Span:
        """A zero-duration marker at the current simulated time."""
        if not self.enabled:
            return _NULL_SPAN
        now = self.clock.now_ms
        span = Span(name, category, now, now, dict(args) if args else {},
                    instant=True)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    # ------------------------------------------------------------------
    # inspection

    @property
    def open_spans(self) -> List[Span]:
        return list(self._stack)

    def walk(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> List[Span]:
        return [span for span in self.walk() if span.name == name]

    def validate(self) -> List[str]:
        """Well-formedness check: every problem found, as human-readable
        strings (empty list = the span forest is sound)."""
        problems = list(self.anomalies)
        for root in self.roots:
            self._validate_span(root, problems)
        problems.extend(
            f"span {span.name!r} still open" for span in self._stack
        )
        # Root spans must not overlap each other.
        self._validate_siblings(self.roots, "<root>", problems)
        return problems

    def _validate_span(self, span: Span, problems: List[str]) -> None:
        if span.end_ms is None:
            problems.append(f"span {span.name!r} never closed")
            return
        if span.end_ms < span.start_ms - _EPS:
            problems.append(
                f"span {span.name!r} ends before it starts "
                f"({span.start_ms} -> {span.end_ms})"
            )
        for child in span.children:
            if child.start_ms < span.start_ms - _EPS or (
                child.end_ms is not None
                and child.end_ms > span.end_ms + _EPS
            ):
                problems.append(
                    f"child {child.name!r} escapes parent {span.name!r} "
                    f"bounds ([{child.start_ms}, {child.end_ms}] outside "
                    f"[{span.start_ms}, {span.end_ms}])"
                )
            self._validate_span(child, problems)
        self._validate_siblings(span.children, span.name, problems)

    @staticmethod
    def _validate_siblings(spans: List[Span], parent: str,
                           problems: List[str]) -> None:
        previous: Optional[Span] = None
        for span in spans:
            if previous is not None and previous.end_ms is not None:
                if span.start_ms < previous.end_ms - _EPS:
                    problems.append(
                        f"siblings {previous.name!r} and {span.name!r} "
                        f"overlap under {parent!r}"
                    )
            previous = span
