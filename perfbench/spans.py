"""In-memory spans around calls into onebit's layers.

A Tracer replaces a module attribute (the name a caller looks up, such as
``onebit.recovery.solve_lp``) with a wrapper that records a span: its name,
the round it ran in, its parent span, its start and its end.  Work the
benchmark does itself inside a wrapper (checks, captures) runs under
``Tracer.paused()``, and the tracer's clock stops for it, so no span and no
round time includes it.

The clock is the process's CPU time.  onebit runs on one thread here, so on
an idle machine this equals wall time; on a shared virtual machine wall
time also counts the time the hypervisor gives to other guests (the steal
column of /proc/stat), which varies from run to run by tens of percent.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    round: int
    parent: int | None
    start: float
    end: float = float("nan")
    exc: Exception | None = None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round = -1
        self._open: list[int] = []
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def clock(self) -> float:
        """Process CPU time minus the time spent paused."""
        return time.process_time() - self._paused

    @contextmanager
    def paused(self):
        t0 = time.process_time()
        try:
            yield
        finally:
            self._paused += time.process_time() - t0

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a new span; return (result, span).

        When fn raises, the span is closed and (None, span) is returned
        with the exception held in span.exc.
        """
        span = Span(name, self.round, self._open[-1] if self._open else None, self.clock())
        self._open.append(len(self.spans))
        self.spans.append(span)
        result = None
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.exc = exc
        finally:
            span.end = self.clock()
            self._open.pop()
        return result, span

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace owner.attr by a spanned wrapper.

        on_return(span, args, result) runs paused after each call; result is
        None when the call raised, and the exception is re-raised after it.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result, span = self.call(name, original, *args, **kwargs)
            if on_return is not None:
                with self.paused():
                    on_return(span, args, result)
            if span.exc is not None:
                raise span.exc
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrapped(self) -> int:
        """How many attributes are wrapped now."""
        return len(self._patches)

    def unwrap(self, keep: int = 0) -> None:
        """Restore every attribute wrapped after the first `keep` wraps."""
        while len(self._patches) > keep:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the spans -------------------------------------------------

    def select(self, name: str, rounds) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.round in rounds]

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def per_call_ms(self, name: str, rounds, own: bool = False) -> list[float]:
        seconds = self.self_seconds() if own else [s.seconds for s in self.spans]
        return [1000.0 * seconds[k] for k, s in enumerate(self.spans)
                if s.name == name and s.round in rounds]

    def per_round_ms(self, name: str, rounds, own: bool = False) -> list[float]:
        """Total milliseconds in the named spans, one total per round."""
        seconds = self.self_seconds() if own else [s.seconds for s in self.spans]
        totals = {r: 0.0 for r in rounds}
        for k, s in enumerate(self.spans):
            if s.name == name and s.round in totals:
                totals[s.round] += 1000.0 * seconds[k]
        return list(totals.values())


def median(values) -> float:
    """Median, or 0.0 for a layer the workload never calls."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
