"""Spans around ttalign's public functions, recorded from outside the package.

A probe replaces one attribute that callers look up at call time (a module
global such as ``ttalign.tta.generate_views`` or a class attribute such as
``DualEncoder.encode_image``) with a wrapper that records a span: name, start,
end, parent span and operation id. Spans and counters stay in memory; the
benchmark writes them out when the run ends. ``uninstall`` restores every
original attribute, so untraced timings run the unmodified program.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

SETUP = -1  # operation id of spans recorded during set-up


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()  # (counter name, op id) -> amount
        self.op = SETUP
        self._stack: list[int] = []
        self._probes: list[tuple[object, str, object, object]] = []
        self._installed = False

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(name, self.op)] += amount

    # -- probes ----------------------------------------------------------------

    def probe(self, owner, attr: str, name: str, enter=None, leave=None) -> None:
        """Register a span around ``owner.attr``.

        ``enter(tracer, args, kwargs)`` runs inside the span before the call
        and returns the (args, kwargs) to call with; ``leave(tracer, args,
        kwargs, result)`` runs after the span closes.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                if enter is not None:
                    args, kwargs = enter(tracer, args, kwargs)
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.count(name + ".calls")
            if leave is not None:
                leave(tracer, args, kwargs, result)
            return result

        self._probes.append((owner, attr, original, wrapper))

    def install(self) -> None:
        if not self._installed:
            for owner, attr, _, wrapper in self._probes:
                setattr(owner, attr, wrapper)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for owner, attr, original, _ in self._probes:
                setattr(owner, attr, original)
            self._installed = False

    # -- summaries ---------------------------------------------------------------

    def absorb(self, spans: list[list], counts: list[list]) -> None:
        """Merge spans and counters recorded by another process (set-up child)."""
        base = len(self.spans)
        for name, start, end, parent, op in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
        for name, op, amount in counts:
            self.counts[(name, op)] += amount

    def export_counts(self) -> list[list]:
        return [[name, op, amount] for (name, op), amount in self.counts.items()]

    def durations(self) -> list[tuple[str, int, float, float]]:
        """(name, op id, inclusive seconds, self seconds) for every span.

        Self time is the span's duration minus the durations of its direct
        children; one thread records them, so children nest inside parents.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (name, op, end - start, end - start - child[i])
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]
