"""Spans around the program's public calls, recorded from outside it.

The runner looks its collaborators up as module globals at call time
(``build_igtep``, ``external_solve``, ``solve``, ...), and ``oracle_solve``
looks up ``simplex_lp`` the same way, so replacing those names for the
length of a run times every call without touching the program.  Spans stay
in memory as ``[name, start, end, parent]`` and are written out when the
run ends; a span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Span recorder; with ``enabled`` false it records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = (t0, t1)

    def wrapped(self, name: str, fn, before=None, after=None):
        """``fn`` timed as ``name``; ``before(args)`` and ``after(result)``
        run outside the span, so counting is not charged to the layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    @contextmanager
    def patched(self, patches):
        """Replace ``(module, attr, wrapper_factory)`` names for the block."""
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _ in patches]
        try:
            for module, attr, factory in patches:
                setattr(module, attr, factory(getattr(module, attr)))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total duration, self time and call count."""
        child_time = defaultdict(float)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for idx, (name, t0, t1, _) in enumerate(self.spans):
            total[name] += t1 - t0
            own[name] += t1 - t0 - child_time[idx]
            calls[name] += 1
        return total, own, calls

    def root_time(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans,
                                    "counts": dict(self.counts)}) + "\n")
