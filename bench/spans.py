"""In-memory spans recorded around calls into the library.

The benchmark wraps library functions from its own files; nothing under
``src/`` is instrumented.  A span is ``[name, start, end, parent, job]``:
``parent`` is the index of the enclosing span (or -1) and ``job`` the
identifier shared by every span of one job.  Only the calling thread is
traced, which is enough because the library's worker threads run no
wrapped function.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """``fn`` with each call recorded as a span called ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1, self.job])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace ``owner.attr`` by its traced form for each
        ``(owner, attr, name)`` in ``targets``, restoring on exit."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self, key, self_time: bool = False) -> dict:
        """Summed durations (or self times) and call counts, grouped by
        ``key(name, job)``; spans for which ``key`` gives None are skipped."""
        times = self.self_times() if self_time else [s[2] - s[1] for s in self.spans]
        total = defaultdict(float)
        calls = defaultdict(int)
        for (name, _, _, _, job), t in zip(self.spans, times):
            k = key(name, job)
            if k is not None:
                total[k] += t
                calls[k] += 1
        return {k: (total[k], calls[k]) for k in total}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans}, fh)
