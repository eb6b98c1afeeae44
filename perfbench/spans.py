"""In-memory span tracer that wraps public functions of the kgalign modules.

The tracer replaces module (or class) attributes with timing wrappers. The
program looks these functions up through their module at call time, so a
wrapped attribute is seen by every caller without editing the program.
Spans nest strictly because the program is single-threaded: the parent of a
span is whichever span was open when it started.
"""

import json
import sys
import time


class Tracer:
    """Records (name, start, end, parent, work) spans while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, work]
        self.counters = {}
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, work=None):
        """Time every call of ``owner.attr`` under ``name``.

        ``work(args, kwargs)`` returns a number stored on the span, such as
        rows processed. A missing attribute is reported and skipped, so the
        benchmark keeps running when a later version renames a function.
        """
        original = getattr(owner, attr, None)
        if original is None:
            print(f"perfbench: {name} not found; its spans stay empty", file=sys.stderr)
            return

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, work(args, kwargs) if work else 0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def has_ancestor(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def summary(self):
        """Per span name: calls, total seconds, self seconds and summed work.

        Self time is a span's duration minus the durations of its direct
        children, which lie inside it.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {}
        for i, (name, start, end, _, work) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["work"] += work
        return table

    def dump(self, path):
        """Write spans as JSON lines with times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, work) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "work": work,
                    "start_s": start - origin, "end_s": end - origin,
                }) + "\n")
