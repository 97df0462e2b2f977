"""In-memory spans around the benchmark's calls into pwlcycles.

A span is ``(span_id, parent_id, op_id, name, start, end)`` with times from
``time.perf_counter``.  Names are ``<module>.<function>`` for package calls
and ``op.<kind>`` for the benchmark's own operation wrapper, so a span's
layer is the text before the first dot.  With tracing off, ``call`` and
``op`` add one Python call and record nothing.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._next_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` and, when tracing, record a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._span(name, new_op=False):
            return fn(*args, **kwargs)

    def op(self, kind: str):
        """Parent span of one benchmark operation; its children share its op id."""
        return self._span(f"op.{kind}", new_op=True)

    @contextmanager
    def _span(self, name: str, new_op: bool):
        if not self.enabled:
            yield
            return
        if new_op:
            self._op_id += 1
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack and not new_op else -1
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self._op_id, name, t0, t1))

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, durations; per layer: self seconds."""
        child_time: dict[int, float] = {}
        for _sid, parent, _op, _name, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        by_name: dict[str, dict] = {}
        layer_self: dict[str, float] = {}
        for sid, _parent, _op, name, t0, t1 in self.spans:
            dur = t1 - t0
            own = dur - child_time.get(sid, 0.0)
            entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                              "durations": []})
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += own
            entry["durations"].append(dur)
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
        for entry in by_name.values():
            entry["p50_s"] = statistics.median(entry["durations"])
        return {"names": by_name, "layer_self_s": layer_self}

    def write(self, path) -> None:
        """Write one JSON object per span, in the order the spans closed."""
        keys = ("span", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
