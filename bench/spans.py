"""Span tracer that wraps the package's public functions from outside.

Each wrapped call records one span: name, start, end, parent span and op
id. Spans stay in memory in flat arrays and are written out once, at the
end. A layer's self time is its spans' durations minus the time their
direct child spans cover.

For a generator (``enumerate_perms``) each ``next()`` is one span, so its
self time is the time spent producing items, not the time the consumer
holds the generator open.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack: list[int] = []
        # Arguments (and results) of selected calls, for the untimed
        # exact-count pass: name -> list of (bound arguments, result).
        self.recorded: dict[str, list] = {}
        self._undo: list = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _hooks(self, name: str):
        nid = self._nid(name)
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, ops = self.parent, self.op
        clock = time.perf_counter

        def open_span() -> int:
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        return open_span, close_span

    def wrap(self, name: str, fn, record: bool = False):
        open_span, close_span = self._hooks(name)
        sig = inspect.signature(fn) if record else None
        calls = self.recorded.setdefault(name, []) if record else None

        def traced(*args, **kwargs):
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if calls is not None:
                calls.append((_bind(sig, args, kwargs), result))
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Wrap a generator function; records arguments and items yielded."""
        open_span, close_span = self._hooks(name)
        sig = inspect.signature(fn)
        calls = self.recorded.setdefault(name, [])

        def traced(*args, **kwargs):
            entry = [_bind(sig, args, kwargs), 0]
            calls.append(entry)
            gen = fn(*args, **kwargs)
            while True:
                idx = open_span()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close_span(idx)
                entry[1] += 1
                yield item

        return traced

    # Installing: every binding of the original object in the package's
    # modules is replaced, so calls through `from .x import f` are seen.

    def replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "anchorperms" and not mod_name.startswith("anchorperms."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((setattr, module, attr, original))
                    setattr(module, attr, replacement)

    def replace_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((setattr, owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def replace_item(self, mapping: dict, key, replacement) -> None:
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = replacement

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    # Reading the spans.

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """(self seconds by name, span count by name, top-level seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        top = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            name = self.names[self.name[i]]
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            if self.parent[i] < 0:
                top += dur
        return self_s, calls, top

    def write(self, directory: Path, stem: str) -> None:
        """Write the spans as flat binary arrays plus a JSON header."""
        directory.mkdir(parents=True, exist_ok=True)
        data = directory / f"{stem}.spans"
        with open(data, "wb") as fh:
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "layout": [
                ["name", self.name.typecode],
                ["parent", self.parent.typecode],
                ["op", self.op.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
            ],
            "clock": "time.perf_counter, seconds",
        }
        (directory / f"{stem}.json").write_text(json.dumps(header) + "\n")


def _bind(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)
