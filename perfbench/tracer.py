"""Outside-in tracing: spans around calls into the library's public functions.

A traced function is replaced, in every `symbidisc` module namespace that holds
it, by a wrapper that records a span (name, start, end, parent). Spans are kept
in memory in flat arrays and written out once at the end. Self time is a span's
duration minus the durations of its child spans, found through the parent links.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.root_ops: dict[int, int] = {}  # root span id -> operations it covers
        self.absent: list[str] = []
        self._stack = [NO_PARENT]
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        ns = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = ns()
                stack.pop()

        return traced

    def install(self, functions) -> None:
        """Wrap each \"<module>.<function>\" of the symbidisc package."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "symbidisc" or k.startswith("symbidisc."))]
        for qualified in functions:
            module_name, attr = qualified.split(".")
            original = getattr(sys.modules.get("symbidisc." + module_name), attr, None)
            if original is None:  # removed by a later change: reported, not an error
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(original, qualified)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, value))

    def uninstall(self) -> None:
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()

    @contextlib.contextmanager
    def root(self, name: str, ops: int):
        """A span with no parent, standing for `ops` operations of one sub-load."""
        sid = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(NO_PARENT)
        self.end.append(0)
        self.root_ops[sid] = ops
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter_ns()
            self._stack.pop()

    def table(self) -> dict:
        """Span arrays with durations, self times and root ids derived from parent links."""
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = end - start
        has_parent = parent != NO_PARENT
        child = np.zeros(len(duration), dtype=np.int64)
        np.add.at(child, parent[has_parent], duration[has_parent])
        root = np.where(has_parent, parent, np.arange(len(parent)))
        while True:  # pointer jumping: a parent id is always smaller than its child's
            up = np.where(parent[root] != NO_PARENT, parent[root], root)
            if np.array_equal(up, root):
                break
            root = up
        return {"name": name, "start": start, "end": end, "parent": parent,
                "duration": duration, "self": duration - child, "root": root}

    def write(self, path, table: dict) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                 **{k: table[k] for k in ("name", "start", "end", "parent")})
