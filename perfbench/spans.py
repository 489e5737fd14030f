"""In-memory spans around the benchmark's calls into tripowmin.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of the span that encloses it (-1 for none) and the id of the
operation it belongs to. Spans are kept in flat arrays while the benchmark
runs and written out once at the end.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self.op_id = 0

    def span(self, name: str) -> "_Span":
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return _Span(self, code)

    def _open(self, code: int) -> int:
        index = len(self.start)
        self.code.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        child = array("d", bytes(8 * len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list[float]] = {name: [] for name in self.names}
        for i, code in enumerate(self.code):
            out[self.names[code]].append(self.end[i] - self.start[i] - child[i])
        return out

    def durations_by_op(self, names) -> dict[int, dict[str, float]]:
        """Per operation id, the duration of each span whose name is given."""
        wanted = {self._codes[n] for n in names if n in self._codes}
        out: dict[int, dict[str, float]] = {}
        for i, code in enumerate(self.code):
            if code in wanted:
                out.setdefault(self.op[i], {})[self.names[code]] = self.end[i] - self.start[i]
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,name,start_s,end_s,parent,op\n")
            for i, code in enumerate(self.code):
                out.write(f"{i},{self.names[code]},{self.start[i]!r},{self.end[i]!r},"
                          f"{self.parent[i]},{self.op[i]}\n")


class _Span:
    __slots__ = ("tracer", "code", "index")

    def __init__(self, tracer: Tracer, code: int):
        self.tracer = tracer
        self.code = code

    def __enter__(self):
        self.index = self.tracer._open(self.code)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False
