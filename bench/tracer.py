"""In-memory span tracer that wraps module functions from outside.

``install`` replaces each public function of the given modules, at its
definition site and at every ``from ... import`` site among those
modules, by a wrapper that records one span per call: name, start, end,
parent span and request id.  Spans stay in flat arrays until the run
ends; ``aggregate`` then derives call counts, inclusive time and self
time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 max_spans: int = 1_000_000):
        self.clock = clock
        self.max_spans = max_spans
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = 0
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    @property
    def full(self) -> bool:
        return len(self.start) >= self.max_spans

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, counter: str, n: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def wrap(self, name: str, fn: Callable,
             on_result: Callable[[object], None] | None = None) -> Callable:
        """``fn`` recording one span per call; results and exceptions
        pass through unchanged.  ``on_result`` sees each return value."""
        name_id = self._id(name)
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.end.append(0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Counters as ``#`` lines, then spans as tab-separated lines with
        times relative to the first span."""
        origin = self.start[0] if len(self.start) else 0
        with path.open("w", encoding="utf-8") as out:
            for counter, value in self.counters.items():
                out.write(f"#\t{counter}\t{value}\n")
            out.write("span\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - origin}\t"
                    f"{self.end[i] - origin}\t{self.parent[i]}\t{self.request[i]}\n"
                )

    def merge(self, path: Path, request_id: int) -> None:
        """Append the spans and counters another process wrote with
        ``write``, all under one request id."""
        offset = len(self.start)
        with path.open(encoding="utf-8") as lines:
            for line in lines:
                fields = line.rstrip("\n").split("\t")
                if fields[0] == "#":
                    self.add(fields[1], int(fields[2]))
                elif fields[0] != "span":
                    parent = int(fields[4])
                    self.name_id.append(self._id(fields[1]))
                    self.start.append(int(fields[2]))
                    self.end.append(int(fields[3]))
                    self.parent.append(parent + offset if parent >= 0 else -1)
                    self.request.append(request_id)


def public_functions(module: ModuleType) -> dict[str, Callable]:
    """Public functions defined in ``module`` (not imported into it)."""
    return {
        attr: value
        for attr, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not attr.startswith("_")
    }


def install(tracer: Tracer, modules: list[ModuleType],
            observers: dict[str, Callable[[object], None]] | None = None) -> Callable[[], None]:
    """Wrap every public function of ``modules`` wherever one of them
    binds it; span names are ``<last module component>.<function>``.
    Returns a function that puts the originals back."""
    observers = observers or {}
    wrappers: dict[int, Callable] = {}
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr, fn in public_functions(module).items():
            name = f"{layer}.{attr}"
            wrappers[id(fn)] = tracer.wrap(name, fn, observers.get(name))
    patched: list[tuple[ModuleType, str, Callable]] = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                patched.append((module, attr, value))
                setattr(module, attr, wrapper)

    def restore() -> None:
        for module, attr, original in patched:
            setattr(module, attr, original)

    return restore


@dataclass
class SpanStats:
    calls: int = 0
    inclusive_ns: int = 0  # outermost calls only, so recursion is not counted twice
    self_ns: int = 0


def aggregate(tracer: Tracer) -> dict[str, SpanStats]:
    """Per span name: calls, inclusive time and self time."""
    n = len(tracer.start)
    child_ns = [0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child_ns[p] += tracer.end[i] - tracer.start[i]
    stats: dict[str, SpanStats] = {}
    for i in range(n):
        name_id = tracer.name_id[i]
        entry = stats.setdefault(tracer.names[name_id], SpanStats())
        duration = tracer.end[i] - tracer.start[i]
        entry.calls += 1
        entry.self_ns += duration - child_ns[i]
        p = tracer.parent[i]
        while p >= 0 and tracer.name_id[p] != name_id:
            p = tracer.parent[p]
        if p < 0:
            entry.inclusive_ns += duration
    return stats


def count_children(tracer: Tracer, parent_name: str, child_name: str) -> int:
    """Calls of ``child_name`` made directly from ``parent_name``."""
    names = tracer.names
    count = 0
    for i in range(len(tracer.start)):
        p = tracer.parent[i]
        if (p >= 0 and names[tracer.name_id[i]] == child_name
                and names[tracer.name_id[p]] == parent_name):
            count += 1
    return count
