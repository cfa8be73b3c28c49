"""Tests of the benchmark's tracer: ``python3 -m pytest bench``."""

import itertools
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, aggregate, count_children, install  # noqa: E402


def ticking_clock(step: int = 10):
    counter = itertools.count(0, step)
    return lambda: next(counter)


def make_module(name: str) -> types.ModuleType:
    """``outer`` calls ``inner`` twice through the module global, and
    ``fail`` raises; ``user`` binds ``inner`` by import."""
    module = types.ModuleType(name)
    source = (
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(x) + inner(x)\n"
        "def fail():\n"
        "    raise KeyError('missing')\n"
        "def _private():\n"
        "    return 0\n"
    )
    exec(compile(source, name, "exec"), module.__dict__)
    for fn in ("inner", "outer", "fail", "_private"):
        module.__dict__[fn].__module__ = name
    return module


@pytest.fixture
def traced_modules():
    lib = make_module("pkg.lib")
    user = types.ModuleType("pkg.user")
    user.inner = lib.inner
    tracer = Tracer(clock=ticking_clock())
    restore = install(tracer, [lib, user])
    yield tracer, lib, user
    restore()


def test_self_times_of_nested_spans_sum_to_parent_duration(traced_modules):
    tracer, lib, _ = traced_modules
    lib.outer(1)
    stats = aggregate(tracer)
    root = next(i for i in range(len(tracer)) if tracer.parent[i] == -1)
    duration = tracer.end[root] - tracer.start[root]
    assert sum(s.self_ns for s in stats.values()) == duration
    assert stats["lib.outer"].inclusive_ns == duration
    assert stats["lib.outer"].self_ns == duration - stats["lib.inner"].inclusive_ns
    assert stats["lib.inner"].inclusive_ns > 0


def test_counts_match_the_call_pattern(traced_modules):
    tracer, lib, user = traced_modules
    for _ in range(3):
        lib.outer(0)
    user.inner(5)
    stats = aggregate(tracer)
    assert stats["lib.outer"].calls == 3
    assert stats["lib.inner"].calls == 7
    assert count_children(tracer, "lib.outer", "lib.inner") == 6
    assert "lib._private" not in stats


def test_wrapping_keeps_results_and_exception_types(traced_modules):
    tracer, lib, user = traced_modules
    assert lib.outer(1) == 4
    assert user.inner(1) == 2
    with pytest.raises(KeyError):
        lib.fail()
    # the failed call still closes its span
    assert aggregate(tracer)["lib.fail"].calls == 1
    assert all(tracer.end[i] > tracer.start[i] for i in range(len(tracer)))
    assert not tracer._stack


def test_restore_puts_the_originals_back():
    lib = make_module("pkg.lib")
    original = lib.inner
    restore = install(Tracer(), [lib])
    assert lib.inner is not original
    restore()
    assert lib.inner is original


def test_recursion_counts_inclusive_time_once():
    tracer = Tracer(clock=ticking_clock())
    module = types.ModuleType("pkg.rec")
    exec("def down(n):\n    return 0 if n == 0 else down(n - 1)\n", module.__dict__)
    module.down.__module__ = "pkg.rec"
    install(tracer, [module])
    module.down(3)
    stats = aggregate(tracer)["rec.down"]
    assert stats.calls == 4
    assert stats.inclusive_ns == tracer.end[0] - tracer.start[0]
    assert stats.self_ns == stats.inclusive_ns
