"""Spans around lipcert's layer boundaries, recorded from outside the library.

A boundary names a module attribute that callers resolve at call time
(``lp.solve``, ``freespace.free_norm_primal``, ...).  ``install`` prepares a
wrapper for that function and for every other attribute in the package
bound to the same function object (``construct.extend_basis`` is
``lipschitz.extend_basis`` bound at import).  While applied, a wrapper
records a span whenever a root span is open and otherwise only forwards
the call.

Spans are kept in memory as parallel lists and summarised at the end:
a span's self time is its duration minus the durations of its direct
children (single-threaded, so children never overlap), and a name's total
time counts only its outermost spans, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


class Tracer:
    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []  # index of the enclosing span, -1 for a root
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.nested: list[bool] = []  # True when an enclosing span has the same name
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    @property
    def active(self) -> bool:
        return bool(self._open)

    def start(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.nested.append(any(self.names[j] == name for j in self._open))
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def stop(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(tracer: Tracer) -> dict[str, SpanStats]:
    """Calls, total time and self time per span name."""
    n = len(tracer.names)
    durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    covered = [0.0] * n
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            covered[parent] += durations[i]
    table: dict[str, SpanStats] = {}
    for i, name in enumerate(tracer.names):
        stats = table.setdefault(name, SpanStats())
        stats.calls += 1
        stats.self_s += durations[i] - covered[i]
        if not tracer.nested[i]:
            stats.total_s += durations[i]
    return table


def child_calls(tracer: Tracer, child: str, parent: str) -> int:
    """Number of ``child`` spans opened directly inside a ``parent`` span."""
    return sum(
        1
        for name, p in zip(tracer.names, tracer.parents)
        if name == child and p >= 0 and tracer.names[p] == parent
    )


@dataclass(frozen=True)
class Boundary:
    module: str  # module name inside the package, e.g. "lp"
    attr: str  # attribute the callers resolve, e.g. "solve"
    span: str  # span name, e.g. "lp.solve"
    on_result: object = None  # callable(tracer, result) adding work counters


class Installation:
    """The bindings to replace; ``apply`` puts the wrappers in place and
    ``restore`` puts every original back."""

    def __init__(self):
        self.bindings: list[tuple[object, str, object, object]] = []
        self.unreachable: list[str] = []  # spans whose function was not found

    def apply(self) -> None:
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)


def _wrap(tracer: Tracer, span: str, fn, on_result):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.start(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.stop(idx)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return traced


def install(tracer: Tracer, modules: dict[str, object], boundaries) -> Installation:
    """Prepare a wrapper for each boundary in ``modules`` (name -> module).

    Every module attribute bound to the original function is covered, so a
    name imported with ``from x import f`` is wrapped too.  A boundary whose
    module or attribute is missing, or is not callable, is recorded in
    ``unreachable`` instead of being skipped silently.  Nothing is replaced
    until ``apply``.
    """
    inst = Installation()
    for b in boundaries:
        module = modules.get(b.module)
        original = getattr(module, b.attr, None) if module is not None else None
        if not callable(original):
            inst.unreachable.append(b.span)
            continue
        wrapper = _wrap(tracer, b.span, original, b.on_result)
        for mod in modules.values():
            for attr, value in vars(mod).items():
                if value is original:
                    inst.bindings.append((mod, attr, original, wrapper))
    return inst
