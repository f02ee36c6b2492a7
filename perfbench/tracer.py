"""In-memory call tracing of the screendep package, from outside the package.

A Tracer wraps package callables where their callers look them up: a
module-level function is replaced in every screendep module that holds it
by name (cli imports estimate_densities by name, exppoly's integrate0
looks solve_linear_ode up in its own module), and a method is replaced on
its class.  Each call records one Span; a span's self time is its duration
minus the time of the wrapped calls it made.  Leaving the context restores
every patched attribute.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    parent: str | None
    start: float
    end: float
    self_s: float
    counts: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A callable to wrap: module or class path, attribute, span name, counter.

    count(args, kwargs, result) returns a dict of counts for the span.
    """

    owner: str
    attr: str
    name: str
    count: Callable | None = None


def resolve(path: str):
    module, _, cls = path.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list = []
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "screendep" or name.startswith("screendep."))
        ]
        try:
            for target in self.targets:
                try:
                    owner = resolve(target.owner)
                    original = (
                        vars(owner)[target.attr] if isinstance(owner, type)
                        else getattr(owner, target.attr)
                    )
                except (KeyError, AttributeError):
                    self.missing.append(f"{target.owner}.{target.attr}")
                    continue
                wrapper = self._wrap(original, target)
                if isinstance(owner, type):
                    self._patch(owner, target.attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, original, target: Target):
        name, count = target.name, target.count
        stack, spans = self._stack, self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            child = [0.0]
            parent = stack[-1][1] if stack else None
            stack.append((child, name))
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0][0] += end - start
            counts = None
            if count is not None:
                try:
                    counts = count(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    counts = None
            spans.append(Span(name, parent, start, end, end - start - child[0], counts))
            return result

        return wrapper
