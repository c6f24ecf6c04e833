"""Spans around the package's public functions, installed from outside it.

The tracer wraps every public function of every ``twistedhom`` module and
rebinds each name that refers to it in any ``twistedhom.*`` module, because
the modules import each other's functions by name (``homology`` holds its
own ``snf``, ``cli`` its own ``h1_cohomology``, and so on). The package
source is not touched. Spans stay in memory until the run writes them out.

Self time is a span's duration minus the time its child spans cover,
including the wrappers' own bookkeeping, so that cost lands in no layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "twistedhom"


def _max_bits(*matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for x in m.entries), default=0)


def _attrs(name: str, args, result) -> dict:
    """Work counts for one call, measured where the work happens."""
    name = name.rpartition(".")[2]
    if name == "snf":
        (matrix,) = args
        return {
            "cells": matrix.rows * matrix.cols,
            "rows": matrix.rows,
            "cols": matrix.cols,
            "bits": _max_bits(result.U, result.D, result.V),
            "input": hash((matrix.rows, matrix.cols, matrix.entries)),
        }
    if name in ("evaluate_word", "parse_word"):
        word = args[1] if name == "evaluate_word" else result
        return {"letters": len(word.letters)}
    if name == "fox_derivative":
        return {"terms": len(result.terms)}
    if name == "brute_force_h1_mod2":
        p, rep = args[0], args[1]
        return {"candidates": 1 << (len(p.generators) * rep.rank)}
    return {}


@dataclass(slots=True)
class Span:
    name: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    closed: float = 0.0
    attrs: dict = field(default_factory=dict)


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


def public_functions() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for every traced callable.

    Span names are ``module.function``, as in ``exactlinalg.snf``.
    Module functions are found by the module that defines them; the one
    classmethod, Representation.build, is listed by hand.
    """
    found = []
    for module in package_modules():
        short = module.__name__.rpartition(".")[2]
        for attr, value in sorted(vars(module).items()):
            if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                found.append((f"{short}.{attr}", module, attr, value))
        if short == "representation":
            found.append(("Representation.build", module.Representation, "build", module.Representation.__dict__["build"]))
    return found


class Tracer:
    """Records spans while installed; ``job`` tags the spans of one job."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.targets: list = []

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, self.job, stack[-1] if stack else None, perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = func(*args, **kwargs)
                span.end = perf_counter()
                span.attrs = _attrs(name, args, result)
                return result
            finally:
                if not span.end:
                    span.end = perf_counter()
                stack.pop()
                span.closed = perf_counter()

        traced.__traced__ = func
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.targets = public_functions()
        wrappers = {}
        for name, owner, attr, original in self.targets:
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, original.__func__)))
                self._undo.append((owner, attr, original))
            else:
                wrappers[id(original)] = (original, self._wrap(name, original))
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def leftover(self) -> list[str]:
        """Names in twistedhom.* still bound to an original while installed;
        empty when the installation reached every import site."""
        originals = {id(o.__func__ if isinstance(o, classmethod) else o) for *_, o in self.targets}
        return [name for name, func in bound_functions() if id(func) in originals]


def bound_functions() -> list[tuple[str, object]]:
    """Every function object a twistedhom.* module or Representation.build holds."""
    bound = []
    for module in package_modules():
        for attr, value in vars(module).items():
            if inspect.isfunction(value):
                bound.append((f"{module.__name__}.{attr}", value))
    representation = sys.modules[PACKAGE + ".representation"]
    bound.append(("Representation.build", representation.Representation.__dict__["build"].__func__))
    return bound


def assert_untraced() -> None:
    """Tracing off means nothing installed: every name holds the original."""
    wrapped = [name for name, func in bound_functions() if hasattr(func, "__traced__")]
    if wrapped:
        raise RuntimeError(f"tracer wrappers left installed: {', '.join(wrapped)}")
