"""Span tracing around the public functions and constructors of every
`finprob` layer, installed from outside the package.

Modules import each other's functions by name (`from .kernels import
compose`), so a wrapper is bound under every `finprob` module attribute
that holds the original function. Constructors are traced by wrapping the
class's own `__init__`. Spans stay in memory (flat arrays, one entry per
call) and are summarised or written out when the run ends. A span's self
time is its duration minus the durations of its direct child spans.

`fractions.Fraction` constructions are counted, not spanned: one span per
Fraction would cost more than the arithmetic it measures.
"""

from __future__ import annotations

import fractions
import functools
import inspect
import sys
from array import array
from time import perf_counter

# Private helpers worth a span of their own: the exact order test of the
# Galois audit and its float counterpart.
PRIVATE_TARGETS = {"idempotents": ("_leq_pair_exact", "_leq_pair_generic", "_int_form")}

# Scalar helpers called once per matrix element or per token; a span each
# would dwarf the work, so their time stays in their callers' self time.
SKIPPED = {
    "numerics": ("as_number", "is_infinite", "check_norm_index"),
    "serialize": ("fmt_number", "parse_number"),
}

FRACTION_NEW = "numerics.fraction_new"


def _layer_modules():
    for name, mod in sorted(sys.modules.items()):
        if name.startswith("finprob.") and mod is not None:
            yield name.split(".", 1)[1], mod


def _targets():
    """(span name, owner, attribute, original) for everything traced."""
    out = []
    for layer, mod in _layer_modules():
        skipped = SKIPPED.get(layer, ())
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__ or attr in skipped:
                continue
            if attr.startswith("_") and attr not in PRIVATE_TARGETS.get(layer, ()):
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{attr}", mod, attr, obj))
            elif (
                inspect.isclass(obj)
                and not issubclass(obj, BaseException)
                and "__init__" in vars(obj)
            ):
                out.append((f"{layer}.{attr}", obj, "__init__", vars(obj)["__init__"]))
    return out


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_first = array("b")  # 0 for the resumptions of a generator
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[int] = []
        self._restore: list = []
        self.fraction_new = 0

    # -- recording -------------------------------------------------------
    def _enter(self, name_id: int, first: int = 1) -> int:
        idx = len(self._span_name)
        self._span_name.append(name_id)
        self._span_parent.append(self._stack[-1] if self._stack else -1)
        self._span_first.append(first)
        self._span_end.append(0.0)
        self._stack.append(idx)
        self._span_start.append(perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self._span_end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name_id: int, fn):
        enter, leave = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                first = 1
                while True:
                    idx = enter(name_id, first)
                    first = 0
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every target and count Fraction constructions until uninstall."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, owner, attr, original in _targets():
            wrapper = self._wrap(len(self.names), original)
            self.names.append(name)
            wrappers[id(original)] = wrapper
            if inspect.isclass(owner):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        for _, mod in list(_layer_modules()) + [("", sys.modules["finprob"])]:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

        new = fractions.Fraction.__dict__["__new__"]
        original_new = new.__func__

        def counting_new(cls, *args, **kwargs):
            self.fraction_new += 1
            return original_new(cls, *args, **kwargs)

        self._restore.append((fractions.Fraction, "__new__", new))
        fractions.Fraction.__new__ = staticmethod(counting_new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- summaries -------------------------------------------------------
    def mark(self) -> tuple[int, int]:
        """Position to summarise from: (span count, Fraction count)."""
        return len(self._span_name), self.fraction_new

    def summary(self, since: tuple[int, int], until: tuple[int, int]) -> dict:
        """{span name: (calls, self seconds)} over the spans recorded
        between two marks, plus the Fraction constructions."""
        lo, hi = since[0], until[0]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            parent = self._span_parent[i]
            if parent >= lo:
                child[parent - lo] += self._span_end[i] - self._span_start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(lo, hi):
            nid = self._span_name[i]
            calls[nid] += self._span_first[i]
            self_s[nid] += self._span_end[i] - self._span_start[i] - child[i - lo]
        out = {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}
        out[FRACTION_NEW] = (until[1] - since[1], 0.0)
        return out

    def write_spans(self, path, since: tuple[int, int], until: tuple[int, int]) -> None:
        """Spans between two marks as CSV: index, parent, name, start, end
        (seconds, relative to the first span written)."""
        lo, hi = since[0], until[0]
        t0 = self._span_start[lo] if hi > lo else 0.0
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i in range(lo, hi):
                parent = self._span_parent[i]
                fh.write(
                    f"{i - lo},{parent - lo if parent >= lo else -1},"
                    f"{self.names[self._span_name[i]]},"
                    f"{self._span_start[i] - t0:.9f},{self._span_end[i] - t0:.9f}\n"
                )
