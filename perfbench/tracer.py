"""Spans and counters around the public functions of ``bmwcenter``, from outside.

``Tracer.install()`` replaces every public module-level function, and every
public method and property, ``__init__`` and the arithmetic operators of
every class, of every ``bmwcenter.*`` module with a wrapper that opens a
span.  Modules
bind each other's functions with ``from .x import f``, so every binding in
every module namespace (and in module-level dicts such as the CLI's
command table) is replaced, not just the defining one.  Comparison,
hashing and container dunders stay unwrapped: dicts and sets call them far
more often than the code does, and they do no arithmetic.

A span has a name (``module.qualname``), a start, an end, a parent span
and the job it ran in.  Self time is the span's duration minus the time
its child spans cover.  DFS-heavy jobs open millions of spans, so closed
spans are merged in memory by (job, name, parent name), keeping the call
count, total and self time and the first start and last end; the table is
written out when the run ends.  Counters are attributed to the innermost
open span.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from types import FunctionType

OPERATORS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
             "__mul__", "__rmul__", "__truediv__", "__neg__", "__pow__")


def _nterms(x):
    """Term count of a polynomial operand; a scalar counts as one term."""
    terms = getattr(x, "terms", None)
    return 1 if terms is None else len(terms)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.job = None
        self.stack = []  # open frames: [name, start, time covered by children]
        self.spans = {}  # (job, name, parent) -> [calls, total, self, first, last]
        self.counters = defaultdict(int)  # (counter, innermost span) -> total
        self.peaks = {}
        self.seen = defaultdict(set)  # argument keys per repeat-tracked span
        self._wrapped = {}

    # -- recording ---------------------------------------------------------

    def _close(self, frame, end, calls=1):
        name, start, child = frame
        dur = end - start
        stack = self.stack
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][2] += dur
        key = (self.job, name, parent)
        rec = self.spans.get(key)
        if rec is None:
            self.spans[key] = [calls, dur, dur - child, start, end]
        else:
            rec[0] += calls
            rec[1] += dur
            rec[2] += dur - child
            rec[4] = end

    def count(self, name, k=1):
        where = self.stack[-1][0] if self.stack else None
        self.counters[(name, where)] += k

    def peak(self, name, v):
        if v > self.peaks.get(name, 0):
            self.peaks[name] = v

    def wrap(self, fn, name, hook=None):
        """A wrapper of fn that records a span called name.

        hook(tracer, args, result) runs while the span is still open.
        """
        stack, clock, close = self.stack, self.clock, self._close

        if inspect.isgeneratorfunction(fn):
            # each resumption is a segment of the span; the call counts once
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                calls = 1
                while True:
                    frame = [name, clock(), 0.0]
                    stack.append(frame)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        close(frame, end, calls)
                    calls = 0
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                close(frame, end)
                raise
            end = clock()
            if hook is not None:
                hook(self, args, result)
            stack.pop()
            close(frame, end)
            return result
        return wrapper

    def run_job(self, job_id, fn, *args):
        """Call fn(*args) as job job_id, so its spans carry that id."""
        self.job = job_id
        try:
            return fn(*args)
        finally:
            self.job = None

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap bmwcenter's public functions and methods; see the module doc."""
        pkg = importlib.import_module("bmwcenter")
        modules = [importlib.import_module("bmwcenter." + info.name)
                   for info in pkgutil.iter_modules(pkg.__path__)
                   if info.name != "__main__"]
        short = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in modules}

        def wrapped(fn, name):
            w = self._wrapped.get(fn)
            if w is None:
                w = self.wrap(fn, name, HOOKS.get(name))
                self._wrapped[fn] = w
            return w

        for m in modules:
            for attr, value in list(vars(m).items()):
                if (isinstance(value, FunctionType) and value.__module__ == m.__name__
                        and not attr.startswith("_")):
                    wrapped(value, "%s.%s" % (short[m.__name__], attr))
                elif isinstance(value, type) and value.__module__ == m.__name__:
                    self._install_class(value, short[m.__name__], wrapped)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if isinstance(value, FunctionType) and value in self._wrapped:
                    setattr(m, attr, self._wrapped[value])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(v, FunctionType) and v in self._wrapped:
                            value[k] = self._wrapped[v]

    def _install_class(self, cls, module, wrapped):
        for attr, value in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in OPERATORS
            if not public:
                continue
            name = "%s.%s.%s" % (module, cls.__name__, attr)
            if isinstance(value, FunctionType):
                # name by the function, so __rmul__ = __mul__ is one span name
                fn_name = "%s.%s" % (module, value.__qualname__)
                setattr(cls, attr, wrapped(value, fn_name))
            elif isinstance(value, classmethod):
                setattr(cls, attr, classmethod(wrapped(value.__func__, name)))
            elif isinstance(value, staticmethod):
                setattr(cls, attr, staticmethod(wrapped(value.__func__, name)))
            elif isinstance(value, property) and value.fget is not None:
                setattr(cls, attr, property(wrapped(value.fget, name), value.fset,
                                            value.fdel, value.__doc__))

    # -- results -------------------------------------------------------------

    def by_name(self):
        """name -> [calls, total seconds, self seconds], over all jobs."""
        out = {}
        for (_, name, _), (calls, total, self_s, _, _) in self.spans.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def counter_totals(self):
        out = defaultdict(int)
        for (name, _), k in self.counters.items():
            out[name] += k
        return dict(out)

    def table(self):
        """The merged spans and counters, as JSON-ready lists."""
        spans = [{"job": job, "name": name, "parent": parent, "calls": rec[0],
                  "total_s": rec[1], "self_s": rec[2], "first_start": rec[3],
                  "last_end": rec[4]}
                 for (job, name, parent), rec in self.spans.items()]
        counters = [{"counter": name, "span": where, "value": k}
                    for (name, where), k in self.counters.items()]
        return {"spans": spans, "counters": counters, "peaks": dict(self.peaks)}


# ---------------------------------------------------------------------------
# counters computed at specific spans


def _repeat(counter):
    def hook(tr, args, result):
        seen = tr.seen[counter]
        if args in seen:
            tr.count(counter)
        else:
            seen.add(args)
    return hook


def _poly_mul(prefix):
    def hook(tr, args, result):
        a, b = args
        na, nb = _nterms(a), _nterms(b)
        tr.count(prefix + ".term_pairs", na * nb)
        tr.peak(prefix + ".max_terms", max(na, nb, _nterms(result)))
    return hook


def _paths_out(tr, args, result):
    tr.count("tableaux.paths_out", len(result))


def _bareiss(tr, args, result):
    if len(tr.stack) > 1 and tr.stack[-2][0] == "center.matrix_rank":
        tr.count("center.rank_fallback")


def _divexact(tr, args, result):
    if result is None:
        tr.count("center.divexact.failed")


def _admissible(tr, args, result):
    if result:
        tr.count("blocks.is_admissible.true")


def _idempotent(tr, args, result):
    tr.count("idempotents.paths_evaluated", len(result.values))
    tr.count("idempotents.paths_selected",
             sum(1 for v in result.values.values() if v == 1))


HOOKS = {
    "tableaux.enumerate_lambda": _repeat("tableaux.enumerate_lambda.repeat"),
    "contentfn.signature": _repeat("contentfn.signature.repeat"),
    "tableaux.enumerate_paths": _paths_out,
    "scalars.LaurentQT.__mul__": _poly_mul("scalars.laurent_mul"),
    "wheelpoly.MultiLaurent.__mul__": _poly_mul("wheelpoly.multi_mul"),
    "center.bareiss_rank": _bareiss,
    "center.divexact": _divexact,
    "blocks.is_admissible": _admissible,
    "idempotents.spectral_idempotent": _idempotent,
}
