"""Per-layer call counts and self time, recorded from outside the program.

Tracer.install wraps the public functions of ppgf's layer modules and the
public and arithmetic methods of their main classes, and puts each
wrapper into every ppgf namespace that holds the original (engine and
recurrence import rf_sum by name; RationalFunction reaches exact_div
through the algebra module's globals).  A wrapper counts calls, counts
results that are not None (exact_div returns None when a division is not
exact), and accumulates self time: its own duration minus the time of the
wrapped calls made inside it.

The innermost helpers in UNWRAPPED stay unwrapped: the monomial
functions and the poset's order queries make up to millions of calls per
pass, and wrapping them inflates the run and skews their callers' self
times.  Their cost counts as their callers' self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "recurrence", "engine", "poset", "algebra", "oracle")
CLASSES = {"algebra": ("Polynomial", "RationalFunction"),
           "poset": ("Poset",),
           "recurrence": ("RecurrenceSystem",)}
ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__")
UNWRAPPED = frozenset(
    ["algebra." + f for f in ("mono", "mono_var", "mono_mul", "mono_pow",
                              "mono_deg", "mono_subst", "mono_str",
                              "Polynomial.is_zero")]
    + ["poset.Poset." + f for f in ("lt", "above", "below", "comparable",
                                    "upper_covers", "lower_covers")])


class Stat:
    __slots__ = ("calls", "ok", "self_s")

    def __init__(self):
        self.calls = 0
        self.ok = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {}
        # open spans' accumulated child time; the bottom entry is untraced
        self._child_time = [0.0]
        self._undo = []

    def snapshot(self):
        return {name: (s.calls, s.ok, s.self_s) for name, s in self.stats.items()}

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        child_time = self._child_time
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # the work of a generator happens when it is resumed, so each
            # resumption is a span of its own
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        child_time.append(0.0)
                        start = clock()
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        finally:
                            elapsed = clock() - start
                            stat.self_s += elapsed - child_time.pop()
                            child_time[-1] += elapsed
                        yield value
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.self_s += elapsed - child_time.pop()
                child_time[-1] += elapsed
            if result is not None:
                stat.ok += 1
            return result

        return wrapper

    def install(self, package="ppgf"):
        """Wrap every traced function of the imported package."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["%s.%s" % (package, layer)]
            for attr, obj in vars(mod).items():
                name = "%s.%s" % (layer, attr)
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[obj] = self._wrap(name, obj)
            for cls_name in CLASSES.get(layer, ()):
                self._install_class(layer, getattr(mod, cls_name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def _install_class(self, layer, cls):
        wrappers = {}
        for attr, obj in list(vars(cls).items()):
            fn = obj.__func__ if isinstance(obj, classmethod) else obj
            if not inspect.isfunction(fn):
                continue
            name = "%s.%s" % (layer, fn.__qualname__)
            if (fn not in wrappers and name not in UNWRAPPED
                    and (attr in ARITHMETIC or not attr.startswith("_"))):
                wrappers[fn] = self._wrap(name, fn)
        for attr, obj in list(vars(cls).items()):
            fn = obj.__func__ if isinstance(obj, classmethod) else obj
            if fn in wrappers:
                wrapped = wrappers[fn]
                if isinstance(obj, classmethod):
                    wrapped = classmethod(wrapped)
                self._undo.append((cls, attr, obj))
                setattr(cls, attr, wrapped)

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)
