"""Span tracing of fse's layers, installed from outside the library.

The tracer rebinds module attributes: every place in a loaded fse module
(module globals and dict values such as the ``_ROUTES`` tables) that holds
one of the traced functions gets a wrapper that records a span.  Names
bound at import time (``from .numerics import log_gamma`` in foxh and
linear, ``from .foxh import eval_auto`` in delta and linear, the route
tables) are therefore wrapped as well as the defining module's copy.
``restore`` puts every original back.

A span is [name, parent, start, end, ok, info]; parent is the index of
the enclosing span or -1.  The loop is single-threaded, so spans nest and
a span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

NAME, PARENT, START, END, OK, INFO = range(6)


def _result_work(args, out):
    return None if out is None else out.work


def _tuple_count(args, out):
    return None if out is None else out[2]


def _log_gamma_args(args, out):
    z = args[0]
    if np.ndim(z) == 0:
        return ("scalar", complex(z).real)
    return ("array", int(np.size(z)))


# (span name, defining module, attribute, probe run on (args, result))
TRACED = (
    ("numerics.log_gamma", "fse.numerics", "log_gamma", _log_gamma_args),
    ("numerics.digamma", "fse.numerics", "digamma", None),
    ("foxh.eval_series", "fse.foxh", "eval_series", _result_work),
    ("foxh.eval_contour", "fse.foxh", "eval_contour", _result_work),
    ("foxh.eval_auto", "fse.foxh", "eval_auto", None),
    ("mittag.ml_series", "fse.mittag", "ml_series", _tuple_count),
    ("mittag.ml_contour", "fse.mittag", "ml_contour", _tuple_count),
    ("mittag.ml_eval", "fse.mittag", "ml_eval", None),
    ("quadrature.adaptive", "fse.quadrature", "adaptive", _tuple_count),
    ("quadrature.osc_semi_inf", "fse.quadrature", "osc_semi_inf", None),
    ("quadrature.tail_algebraic", "fse.quadrature", "tail_algebraic", None),
    ("quadrature.ray_segment", "fse.quadrature", "ray_segment", None),
    ("accel.euler_alternating", "fse.accel", "euler_alternating", None),
    ("delta.delta_closed_form", "fse.delta", "delta_closed_form", None),
    ("delta.delta_quadrature", "fse.delta", "delta_quadrature", None),
    ("linear.linear_closed_form", "fse.linear", "linear_closed_form", None),
    ("linear.linear_quadrature", "fse.linear", "linear_quadrature", None),
    ("time_factor.time_factor", "fse.time_factor", "time_factor", None),
)

# consumer copies bound at import time; install() fails if one is missed
CONSUMER_SITES = (
    ("fse.foxh", "log_gamma"), ("fse.linear", "log_gamma"),
    ("fse.foxh", "digamma"),
    ("fse.delta", "eval_auto"), ("fse.linear", "eval_auto"),
    ("fse.delta", "_ROUTES['auto']"), ("fse.linear", "_ROUTES['auto']"),
    ("fse.delta", "_ROUTES['series']"), ("fse.delta", "_ROUTES['contour']"),
    ("fse.time_factor", "ml_eval"),
    ("fse.delta", "osc_semi_inf"), ("fse.delta", "adaptive"),
    ("fse.delta", "tail_algebraic"), ("fse.linear", "ray_segment"),
    ("fse.quadrature", "euler_alternating"),
    ("fse", "delta_closed_form"), ("fse", "linear_closed_form"),
    ("fse", "time_factor"), ("fse", "delta_quadrature"),
    ("fse", "linear_quadrature"),
)


class Tracer:
    """Collects spans from wrapped functions; install/restore rebinding."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, probe=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False, None]
            stack.append(len(spans))
            spans.append(span)
            out = None
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                span[OK] = True
                return out
            finally:
                span[END] = perf_counter()
                stack.pop()
                if probe is not None:
                    span[INFO] = probe(args, out)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every binding of the traced functions in loaded fse modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, mod, attr, probe in TRACED:
            orig = getattr(sys.modules[mod], attr)
            wrappers[id(orig)] = (orig, self.wrap(name, orig, probe))

        def swap(holder, key, value, setter):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setter(holder, key, hit[1])
                self._patches.append((holder, key, value, setter))

        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "fse" or n.startswith("fse.")) and m is not None]
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if callable(value):
                    swap(mod, key, value, setattr)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        swap(value, k, v, dict.__setitem__)
        missed = [site for site in CONSUMER_SITES if not self.wraps(*site)]
        if missed:
            self.restore()
            raise RuntimeError("tracer missed consumer bindings: %s" % missed)

    def wraps(self, mod: str, attr: str) -> bool:
        """Whether the binding mod.attr (or mod.TABLE['key']) is wrapped now."""
        holder = sys.modules[mod]
        if "[" in attr:
            table, key = attr[:-2].split("['")
            value = getattr(holder, table)[key]
        else:
            value = getattr(holder, attr)
        return hasattr(value, "__wrapped__")

    def restore(self):
        for holder, key, value, setter in reversed(self._patches):
            setter(holder, key, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer counts, work and self times from one traced run."""
    own = self_times(spans)
    calls, self_s, work, refused = {}, {}, {}, {}
    for s, t in zip(spans, own):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        if not s[OK]:
            refused[name] = refused.get(name, 0) + 1
        elif isinstance(s[INFO], int):
            work[name] = work.get(name, 0) + s[INFO]

    m = {}
    lg = "numerics.log_gamma"
    lg_info = [s[INFO] for s in spans if s[NAME] == lg]
    scalar_re = [v for kind, v in lg_info if kind == "scalar"]
    m[lg + ".calls"] = calls.get(lg, 0)
    m[lg + ".self_s"] = self_s.get(lg, 0.0)
    m[lg + ".scalar_calls"] = len(scalar_re)
    m[lg + ".array_elems"] = sum(v for kind, v in lg_info if kind == "array")
    m[lg + ".calls_re_ge_0p5"] = sum(1 for v in scalar_re if v >= 0.5)
    m[lg + ".calls_re_m50_0p5"] = sum(1 for v in scalar_re if -50.0 <= v < 0.5)
    m[lg + ".calls_re_lt_m50"] = sum(1 for v in scalar_re if v < -50.0)
    m["numerics.digamma.calls"] = calls.get("numerics.digamma", 0)

    for name, unit in (("foxh.eval_series", "terms"),
                       ("foxh.eval_contour", "nodes")):
        m[name + ".calls"] = calls.get(name, 0)
        m[name + ".self_s"] = self_s.get(name, 0.0)
        m[name + "." + unit] = work.get(name, 0)
        m[name + ".refused"] = refused.get(name, 0)

    # series attempts made by eval_auto: hits, and time lost to refusals
    auto = "foxh.eval_auto"
    tries = hits = 0
    wasted = 0.0
    for s in spans:
        if s[NAME] == "foxh.eval_series" and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == auto:
            tries += 1
            if s[OK]:
                hits += 1
            else:
                wasted += s[END] - s[START]
    m[auto + ".calls"] = calls.get(auto, 0)
    m[auto + ".series_hit_frac"] = _frac(hits, tries)
    m[auto + ".wasted_series_s"] = wasted

    for name, unit in (("mittag.ml_series", "terms"),
                       ("mittag.ml_contour", "nodes"),
                       ("quadrature.adaptive", "panels")):
        m[name + ".calls"] = calls.get(name, 0)
        m[name + ".self_s"] = self_s.get(name, 0.0)
        m[name + "." + unit] = work.get(name, 0)

    # ml_eval returned by series when its series child was not followed
    # by a contour child
    children = {}
    for s in spans:
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "mittag.ml_eval":
            children.setdefault(s[PARENT], set()).add(s[NAME])
    with_series = [c for c in children.values() if "mittag.ml_series" in c]
    m["mittag.ml_eval.series_hit_frac"] = _frac(
        sum(1 for c in with_series if "mittag.ml_contour" not in c),
        len(with_series))

    for name in ("quadrature.osc_semi_inf", "quadrature.ray_segment",
                 "accel.euler_alternating"):
        m[name + ".calls"] = calls.get(name, 0)
        m[name + ".self_s"] = self_s.get(name, 0.0)
    m["quadrature.tail_algebraic.calls"] = calls.get("quadrature.tail_algebraic", 0)

    for name in ("delta.delta_closed_form", "linear.linear_closed_form",
                 "time_factor.time_factor", "delta.delta_quadrature",
                 "linear.linear_quadrature"):
        m[name + ".self_s"] = self_s.get(name, 0.0)
    return m
