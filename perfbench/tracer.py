"""Span tracing of metricflow's public functions, installed from outside.

The program carries no instrumentation of its own, so the tracer wraps the
functions listed in TARGETS after import.  Two details decide whether the
counts are exact:

* modules bind names with ``from .fields import diff_array``, so every
  loaded ``metricflow`` module whose attribute *is* the original function
  gets the wrapper, not only the defining module;
* the density normal operator is a closure returned by
  ``transport.wfr_normal_operator``, so that factory is wrapped to return a
  traced closure.

Spans go on a per-thread stack (the experiment pool runs trials on worker
threads) and into one in-memory list that the child process writes out when
the run ends.  ``summarize`` turns the span list into per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

# (module, attribute) pairs traced as plain functions; the span name is
# "<module>.<attribute>".
TARGETS = (
    ("cli", "main"),
    ("config", "load_config"),
    ("experiments", "run_experiment"),
    ("cg", "solve_spd"),
    ("fields", "diff_array"),
    ("fields", "sample_array"),
    ("tensors", "invert_displacement"),
    ("tensors", "lie_derivative_metric"),
    ("transport", "we_tangent_norm"),
    ("transport", "wfr_tangent_norm"),
    ("randomfields", "band_limited_values"),
    ("randomfields", "random_spd_metric"),
    ("fiber", "verify_pi1_submersion"),
    ("fiber", "optimal_lift"),
    ("divergences", "divergence"),
    ("flatmaps", "factorize_flat_metric"),
    ("serialization", "dumps_result"),
    ("serialization", "field_to_json"),
)

# Span fields, in the order they are stored and written out.
NAME, ID, PARENT, THREAD, START, END, EXTRA = range(7)


class Tracer:
    """Collects spans; ``install`` patches the loaded metricflow package."""

    def __init__(self):
        self.spans = []
        self.missing = []
        # itertools.count.__next__ and list.append are single C calls, so
        # worker threads can share them without a lock.
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else 0

    def call(self, name, fn, args, kwargs, parent=None, extra=None):
        """Run fn(*args, **kwargs) inside a span; extra(result) adds a number."""
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        value = None
        try:
            result = fn(*args, **kwargs)
            if extra is not None:
                value = extra(result)
            return result
        except Exception:
            value = -1
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (name, span_id, parent, threading.get_ident(), start, end, value)
            )

    def wrap(self, name, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra=extra)

        return traced

    def install(self, package="metricflow"):
        """Patch every binding of the traced functions in loaded modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]

        def patch_everywhere(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        def find(module_name, attr):
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
            return original

        extras = {
            "solve_spd": lambda res: res.iterations,
            "dumps_result": lambda text: len(text.encode("utf-8")),
            "field_to_json": lambda text: len(text.encode("utf-8")),
        }
        for module_name, attr in TARGETS:
            original = find(module_name, attr)
            if original is not None:
                patch_everywhere(
                    original, self.wrap(f"{module_name}.{attr}", original, extras.get(attr))
                )

        operator = find("transport", "MetricNormOperator")
        if operator is not None and "apply" in vars(operator):
            operator.apply = self.wrap("transport.we_apply", vars(operator)["apply"])
        elif operator is not None:
            self.missing.append("transport.MetricNormOperator.apply")

        factory = find("transport", "wfr_normal_operator")
        if factory is not None:
            @functools.wraps(factory)
            def traced_factory(*args, **kwargs):
                return self.wrap("transport.wfr_apply", factory(*args, **kwargs))

            patch_everywhere(factory, traced_factory)

        # Trials handed to the pool run on worker threads with empty stacks;
        # give each trial span the caller's span as parent.
        map_trials = find("experiments", "_map_trials")
        if map_trials is not None:
            @functools.wraps(map_trials)
            def traced_map(fn, args_list):
                parent = self.current()

                def trial(arg):
                    return self.call("experiments.trial", fn, (arg,), {}, parent=parent)

                return map_trials(trial, args_list)

            patch_everywhere(map_trials, traced_map)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per-span self time: duration minus the part covered by child spans."""
    children = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - _covered(children.get(s[ID], ()), s[START], s[END])
        for s in spans
    }


# Layers whose call count and self time are both reported.
TIMED = (
    "cg.solve_spd",
    "transport.we_apply",
    "transport.wfr_apply",
    "transport.we_tangent_norm",
    "transport.wfr_tangent_norm",
    "fields.diff_array",
    "fields.sample_array",
    "tensors.invert_displacement",
    "tensors.lie_derivative_metric",
    "randomfields.band_limited_values",
    "randomfields.random_spd_metric",
    "fiber.verify_pi1_submersion",
    "divergences.divergence",
    "flatmaps.factorize_flat_metric",
    "serialization.dumps_result",
)
SELF_ONLY = ("experiments.run_experiment", "config.load_config", "cli.main")
CALLS_ONLY = ("fiber.optimal_lift",)

# Metrics that count work; they must repeat exactly between runs of one input.
# serialization.bytes is not among them: the manifest carries its own wall
# time, whose printed length varies.
COUNTERS = tuple(f"{n}.calls" for n in TIMED + CALLS_ONLY) + (
    "cg.iters",
    "cg.iters_per_solve.max",
    "cg.failures",
)


def summarize(spans, wall_s):
    """Per-layer metrics of one traced process whose CLI call took wall_s."""
    own = self_times(spans)
    calls, self_s = {}, {}
    for s in spans:
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + own[s[ID]]
    solves = [s[EXTRA] for s in spans if s[NAME] == "cg.solve_spd"]
    trials = [s for s in spans if s[NAME] == "experiments.trial"]
    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in CALLS_ONLY:
        out[f"{name}.calls"] = calls.get(name, 0)
    out["cg.iters"] = sum(i for i in solves if i >= 0)
    out["cg.iters_per_solve.max"] = max((i for i in solves if i >= 0), default=0)
    out["cg.failures"] = sum(1 for i in solves if i < 0)
    out["serialization.bytes"] = sum(
        s[EXTRA] for s in spans
        if s[NAME] in ("serialization.dumps_result", "serialization.field_to_json")
        and s[EXTRA] is not None and s[EXTRA] >= 0
    )
    out["experiments.workers"] = len({s[THREAD] for s in trials})
    out["experiments.trial_overlap"] = (
        sum(s[END] - s[START] for s in trials) / wall_s if wall_s > 0 else 0.0
    )
    return out
