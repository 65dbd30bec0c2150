"""Spans around the package's public functions, for the traced run.

Each wrapped function is replaced by patching the module attribute its
callers look it up through (``fluidcell.channel.marcum_q1``, not
``fluidcell.numerics.marcum_q1``, because ``channel`` imported the
name). A span records name, start, end and the span that was open when
it started; self time is a span's duration minus its direct children's.
Spans stay in memory until the run writes them out.

The tracer keeps one stack of open spans, so it is only valid with one
thread calling into the package; the benchmark pins every worker count
to one and removes the patches before its two-worker check.
"""

import time

import numpy as np


class TraceError(RuntimeError):
    """A wrapped name is missing or a required function was never called."""


def _marcum_evals(args, kwargs):
    return int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)


def _plan_trials(args, kwargs):
    return int(args[0].num_trials)


def _outage_mode(args, kwargs):
    return "perport" if kwargs.get("mode") == "per-port-gamma" else "common"


# (module, attribute, span name, per-call quantity or None)
TARGETS = (
    ("fluidcell.channel", "marcum_q1", "numerics.marcum_q1", _marcum_evals),
    ("fluidcell.channel", "integrate_finite", "numerics.integrate_finite",
     None),
    ("fluidcell.outage", "integrate_finite", "numerics.integrate_finite",
     None),
    ("fluidcell.outage", "joint_magnitude_cdf", "channel.joint_magnitude_cdf",
     None),
    ("fluidcell.outage", "correlation_profile", "channel.correlation_profile",
     None),
    ("fluidcell.outage", "gamma_interference_model",
     "field.gamma_interference_model", None),
    ("fluidcell.outage", "outage_thresholds", "outage.outage_thresholds",
     None),
    ("fluidcell.cli", "outage_probability", "outage.outage_probability",
     None),
    ("fluidcell.cli", "averaged_outage_bounds",
     "outage.averaged_outage_bounds", None),
    ("fluidcell.cli", "estimate_outage", "mc.estimate_outage", _plan_trials),
    ("fluidcell.mc", "sample_serving_distance", "mc.sample_serving_distance",
     None),
    ("fluidcell.cli", "run_sweep", "cli.run_sweep", None),
    ("fluidcell.cli", "write_rows", "cli.write_rows", None),
    ("fluidcell.cli", "load_config", "cli.load_config", None),
)


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, quantity]
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, quantity):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name
            if name == "outage.outage_probability":
                label = f"{name}.{_outage_mode(args, kwargs)}"
            amount = quantity(args, kwargs) if quantity else 0
            index = len(spans)
            span = [label, clock(), 0.0, stack[-1] if stack else -1, amount]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules):
        for module_name, attr, name, quantity in TARGETS:
            module = modules[module_name]
            if not hasattr(module, attr):
                self.remove()
                raise TraceError(f"{module_name}.{attr} is missing")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, quantity))

    def remove(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self):
        """Per span name: calls, summed quantity, total and self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for index, (name, start, end, _, amount) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"calls": 0, "quantity": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["quantity"] += amount
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out
