"""Spans and counters around the package's public functions, from outside it.

A wrapper replaces a function in every module of the package that holds it,
so a call is seen wherever its caller looks the name up: run_sweep's call to
``experiments.allocate`` as much as the benchmark's own call to
``allocator.allocate``. A name missing from its module is reported as absent.
"""

from __future__ import annotations

import sys
from time import perf_counter

PACKAGE = "ofdm_bitload"

# (module, function): the calls each layer receives. Counters below turn a
# call's result into a count of the work it did.
TRACED = (
    ("config", "updated"), ("config", "validate"),
    ("channel", "draw_realization"),
    ("link", "sinr"), ("link", "ber"),
    ("allocator", "allocate"),
    ("interference", "analytic_variance"), ("interference", "calibrated_profile"),
    ("interference", "synthesize_nb_blocks"), ("interference", "mc_variance"),
    ("experiments", "trial_stream"), ("experiments", "run_trial"),
    ("experiments", "run_sweep"),
    ("verifier", "measure_ber"), ("verifier", "gaussian_premise_report"),
)

COUNTERS = {
    "allocator.allocate": ("allocator.iterations", lambda r: r.iterations),
    "interference.synthesize_nb_blocks": ("interference.synthesize_nb_blocks.blocks",
                                          lambda r: r.shape[0]),
    "verifier.measure_ber": ("verifier.measure_ber.bits", lambda r: r.bits_sent),
}


def patch(targets, make_wrapper):
    """Wrap each (module, name) everywhere the package binds it.

    Returns (restore, absent): a callable that puts the originals back, and
    the dotted names that do not exist.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    undo, absent = [], []
    for module_name, name in targets:
        home = sys.modules.get(f"{PACKAGE}.{module_name}")
        original = getattr(home, name, None) if home is not None else None
        if not callable(original):
            absent.append(f"{module_name}.{name}")
            continue
        wrapper = make_wrapper(f"{module_name}.{name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    def restore():
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)

    return restore, absent


class Tracer:
    """Spans (name, start, end, parent index) kept in memory, plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.stack = []

    def wrapper(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                key, count = counter
                counts[key] = counts.get(key, 0) + count(result)
            return result

        return traced

    def install(self):
        return patch(TRACED, self.wrapper)

    def layer_metrics(self):
        """Per-function call counts and self time, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for module, name in TRACED:
            out[f"{module}.{name}.calls"] = 0
            out[f"{module}.{name}.self_s"] = 0.0
        for (name, start, end, _parent), inner in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - inner
        for key, _count in COUNTERS.values():
            out[key] = self.counts.get(key, 0)
        return out


class Capture:
    """Records the arguments and result of each call to the wrapped names."""

    def __init__(self, targets):
        self.targets = targets
        self.calls = []

    def wrapper(self, name, fn):
        calls = self.calls

        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((name, args, kwargs, result))
            return result

        return captured

    def install(self):
        return patch(self.targets, self.wrapper)
