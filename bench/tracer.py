"""Spans and counters around gfcap's public functions, from outside gfcap.

`install()` wraps each traced function and rebinds it in every gfcap module
namespace that holds it (for example `feedback.nonfeedback_capacity` and
`waterfill.psd_eval` as well as the defining module), so calls between
modules are seen.  `Tracer.restore()` puts the originals back.  Spans stay in
memory until `save()`; self time is derived from them afterwards.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _count_theta(tracer, args, kwargs):
    theta = kwargs["theta"] if "theta" in kwargs else args[1]
    tracer.counters["spectrum.psd_eval.points"] += int(np.size(theta))
    return args, kwargs


def _count_levels(tracer, args, kwargs):
    """mean_integral evaluates f once per refinement level."""
    f = kwargs["f"] if "f" in kwargs else args[0]
    counters = tracer.counters

    def counted(pts):
        counters["spectrum.mean_integral.levels"] += 1
        counters["spectrum.mean_integral.points"] += int(np.size(pts))
        return f(pts)

    if "f" in kwargs:
        return args, dict(kwargs, f=counted)
    return (counted,) + tuple(args[1:]), kwargs


def _count_key(tracer, args, kwargs):
    psd = kwargs["psd"] if "psd" in kwargs else args[0]
    power = kwargs["power"] if "power" in kwargs else args[1]
    tracer.capacity_keys.add((psd, float(power)))
    return args, kwargs


def _count_trials(tracer, args, kwargs):
    tracer.counters["simulator.simulate_transmission.trials"] += int(
        kwargs["trials"] if "trials" in kwargs else args[2])
    return args, kwargs


def _count_steps(tracer, args, kwargs):
    config = kwargs["config"] if "config" in kwargs else args[0]
    tracer.counters["simulator.variance_recursion.steps"] += int(config.horizon)
    return args, kwargs


# (module, function, hook) for every traced public function; the span name
# is "<module>.<function>".
TARGETS = (
    ("spectrum", "psd_eval", _count_theta),
    ("spectrum", "mean_integral", _count_levels),
    ("spectrum", "psd_zeros", None),
    ("spectrum", "sample_noise_path", None),
    ("waterfill", "nonfeedback_capacity", _count_key),
    ("feedback", "conjecture_check", None),
    ("feedback", "minimize_cy", None),
    ("feedback", "chen_yanagi_bound", None),
    ("feedback", "sk_root", None),
    ("simulator", "variance_recursion", _count_steps),
    ("simulator", "simulate_transmission", _count_trials),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, f, _ in TARGETS]
        self.name = []
        self.parent = []
        self.op = []
        self.start = []
        self.end = []
        self.stack = [-1]
        self.op_id = -1
        self.counters = defaultdict(int)
        self.capacity_keys = set()
        self._patched = []

    def _wrap(self, index, fn, hook):
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack

        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(self, args, kwargs)
            i = len(names)
            names.append(index)
            parents.append(stack[-1])
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target that is imported, in every gfcap namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gfcap" or n.startswith("gfcap."))]
        for index, (mod_name, fn_name, hook) in enumerate(TARGETS):
            home = sys.modules.get(f"gfcap.{mod_name}")
            if home is None or not hasattr(home, fn_name):
                continue
            orig = getattr(home, fn_name)
            wrapped = self._wrap(index, orig, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))

    def restore(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def arrays(self):
        return {"name": np.asarray(self.name, dtype=np.int32),
                "parent": np.asarray(self.parent, dtype=np.int64),
                "op": np.asarray(self.op, dtype=np.int64),
                "start": np.asarray(self.start),
                "end": np.asarray(self.end)}

    def save(self, path):
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())

    def summary(self):
        """Per-span-name calls, total and self time, plus the counters."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        inner = a["parent"] >= 0
        np.add.at(child, a["parent"][inner], dur[inner])
        selft = dur - child
        n = len(self.names)
        out = {}
        calls = np.bincount(a["name"], minlength=n)
        time_s = np.bincount(a["name"], weights=dur, minlength=n)
        self_s = np.bincount(a["name"], weights=selft, minlength=n)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.time_s"] = float(time_s[i])
            out[f"{name}.self_s"] = float(self_s[i])
        out.update(self.counters)
        out["waterfill.nonfeedback_capacity.distinct"] = len(self.capacity_keys)
        out["spans"] = len(dur)
        return out
