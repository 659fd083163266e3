"""Span tracing of radcomp from outside: wrappers around the public functions
and methods of every layer module, installed and removed at run time.

radcomp binds names at import (`tau`, `acceptance` and `cli` import
`solve_profile` by name, `acceptance` keeps its criteria in a list), so a
wrapper only takes effect if every binding of the original is replaced.
`install` rebinds module attributes and the members of list or tuple
attributes, then verifies that no binding of an original is left.

A span is one call that crosses into a layer from another one. Calls inside
the layer that is already running pass straight through, so `cotk` called by
`radial_coefficient` is part of one spaceform span. Self time is a span's
duration minus the durations of its child spans. Every span is aggregated;
the first SPAN_CAP spans of each name in an op are also kept as records
(name, start, end, parent record, op id) and written out at the end.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("spaceform", "nonlinearity", "ode", "tau", "bounds", "closedform",
          "isoparametric", "output", "cli", "acceptance")
SPAN_CAP = 64
SOLVES = frozenset({"ode.solve_profile", "ode.solve_generic"})
DENSE = frozenset({"ode.ModelProfile.u", "ode.ModelProfile.du", "ode.ModelProfile.d2u"})
RHS = "nonlinearity.Nonlinearity.__call__"


def _targets():
    """(layer, name, owner, attribute, original) for each public function and
    method (plus __init__ and __call__) defined in a layer module."""
    for layer in LAYERS:
        mod = importlib.import_module(f"radcomp.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield layer, f"{layer}.{attr}", mod, attr, obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for mattr, meth in vars(obj).items():
                    if inspect.isfunction(meth) and (
                            not mattr.startswith("_") or mattr in ("__init__", "__call__")):
                        yield layer, f"{layer}.{attr}.{mattr}", obj, mattr, meth


class OpStats:
    """Counts and times of one op."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.calls = defaultdict(int)       # span name -> spans
        self.self_s = defaultdict(float)    # layer -> self time
        self.covered_s = defaultdict(float)  # layer -> time under its outermost spans
        self.top_s = defaultdict(float)     # span name -> time as a direct child of the op
        self.solves = self.admissible = self.rhs_calls = self.dense_points = 0
        self.dense_s = 0.0
        self.duration = 0.0

    def counts(self):
        """The counts that must repeat exactly for a given input."""
        return {"solves": self.solves, "admissible": self.admissible,
                "rhs_calls": self.rhs_calls, "dense_points": self.dense_points,
                "spaceform_calls": sum(v for k, v in self.calls.items()
                                       if k.startswith("spaceform."))}


class Tracer:
    def __init__(self):
        self.stack = []        # frames: [layer, child time, record index]
        self.records = []      # kept spans: [name, start, end, parent, op id]
        self.ops = []
        self._op = None
        self._depth = defaultdict(int)
        self._solving = 0
        self._undo = []
        self._targets = []
        self._wrapped = {}     # id(original) -> (original, wrapper)

    # -- ops -------------------------------------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Run fn(*args) as one traced op; returns its result."""
        self._op = OpStats(op_id)
        self.stack.append(["bench", 0.0, None])
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._op.duration = perf_counter() - t0
            frame = self.stack.pop()
            self._op.self_s["bench"] += self._op.duration - frame[1]
            self.ops.append(self._op)
            self._op = None

    def _call(self, fn, layer, name, args, kwargs):
        op = self._op
        top = len(self.stack) == 1
        parent = self.stack[-1][2]
        n = op.calls[name] = op.calls[name] + 1
        rec = None
        if n <= SPAN_CAP:
            rec = len(self.records)
            self.records.append([name, 0.0, 0.0, parent, op.op_id])
        frame = [layer, 0.0, rec if rec is not None else parent]
        self.stack.append(frame)
        self._depth[layer] += 1
        solve = name in SOLVES
        if solve:
            self._solving += 1
            op.solves += 1
        elif name == RHS and self._solving:
            op.rhs_calls += 1
        elif name in DENSE:
            op.dense_points += int(np.size(args[1])) if len(args) > 1 else 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if solve and getattr(result, "admissible", False):
                op.admissible += 1
            return result
        finally:
            dur = perf_counter() - t0
            self.stack.pop()
            self._depth[layer] -= 1
            if solve:
                self._solving -= 1
            op.self_s[layer] += dur - frame[1]
            self.stack[-1][1] += dur
            if not self._depth[layer]:
                op.covered_s[layer] += dur
            if top:
                op.top_s[name] += dur
            if name in DENSE:
                op.dense_s += dur
            if rec is not None:
                self.records[rec][1:3] = [t0, t0 + dur]

    # -- patching --------------------------------------------------------------------

    def _wrap(self, fn, layer, name):
        stack, call = self.stack, self._call

        def wrapper(*args, **kwargs):
            if not stack or stack[-1][0] == layer:
                return fn(*args, **kwargs)
            return call(fn, layer, name, args, kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self):
        """Wrap every target and rebind every module-level binding of it, also
        inside list, tuple and dict attributes (acceptance._CRITERIA,
        nonlinearity._FAMILIES)."""
        self._targets = list(_targets())
        self._wrapped = {}
        for layer, name, owner, attr, orig in self._targets:
            self._wrapped[id(orig)] = (orig, self._wrap(orig, layer, name))
            self._set(owner, attr, self._wrapped[id(orig)][1])
        for mod in _radcomp_modules():
            for attr, val in list(vars(mod).items()):
                if isinstance(val, (list, dict)):
                    for key in (range(len(val)) if isinstance(val, list) else list(val)):
                        new = self._rebind(val[key])
                        if new is not val[key]:
                            self._set(val, key, new)
                else:
                    new = self._rebind(val)
                    if new is not val:
                        self._set(mod, attr, new)
        left = self.unpatched()
        if left:
            self.uninstall()
            raise RuntimeError(f"tracing left bindings of the originals: {left}")
        return len(self._targets)

    def _rebind(self, val, depth=0):
        """val with its wrapper in place of an original, looking into tuples."""
        hit = self._wrapped.get(id(val))
        if hit is not None and hit[0] is val:
            return hit[1]
        if depth == 0 and isinstance(val, tuple):
            new = tuple(self._rebind(v, 1) for v in val)
            if any(a is not b for a, b in zip(new, val)):
                return new
        return val

    def unpatched(self):
        """Module attributes (or their members) that still bind an original."""
        left = []
        for mod in _radcomp_modules():
            for attr, val in vars(mod).items():
                members = val.values() if isinstance(val, dict) else (
                    val if isinstance(val, list) else [val])
                if any(self._rebind(v) is not v for v in members):
                    left.append(f"{mod.__name__}.{attr}")
        return left

    def uninstall(self):
        for owner, key, old in reversed(self._undo):
            if isinstance(owner, (list, dict)):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._undo = []
        for layer, name, owner, attr, orig in self._targets:
            if vars(owner)[attr] is not orig:
                raise RuntimeError(f"{name} is still wrapped after uninstall")

    def _set(self, owner, key, value):
        if isinstance(owner, (list, dict)):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    # -- results -----------------------------------------------------------------------

    def dump(self):
        """Kept span records and per-op aggregates, for writing out after the run."""
        return {"spans": self.records,
                "ops": [{"op": s.op_id, "duration_s": s.duration, "calls": dict(s.calls),
                         "self_s": dict(s.self_s), "counts": s.counts()} for s in self.ops]}


def _radcomp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "radcomp" or name.startswith("radcomp."))]
