"""Timing spans recorded from outside palflow.

:class:`Tracer` replaces the public functions and methods of the palflow
layers (and the names their callers look up) with wrappers that record one
span per call: name, start, end and the enclosing span. Spans are kept in
flat in-memory arrays and turned into a :class:`Spans` table when a phase
ends. ``remove`` puts every original back.

Nothing in ``src/`` is edited: the wrappers exist only while a traced run
holds the tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("problem", "linops", "prox", "flow", "distributed", "examples",
          "diagnostics")

# Helpers cheaper than a span; their time stays in the caller's span.
UNWRAPPED = {"linops.vec", "linops.unvec"}

SOLVE_IVP = "flow.solve_ivp"
IVP_FUN = "flow.solve_ivp.fun"
IVP_EVENT = "flow.solve_ivp.event"
RK_STEP = "scipy.rk_step"            # one per attempted step
ODE_STEP = "scipy.OdeSolver.step"    # one per accepted step


def patch_targets():
    """``(owner, attribute, object, span name)`` for every callable the
    tracer replaces; a function imported into several palflow modules is
    listed once per module that holds it."""
    mods = {layer: importlib.import_module(f"palflow.{layer}") for layer in LAYERS}
    holders = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "palflow" or n.startswith("palflow."))]
    out = []
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj) and name not in UNWRAPPED:
                out += [(h, a, obj, name) for h in holders
                        for a, o in vars(h).items() if o is obj]
            elif inspect.isclass(obj):
                out += [(obj, m, f, f"{name}.{m}") for m, f in vars(obj).items()
                        if inspect.isfunction(f)
                        and (not m.startswith("_") or m == "__call__")]
    from scipy.integrate import OdeSolver
    from scipy.integrate._ivp import rk
    out.append((mods["flow"], "solve_ivp", mods["flow"].solve_ivp, SOLVE_IVP))
    out.append((rk, "rk_step", rk.rk_step, RK_STEP))
    out.append((OdeSolver, "step", OdeSolver.step, ODE_STEP))
    return out


class Tracer:
    """Install span wrappers, collect spans per phase, and restore."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._name, self._t0 = array("q"), array("q")
        self._t1, self._parent = array("q"), array("q")
        self._stack = [-1]
        self.solver_bytes: list = []   # ``sol.y.nbytes`` of each solve_ivp call
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str, copy_meta: bool = True):
        nid = self._id(name)
        names, t0s, t1s, parents, stack = (self._name, self._t0, self._t1,
                                           self._parent, self._stack)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            t1s.append(0)
            stack.append(i)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn) if copy_meta else wrapper

    def _solve_ivp(self, fn):
        """Wrap ``solve_ivp`` so that the right-hand side and the event
        functions it is handed become spans of their own."""

        def solve_ivp(fun, t_span, y0, *args, **kwargs):
            fun = self._span(fun, IVP_FUN, copy_meta=False)
            if kwargs.get("events") is not None:
                wrapped = []
                for ev in kwargs["events"]:
                    w = self._span(ev, IVP_EVENT, copy_meta=False)
                    for attr in ("terminal", "direction"):
                        if hasattr(ev, attr):
                            setattr(w, attr, getattr(ev, attr))
                    wrapped.append(w)
                kwargs["events"] = wrapped
            sol = fn(fun, t_span, y0, *args, **kwargs)
            self.solver_bytes.append(int(sol.y.nbytes))
            return sol

        return self._span(functools.update_wrapper(solve_ivp, fn), SOLVE_IVP)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, obj, name in patch_targets():
            if id(obj) not in wrappers:
                wrappers[id(obj)] = (self._solve_ivp(obj) if name == SOLVE_IVP
                                     else self._span(obj, name))
            self._saved.append((owner, attr, obj))
            setattr(owner, attr, wrappers[id(obj)])

    def remove(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def take(self) -> "Spans":
        """Spans recorded since the last call; the store starts empty again."""
        if len(self._stack) != 1:
            raise RuntimeError("cannot take spans while a span is open")
        cols = [np.frombuffer(a, dtype=np.int64).copy() if len(a) else
                np.empty(0, dtype=np.int64)
                for a in (self._name, self._t0, self._t1, self._parent)]
        for a in (self._name, self._t0, self._t1, self._parent):
            del a[:]
        spans = Spans(list(self.names), *cols, solver_bytes=self.solver_bytes)
        self.solver_bytes = []
        return spans


class Spans:
    """One phase's spans: per-name totals, counts and self times."""

    def __init__(self, names, name, t0, t1, parent, solver_bytes=()):
        self.names, self.name, self.parent = names, name, parent
        self.t0 = t0
        self.dur = (t1 - t0) * 1e-9
        self.solver_bytes = list(solver_bytes)
        child = np.zeros(len(self.dur))
        has = parent >= 0
        np.add.at(child, parent[has], self.dur[has])
        self.self_dur = self.dur - child

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self._mask(name)))

    def total(self, name: str) -> float:
        return float(np.sum(self.dur[self._mask(name)]))

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self._mask(name)]

    def self_durations(self, name: str) -> np.ndarray:
        return self.self_dur[self._mask(name)]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=self.name,
                 start_ns=self.t0, dur_s=self.dur, parent=self.parent)
