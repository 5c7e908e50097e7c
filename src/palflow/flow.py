"""Proximal augmented Lagrangian, its gradient field, and ODE integration."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .problem import PrimalDualState, SaddleProblem


class FlowError(RuntimeError):
    pass


def pal_value(prob: SaddleProblem, s: PrimalDualState) -> float:
    """Value of the proximal augmented Lagrangian at the state."""
    return float(prob.kernel.value(prob.pack(s)))


def pal_gradient(prob: SaddleProblem, s: PrimalDualState):
    """Partial gradients ``(gx, gz, gy, glam)`` of the proximal augmented
    Lagrangian; ``gx``, ``gz``, ``gy`` are block lists, ``glam`` is flat."""
    g = prob.unpack(prob.kernel.gradient(prob.pack(s)))
    return g.x, g.z, g.y, g.lam


def vector_field(prob: SaddleProblem, s: PrimalDualState) -> PrimalDualState:
    """Primal-descent dual-ascent field ``(-gx, -gz, a*gy, a*glam)``."""
    return prob.unpack(prob.kernel.field(prob.pack(s)))


def blockwise_field(prob: SaddleProblem, s: PrimalDualState) -> PrimalDualState:
    """Per-block form of the field: the multiplier derivative first, then the
    dual blocks, then the primal blocks reusing those derivatives."""
    a, mu = prob.alpha, prob.mu
    lam_dot = a * prob.constraint_residual(s.x, s.z)
    shift = s.lam + lam_dot / (a * mu)
    Et = prob.E.adjoint(shift)
    Ft = prob.F.adjoint(shift)
    prox_out = prob.prox_g([zj + mu * yj for zj, yj in zip(s.z, s.y)])
    y_dot = [a * (zj - pj) for zj, pj in zip(s.z, prox_out)]
    z_dot = [-(yj + yd / (a * mu)) - f for yj, yd, f in zip(s.y, y_dot, Ft)]
    x_dot = [-g - e for g, e in zip(prob.f_grad(s.x), Et)]
    return PrimalDualState(x_dot, z_dot, y_dot, lam_dot)


class FlowField:
    """Flat-state ODE right-hand side of the flow; counts its evaluations."""

    def __init__(self, prob: SaddleProblem):
        self.prob = prob
        self.n_evals = 0

    def __call__(self, t: float, flat: np.ndarray) -> np.ndarray:
        self.n_evals += 1
        return self.prob.kernel.field(flat)


@dataclass
class IntegratorConfig:
    method: str = "rk45"            # euler | rk4 | rk45
    h: Optional[float] = None       # fixed-step size
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    t_end: float = 10.0
    stop_kkt: Optional[float] = None
    max_steps: int = 10_000_000    # fixed-step methods only
    record_stride: int = 1

    def __post_init__(self):
        if self.method not in ("euler", "rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method in ("euler", "rk4") and (self.h is None or self.h <= 0):
            raise ValueError("fixed-step methods need a positive step h")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")


@dataclass
class Trajectory:
    """Time-stamped state sequence with per-sample diagnostics."""

    times: np.ndarray
    states: np.ndarray              # shape (len(times), state_dim), packing order
    diagnostics: dict
    termination: str
    problem: Optional[SaddleProblem] = None
    meta: dict = field(default_factory=dict)

    def state(self, i: int) -> PrimalDualState:
        return self.problem.unpack(self.states[i])

    def final_state(self) -> PrimalDualState:
        return self.state(len(self.times) - 1)

    def to_csv(self, path, extra_columns: Optional[dict] = None) -> None:
        cols = {"t": self.times}
        cols.update(self.diagnostics)
        if extra_columns:
            cols.update(extra_columns)
        names = list(cols)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(names)
            for i in range(len(self.times)):
                w.writerow([f"{cols[c][i]:.17g}" for c in names])

    def states_to_binary(self, path) -> None:
        """Full state snapshots as little-endian float64 in packing order."""
        with open(path, "wb") as fh:
            fh.write(np.ascontiguousarray(self.states, dtype="<f8").tobytes())


def _diagnostics(prob: SaddleProblem, states):
    kernel = prob.kernel
    return {"kkt_residual": np.array([kernel.kkt(u) for u in states]),
            "field_norm": np.array([np.linalg.norm(kernel.field(u)) for u in states])}


def integrate_ode(fun: Callable, y0: np.ndarray, cfg: IntegratorConfig,
                  events: Optional[list] = None):
    """Integrate a generic flat ODE with the configured method.

    Returns ``(times, states, termination)``. The adaptive method
    is Dormand-Prince 4(5) with error-controlled step rejection and dense
    event location; fixed-step methods are forward Euler and classic RK4.
    Every ``record_stride``-th step and the last one are kept. Events stop
    the run where they reach zero or below (``"event"``); one that is there
    at ``t = 0`` already stops it before the first step, with one sample. Only
    the fixed-step methods obey ``max_steps`` (``"max_steps"``).
    """
    y0 = np.asarray(y0, dtype=float)
    if events and any(ev(0.0, y0) <= 0 for ev in events):
        return np.array([0.0]), y0[None, :].copy(), "event"
    if cfg.method == "rk45":
        sol = solve_ivp(fun, (0.0, cfg.t_end), y0, method="RK45",
                        rtol=cfg.rel_tol, atol=cfg.abs_tol, events=events,
                        dense_output=False)
        if not sol.success and sol.status == -1:
            raise FlowError(f"stiff/failed: {sol.message}")
        if not np.all(np.isfinite(sol.y)):
            raise FlowError("non-finite state encountered")
        term = "event" if sol.status == 1 else "t_end"
        times, states = sol.t, sol.y.T
        if cfg.record_stride > 1:
            keep = np.unique(np.r_[np.arange(0, len(times), cfg.record_stride),
                                   len(times) - 1])
            times, states = times[keep], states[keep]
        return times, states, term

    h = cfg.h
    n_steps = int(np.ceil(cfg.t_end / h))
    term = "t_end"
    if n_steps > cfg.max_steps:
        n_steps, term = cfg.max_steps, "max_steps"
    times = [0.0]
    states = [y0.copy()]
    y = y0.copy()
    t = 0.0
    for k in range(n_steps):
        if cfg.method == "euler":
            y = y + h * fun(t, y)
        else:  # rk4
            k1 = fun(t, y)
            k2 = fun(t + h / 2, y + h / 2 * k1)
            k3 = fun(t + h / 2, y + h / 2 * k2)
            k4 = fun(t + h, y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = (k + 1) * h
        if not np.all(np.isfinite(y)):
            raise FlowError("non-finite state encountered")
        if (k + 1) % cfg.record_stride == 0 or k == n_steps - 1:
            times.append(t)
            states.append(y.copy())
        if events:
            hit = [ev(t, y) <= 0 for ev in events]
            if any(hit):
                term = "event"
                break
    return np.asarray(times), np.asarray(states), term


def integrate(prob: SaddleProblem, s0: PrimalDualState, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the primal-dual flow from ``s0``.

    Terminates on ``t_end``; on ``stop_kkt``, once the KKT residual is at or
    below it (located by the adaptive integrator's event search; a start
    already there returns at once); or, for the fixed-step methods only, on
    ``max_steps``. The reason is recorded.
    """
    ff = FlowField(prob)
    events = None
    if cfg.stop_kkt is not None:
        def kkt_event(t, y):
            return prob.kernel.kkt(y) - cfg.stop_kkt
        kkt_event.terminal = True
        kkt_event.direction = -1
        events = [kkt_event]

    times, states, term = integrate_ode(ff, prob.pack(s0), cfg, events=events)
    if term == "event":
        term = "stop_kkt"
    diag = _diagnostics(prob, states)
    return Trajectory(times=np.asarray(times), states=np.asarray(states),
                      diagnostics=diag, termination=term, problem=prob,
                      meta={"method": cfg.method, "alpha": prob.alpha,
                            "packing": "x-blocks, z-blocks, y-blocks, lam (column-major)",
                            "n_evals": ff.n_evals})
