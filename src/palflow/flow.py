"""Proximal augmented Lagrangian, its gradient field, and ODE integration."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import RK45
from scipy.integrate import solve_ivp  # noqa: F401  palbench's tracer looks up flow.solve_ivp
from scipy.optimize import brentq

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
    max_steps: int = 10_000_000
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


class _FixedStep:
    """Forward Euler or classic RK4 with step ``h``, driven like scipy's
    ``RK45``: ``step()`` advances to ``t = k·h`` after ``k`` steps, and ``f``,
    the field at ``(t, y)``, is evaluated on first use and is then the next
    step's first stage."""

    def __init__(self, fun: Callable, y0: np.ndarray, cfg: IntegratorConfig):
        self.fun, self.h, self.rk4 = fun, cfg.h, cfg.method == "rk4"
        self.n_steps = int(np.ceil(cfg.t_end / cfg.h))
        self.k, self.t, self.y, self._f = 0, 0.0, y0, None
        self.status = "running"

    @property
    def f(self) -> np.ndarray:
        if self._f is None:
            self._f = self.fun(self.t, self.y)
        return self._f

    def step(self) -> None:
        t, y, h, k1 = self.t, self.y, self.h, self.f
        if self.rk4:
            k2 = self.fun(t + h / 2, y + h / 2 * k1)
            k3 = self.fun(t + h / 2, y + h / 2 * k2)
            k4 = self.fun(t + h, y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        else:
            y = y + h * k1
        self.k += 1
        self.t, self.y, self._f = self.k * h, y, None
        if self.k == self.n_steps:
            self.status = "finished"


def integrate_ode(fun: Callable, y0: np.ndarray, cfg: IntegratorConfig,
                  events: Optional[list] = None, field: Optional[Callable] = None):
    """Integrate a generic flat ODE with the configured method.

    Returns ``(times, states, field_norms, termination, steps, rejected)``.
    The adaptive method is Dormand-Prince 4(5) (scipy's ``RK45``, stepped
    here) with error-controlled step rejection; fixed-step methods are
    forward Euler and classic RK4. Only every ``record_stride``-th accepted
    step and the last one are held. ``field_norms`` are the norms of the
    field at the kept samples, taken from the field each step already holds
    there; the one sample no step leaves it at (an event's end point, the
    last fixed-step sample) is evaluated with ``field(t, y)``, uncounted,
    which defaults to ``fun``. Events stop the run where they reach zero or
    below (``"event"``); the adaptive method locates the crossing on its
    step's dense output, and one that is there at ``t = 0`` already stops the
    run before the first step, with one sample. ``max_steps`` caps the
    accepted steps of every method (``"max_steps"``); ``steps`` counts them,
    and ``rejected`` the adaptive method's rejected attempts (0 for the
    others).
    """
    y0 = np.asarray(y0, dtype=float)
    field = field or fun
    if events and any(ev(0.0, y0) <= 0 for ev in events):
        return (np.array([0.0]), y0[None, :].copy(),
                np.array([np.linalg.norm(field(0.0, y0))]), "event", 0, 0)
    if cfg.method == "rk45":
        stepper = RK45(fun, 0.0, y0, cfg.t_end, rtol=cfg.rel_tol, atol=cfg.abs_tol)
    else:
        stepper = _FixedStep(fun, y0, cfg)
    # The kept states share one buffer that grows in place (for large
    # buffers, realloc moves pages rather than copying them), so a run holds
    # its samples once: no list of them next to their stacked copy.
    states = np.empty((64, y0.size))
    states[0] = y0
    times, norms = [0.0], [np.linalg.norm(stepper.f)]
    steps, term = 0, None
    while term is None:
        message = stepper.step()
        if stepper.status == "failed":
            raise FlowError(f"stiff/failed: {message}")
        steps += 1
        t, y = stepper.t, stepper.y
        if not np.all(np.isfinite(y)):
            raise FlowError("non-finite state encountered")
        hit = [ev for ev in events or () if ev(t, y) <= 0]
        if hit:
            term = "event"
            if cfg.method == "rk45":
                sol, tol = stepper.dense_output(), 4 * np.finfo(float).eps
                t = min(brentq(lambda s: ev(s, sol(s)), stepper.t_old, t,
                               xtol=tol, rtol=tol) for ev in hit)
                y = sol(t)
        elif stepper.status == "finished":
            term = "t_end"
        elif steps == cfg.max_steps:
            term = "max_steps"
        if term is None and steps % cfg.record_stride:
            continue
        if len(times) == len(states):
            # no view of the buffer exists, so it may move
            states.resize((len(states) * 5 // 4, y0.size), refcheck=False)
        states[len(times)] = y
        times.append(t)
        # the field at an accepted state is at hand: RK45's last stage, or
        # the first stage of the fixed-step method's next step
        at_hand = term is None or (cfg.method == "rk45" and term != "event")
        norms.append(np.linalg.norm(stepper.f if at_hand else field(t, y)))
    states.resize((len(times), y0.size), refcheck=False)
    # RK45 evaluates the field once at the start, once for its first step
    # size, and six times per attempted step
    rejected = (stepper.nfev - 2) // 6 - steps if cfg.method == "rk45" else 0
    return np.array(times), states, np.array(norms), term, steps, rejected


def integrate(prob: SaddleProblem, s0: PrimalDualState, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the primal-dual flow from ``s0``.

    Terminates on ``t_end``; on ``stop_kkt``, once the KKT residual is at or
    below it (located by the adaptive integrator's event search; a start
    already there returns at once); or on ``max_steps``. The reason is
    recorded. With ``stop_kkt`` the ``kkt_residual`` column takes the
    event's values; only a located end point is evaluated again.
    """
    ff = FlowField(prob)
    events = None
    # the event's residual at each time it first sees: the start and every
    # accepted step come before any root-search point at the same time
    kkt_at = {}
    if cfg.stop_kkt is not None:
        def kkt_event(t, y):
            k = prob.kernel.kkt(y)
            kkt_at.setdefault(t, k)
            return k - cfg.stop_kkt
        events = [kkt_event]

    times, states, norms, term, steps, rejected = integrate_ode(
        ff, prob.pack(s0), cfg, events=events,
        field=lambda t, y: prob.kernel.field(y))
    if events:
        kkt = [kkt_at[t] for t in times]
        if term == "event" and cfg.method == "rk45":
            # located on the dense output, so not a state the event saw
            kkt[-1] = prob.kernel.kkt(states[-1])
    else:
        kkt = [prob.kernel.kkt(u) for u in states]
    if term == "event":
        term = "stop_kkt"
    diag = {"kkt_residual": np.array(kkt), "field_norm": norms}
    return Trajectory(times=times, states=states,
                      diagnostics=diag, termination=term, problem=prob,
                      meta={"method": cfg.method, "alpha": prob.alpha,
                            "packing": "x-blocks, z-blocks, y-blocks, lam (column-major)",
                            "n_evals": ff.n_evals, "steps": steps,
                            "rejected": rejected})
