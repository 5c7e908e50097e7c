"""Proximal augmented Lagrangian, its gradient field, and ODE integration."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import RK45, OdeSolution
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
    """Flat-state ODE right-hand side of the flow."""

    def __init__(self, prob: SaddleProblem):
        self.prob = prob

    def __call__(self, t: float, flat: np.ndarray) -> np.ndarray:
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
    ``RK45``: ``step()`` advances to ``t = k·h`` after ``k`` steps, ``f``, the
    field at ``(t, y)``, is evaluated on first use and is then the next
    step's first stage, and ``nfev`` counts the field evaluations. A run takes
    ``n = ceil(t_end / h)`` steps, or ``n - 1`` when ``(n - 1)·h`` already
    reaches ``t_end``: ``t_end = T·h`` takes ``T`` however ``t_end / h`` rounds."""

    def __init__(self, fun: Callable, y0: np.ndarray, cfg: IntegratorConfig):
        self.fun, self.h, self.rk4 = fun, cfg.h, cfg.method == "rk4"
        self.n_steps = int(np.ceil(cfg.t_end / cfg.h))
        self.n_steps -= (self.n_steps - 1) * cfg.h >= cfg.t_end
        self.k, self.t, self.y, self._f = 0, 0.0, y0, None
        self.status, self.nfev = "running", 0

    @property
    def f(self) -> np.ndarray:
        if self._f is None:
            self.nfev += 1
            self._f = self.fun(self.t, self.y)
        return self._f

    def step(self) -> None:
        t, y, h, k1 = self.t, self.y, self.h, self.f
        if self.rk4:
            self.nfev += 3
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
                  events: Optional[list] = None, field: Optional[Callable] = None,
                  dense: bool = False) -> Trajectory:
    """Integrate a generic flat ODE with the configured method.

    Returns the run as a :class:`Trajectory` with no problem attached: its
    ``field_norm`` column, its termination (``"t_end"``, ``"event"`` or
    ``"max_steps"``) and ``meta`` with ``n_evals``, the stepper's calls of
    ``fun``, ``steps``, the accepted steps, and ``rejected``, the adaptive
    method's rejected attempts (0 for the others). The adaptive method is
    Dormand-Prince 4(5) (scipy's ``RK45``, stepped here) with
    error-controlled step rejection; fixed-step methods are forward Euler and
    classic RK4. Only every ``record_stride``-th accepted step and the last
    one are held. The field norms are taken from the field each step already
    holds at a kept sample; the one sample no step leaves it at (an event's
    end point, the last fixed-step sample) is evaluated with ``field(t, y)``,
    uncounted, which defaults to ``fun``. Events stop the run where they
    reach zero or below (``"event"``); the adaptive method locates the
    crossing on its step's dense output, and one that is there at ``t = 0``
    already stops the run before the first step, with one sample.
    ``max_steps`` caps the accepted steps of every method (``"max_steps"``).
    With ``dense`` (adaptive method only), ``meta["dense"]`` is the run's
    ``OdeSolution``: every accepted step's dense output, with breakpoints at
    every step's end, whatever the stride (absent for a run stopped at its
    start).
    """
    if dense and cfg.method != "rk45":
        raise ValueError("dense output needs the adaptive method rk45")
    y0 = np.asarray(y0, dtype=float)
    field = field or fun
    if events and any(ev(0.0, y0) <= 0 for ev in events):
        return Trajectory(np.array([0.0]), y0[None, :].copy(),
                          {"field_norm": np.array([np.linalg.norm(field(0.0, y0))])},
                          "event", meta={"n_evals": 0, "steps": 0, "rejected": 0})
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
    ends, pieces = [0.0], []
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
        rk45_hit = hit and cfg.method == "rk45"
        sol = stepper.dense_output() if dense or rk45_hit else None
        if hit:
            term = "event"
            if rk45_hit:
                tol = 4 * np.finfo(float).eps
                t = min(brentq(lambda s: ev(s, sol(s)), stepper.t_old, t,
                               xtol=tol, rtol=tol) for ev in hit)
                y = sol(t)
        elif stepper.status == "finished":
            term = "t_end"
        elif steps == cfg.max_steps:
            term = "max_steps"
        if dense:
            pieces.append(sol)
            ends.append(t)
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
    meta = {"n_evals": stepper.nfev, "steps": steps, "rejected": rejected}
    if dense:
        meta["dense"] = OdeSolution(ends, pieces)
    return Trajectory(np.array(times), states, {"field_norm": np.array(norms)}, term,
                      meta=meta)


def integrate(prob: SaddleProblem, s0: PrimalDualState, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the primal-dual flow from ``s0``.

    Terminates on ``t_end``; on ``stop_kkt``, once the KKT residual is at or
    below it (located by the adaptive integrator's event search; a start
    already there returns at once); or on ``max_steps``. The reason is
    recorded. With ``stop_kkt`` the ``kkt_residual`` column takes the
    event's values; only a located end point is evaluated again.
    """
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

    traj = integrate_ode(FlowField(prob), prob.pack(s0), cfg, events=events,
                         field=lambda t, y: prob.kernel.field(y))
    if events:
        kkt = [kkt_at[t] for t in traj.times]
        if traj.termination == "event" and cfg.method == "rk45":
            # located on the dense output, so not a state the event saw
            kkt[-1] = prob.kernel.kkt(traj.states[-1])
    else:
        kkt = [prob.kernel.kkt(u) for u in traj.states]
    if traj.termination == "event":
        traj.termination = "stop_kkt"
    traj.diagnostics = {"kkt_residual": np.array(kkt), **traj.diagnostics}
    traj.problem = prob
    traj.meta.update(method=cfg.method, alpha=prob.alpha,
                     packing="x-blocks, z-blocks, y-blocks, lam (column-major)")
    return traj
