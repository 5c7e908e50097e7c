"""Lyapunov functions, the dual function, distances, and rate fitting."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .flow import pal_gradient, pal_value, vector_field
from .linops import vec
from .problem import PrimalDualState, SaddleProblem


@dataclass
class ReferenceSolution:
    """A saddle point together with the optimal objective value."""

    state: Optional[PrimalDualState]
    optimal_value: Optional[float] = None
    meta: dict = dataclass_field(default_factory=dict)

    @classmethod
    def from_state(cls, prob: SaddleProblem, s: PrimalDualState) -> "ReferenceSolution":
        return cls(state=s, optimal_value=prob.objective(s.x, s.z))


def _diff_sq(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> float:
    return float(sum(np.sum((np.asarray(u) - np.asarray(v)) ** 2) for u, v in zip(a, b)))


def lyapunov_v1(prob: SaddleProblem, s: PrimalDualState, ref: ReferenceSolution,
                alpha: Optional[float] = None) -> float:
    """Quadratic distance function weighting the primal blocks by the dual
    time constant: ``(1/2)(a||x-x*||^2 + a||z-z*||^2 + ||y-y*||^2 +
    ||lam-lam*||^2)``."""
    a = prob.alpha if alpha is None else alpha
    r = ref.state
    return 0.5 * (a * _diff_sq(s.x, r.x) + a * _diff_sq(s.z, r.z)
                  + _diff_sq(s.y, r.y) + float(np.sum((s.lam - r.lam) ** 2)))


def lyapunov_v1_derivative(prob: SaddleProblem, s: PrimalDualState,
                           ref: ReferenceSolution,
                           alpha: Optional[float] = None) -> float:
    """Exact time derivative of the quadratic function along the flow,
    ``<grad V1, field>`` evaluated in closed form."""
    a = prob.alpha if alpha is None else alpha
    r = ref.state
    d = vector_field(prob, s, alpha=a)
    out = a * sum(float(np.sum((xi - ri) * di)) for xi, ri, di in zip(s.x, r.x, d.x))
    out += a * sum(float(np.sum((zi - ri) * di)) for zi, ri, di in zip(s.z, r.z, d.z))
    out += sum(float(np.sum((yi - ri) * di)) for yi, ri, di in zip(s.y, r.y, d.y))
    out += float(np.sum((s.lam - r.lam) * d.lam))
    return out


def decay_bound(prob: SaddleProblem, s: PrimalDualState, ref: ReferenceSolution,
                alpha: Optional[float] = None) -> float:
    """Negative semidefinite upper bound on the derivative of the quadratic
    function: ``-(a / max(L_f, mu)) (||grad f(x) - grad f(x*)||^2 +
    ||g_y||^2 + ||g_lam||^2)``."""
    a = prob.alpha if alpha is None else alpha
    gf = prob.f_grad(s.x)
    gf_star = prob.f_grad(ref.state.x)
    _, _, gy, glam = pal_gradient(prob, s)
    total = _diff_sq(gf, gf_star)
    total += float(sum(np.sum(np.asarray(g) ** 2) for g in gy))
    total += float(np.sum(glam ** 2))
    return -a / max(prob.L_f, prob.mu) * total


# ---------------------------------------------------------------------------
# accelerated gradient with adaptive restart

def accelerated_gradient(grad: Callable, prox_step: Callable, L: float,
                         x0: np.ndarray, tol: float, max_iters: int):
    """FISTA (Beck & Teboulle 2009) with the gradient-mapping adaptive
    restart of O'Donoghue & Candes (2015): one gradient and one prox per
    iteration, ``x+ = prox_step(1/L, v - grad(v)/L)`` from the extrapolated
    point ``v``; the momentum is dropped (``theta = 1, v = x+``) when
    ``<v - x+, x+ - x> > 0``.

    Returns ``(v, iterations, residual)`` for the last extrapolated point
    ``v`` and its fixed-point residual ``L ||v - x+||``: the first ``v`` with
    a residual at most ``tol``, or the one at the iteration cap. The caller
    tests the residual (a NaN one means the solve failed).
    """
    x = v = np.array(x0, dtype=float)
    theta = 1.0
    for it in range(1, max_iters + 1):
        x_new = prox_step(1.0 / L, v - grad(v) / L)
        d = v - x_new
        resid = L * float(np.linalg.norm(d))
        if resid <= tol or it == max_iters:
            return v, it, resid
        if np.vdot(d, x_new - x) > 0.0:
            theta, v = 1.0, x_new
        else:
            theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta ** 2))
            v = x_new + ((theta - 1.0) / theta_new) * (x_new - x)
            theta = theta_new
        x = x_new
    return v, 0, np.inf


# ---------------------------------------------------------------------------
# dual function

@dataclass
class DualEval:
    value: float
    x: List[np.ndarray]
    z: List[np.ndarray]
    grad_y: List[np.ndarray]
    grad_lam: np.ndarray
    iterations: int
    grad_norm_inner: float

    def grad_flat(self) -> np.ndarray:
        return np.concatenate([vec(g) for g in self.grad_y] + [self.grad_lam])


class DualSolveError(RuntimeError):
    pass


def dual_function(prob: SaddleProblem, y: Sequence[np.ndarray], lam: np.ndarray,
                  inner_tol: float = 1e-10, max_iters: int = 100_000,
                  x0: Optional[Sequence[np.ndarray]] = None,
                  z0: Optional[Sequence[np.ndarray]] = None) -> DualEval:
    """Minimize the proximal augmented Lagrangian over the primal variables
    at fixed ``(y, lam)``.

    :func:`accelerated_gradient` with the identity as its prox (the
    objective is convex and smooth). Fails loudly when the iteration cap is
    hit without convergence; the cap's message says the dual function is
    unbounded below at this point when the value there is below ``-1e12``
    (checked at the cap only).
    """
    L = prob.lipschitz_xz()
    kernel = prob.kernel
    k = prob.m + prob.n
    # flat state with the dual part fixed; the iterates are its (x, z) slice
    u = prob.pack(PrimalDualState(
        [np.zeros(sh) for sh in prob.x_shapes] if x0 is None else list(x0),
        [np.zeros(sh) for sh in prob.z_shapes] if z0 is None else list(z0),
        list(y), lam))

    def at(xz):
        u[:k] = xz
        return u

    xz, it, gnorm = accelerated_gradient(
        lambda xz: kernel.gradient(at(xz))[:k], lambda t, w: w, L,
        u[:k], inner_tol, max_iters)
    if not gnorm <= inner_tol:
        if kernel.value(at(xz)) < -1e12:
            raise DualSolveError("dual function unbounded below at this dual point")
        raise DualSolveError(
            f"inner solve failed: gradient norm {gnorm:.3g} above {inner_tol:.3g} "
            f"after {max_iters} iterations")

    u = at(xz).copy()
    s, g = prob.unpack(u), prob.unpack(kernel.gradient(u))
    return DualEval(value=float(kernel.value(u)), x=s.x, z=s.z, grad_y=g.y,
                    grad_lam=g.lam, iterations=it, grad_norm_inner=gnorm)


@dataclass
class DualityGaps:
    total: float
    primal_gap: float      # L(p) - d(y, lam)
    dual_gap: float        # d* - d(y, lam)
    dual_value: float


def lyapunov_v2(prob: SaddleProblem, s: PrimalDualState, ref: ReferenceSolution,
                inner_tol: float = 1e-10) -> DualityGaps:
    """Sum of the Lagrangian-vs-dual gap at the state and the dual
    suboptimality gap; the optimal dual value equals the optimal objective."""
    if ref.optimal_value is None:
        raise ValueError("reference solution must carry the optimal value")
    ev = dual_function(prob, s.y, s.lam, inner_tol=inner_tol,
                       x0=s.x, z0=s.z)
    Lp = pal_value(prob, s)
    primal_gap = Lp - ev.value
    dual_gap = ref.optimal_value - ev.value
    return DualityGaps(total=primal_gap + dual_gap, primal_gap=primal_gap,
                       dual_gap=dual_gap, dual_value=ev.value)


# ---------------------------------------------------------------------------
# distances and rate fitting

def distance_to_solution(prob: SaddleProblem, s: PrimalDualState,
                         ref: ReferenceSolution) -> float:
    """Euclidean distance to the reference saddle point, with the multiplier
    difference projected onto the range of the constraint map (the component
    in the orthogonal complement moves between equally valid multipliers)."""
    r = ref.state
    U = prob.kernel.range_basis
    lam_diff = U @ (U.T @ (s.lam - r.lam))
    return float(np.sqrt(_diff_sq(s.x, r.x) + _diff_sq(s.z, r.z)
                         + _diff_sq(s.y, r.y) + np.sum(lam_diff ** 2)))


@dataclass
class ExponentialFit:
    rate: float            # decay rate of the squared distance
    log_intercept: float
    r_squared: float
    n_used: int


def fit_exponential_rate(times: np.ndarray, sq_dists: np.ndarray,
                         tail_fraction: float = 0.5,
                         floor: Optional[float] = None) -> ExponentialFit:
    """Least-squares fit of ``log(sq_dist) = b - rate * t`` over the tail
    window.

    Samples at or below the floor (default ``100 * machine eps``) are
    excluded; fewer than five usable samples is an error rather than a
    meaningless fit.
    """
    times = np.asarray(times, dtype=float)
    sq_dists = np.asarray(sq_dists, dtype=float)
    if floor is None:
        floor = 100.0 * np.finfo(float).eps
    t_cut = times[0] + (1.0 - tail_fraction) * (times[-1] - times[0])
    keep = (times >= t_cut) & (sq_dists > floor)
    t, d = times[keep], sq_dists[keep]
    if len(t) < 5:
        raise ValueError("too few usable samples above the floor for a rate fit")
    logd = np.log(d)
    A = np.vstack([np.ones_like(t), -t]).T
    coef, *_ = np.linalg.lstsq(A, logd, rcond=None)
    b, rate = float(coef[0]), float(coef[1])
    pred = A @ coef
    ss_res = float(np.sum((logd - pred) ** 2))
    ss_tot = float(np.sum((logd - np.mean(logd)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ExponentialFit(rate=rate, log_intercept=b, r_squared=r2, n_used=len(t))


def envelope_violation(times: np.ndarray, sq_dists: np.ndarray,
                       M2: float, rho2: float) -> float:
    """Largest amount by which the squared distance exceeds the certified
    envelope ``M2 * sq_dist(t0) * exp(-rho2 (t - t0))``; nonpositive when the
    envelope holds everywhere."""
    times = np.asarray(times, dtype=float)
    sq_dists = np.asarray(sq_dists, dtype=float)
    bound = M2 * sq_dists[0] * np.exp(-rho2 * (times - times[0]))
    return float(np.max(sq_dists - bound))
