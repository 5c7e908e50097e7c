"""Desk-scale instance generators, independent reference oracles, and the
escape-time construction showing the range condition is necessary for a
global exponential rate.

All randomness goes through ``numpy.random.default_rng`` (PCG64, ziggurat
normal sampling), so a fixed seed reproduces datasets bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import flow, prox
from .diagnostics import ReferenceSolution, accelerated_gradient
from .distributed import AgentData, Network
from .linops import (BlockOperator, LinearOperator, lyapunov_operator,
                     masked_congruence, vec, vstack)
from .problem import (NonsmoothBlock, PrimalDualState, SaddleProblem,
                      SmoothBlock)
from .prox import GroupPartition


# ---------------------------------------------------------------------------
# composite-minimization reference oracle (independent of the flow; shares
# only the prox maps)

@dataclass
class OracleResult:
    x: np.ndarray
    value: float
    kkt_residual: float
    iterations: int


def proximal_gradient(grad: Callable[[np.ndarray], np.ndarray],
                      value: Callable[[np.ndarray], float],
                      prox_step: Callable[[float, np.ndarray], np.ndarray],
                      L: float, x0: np.ndarray,
                      tol: float = 1e-10, max_iters: int = 200_000) -> OracleResult:
    """FISTA with adaptive restart (:func:`diagnostics.accelerated_gradient`).

    ``x`` is the extrapolated point at which the prox-gradient fixed-point
    residual ``L ||x - prox_{1/L}(x - grad(x)/L)||`` first fell to ``tol``
    (or the last one, at the iteration cap), not the prox output there; the
    reported residual is the one measured at ``x``, and the value is taken
    there once.
    """
    x, it, resid = accelerated_gradient(grad, prox_step, L, x0, tol, max_iters)
    return OracleResult(x=x, value=value(x), kkt_residual=resid, iterations=it)


# ---------------------------------------------------------------------------
# Example 1: decentralized lasso over a network

def gen_lasso_network(agents: int, dim: int, meas: int = 3,
                      seed: int = 0) -> Tuple[Network, ReferenceSolution]:
    """Network lasso: agent ``i`` holds ``(1/2)||M_i x - h_i||^2`` plus
    ``tau_i ||.||_1``; the topology is a seeded ring with random chords.

    The reference is the centralized lasso solved by an accelerated proximal
    gradient oracle.
    """
    if agents <= 0 or dim <= 0 or meas <= 0:
        raise ValueError("counts must be positive")
    rng = np.random.default_rng(seed)
    x_true = np.zeros(dim)
    support = rng.choice(dim, size=min(5, dim), replace=False)
    x_true[support] = rng.integers(1, 6, size=len(support)).astype(float)

    Ms, hs = [], []
    for _ in range(agents):
        M = rng.standard_normal((meas, dim))
        M /= np.linalg.norm(M, 2)
        w = rng.standard_normal(meas)
        Ms.append(M)
        hs.append(M @ x_true + w)
    taus = rng.random(agents)
    taus *= 1.15 / taus.sum()

    agent_data = [AgentData(f=SmoothBlock.least_squares(M, h),
                            g=prox.l1(t),
                            C=LinearOperator.identity((dim,)))
                  for M, h, t in zip(Ms, hs, taus)]
    # a ring; two agents share its one edge
    edges = [(i, (i + 1) % agents) for i in range(agents if agents > 2 else agents - 1)]
    if agents > 3:
        extra = set()
        while len(extra) < agents // 2:
            i, j = rng.integers(0, agents, size=2)
            if i != j and (min(i, j), max(i, j)) not in {(min(a, b), max(a, b)) for a, b in edges}:
                extra.add((min(i, j), max(i, j)))
        edges += sorted(extra)
    net = Network(agents, edges, agent_data)

    Mall = np.vstack(Ms)
    hall = np.concatenate(hs)
    tau = float(taus.sum())
    L = np.linalg.norm(Mall, 2) ** 2

    def grad(u):
        return Mall.T @ (Mall @ u - hall)

    def value(u):
        return 0.5 * float(np.sum((Mall @ u - hall) ** 2)) + tau * float(np.sum(np.abs(u)))

    res = proximal_gradient(grad, value,
                            lambda s, v: prox.prox_l1(tau * s, v),
                            L, np.zeros(dim), tol=1e-9)
    ref = ReferenceSolution(state=None, optimal_value=res.value)
    ref.meta = {"x_star": res.x, "oracle": res, "taus": taus, "x_true": x_true}
    return net, ref


# ---------------------------------------------------------------------------
# Example 2: principal component pursuit

def gen_pcp(n: int, rank: int, seed: int = 0,
            mu: float = 1.75, alpha: float = 1.0) -> Tuple[SaddleProblem, Optional[ReferenceSolution]]:
    """Low-rank plus sparse decomposition with a masked noise-ball block:
    three nonsmooth matrix blocks constrained to sum to the data matrix; no
    smooth component at all."""
    if rank >= n:
        raise ValueError("rank must be below the dimension")
    rng = np.random.default_rng(seed)
    R1 = rng.standard_normal((n, rank))
    R2 = rng.standard_normal((n, rank))
    Q1 = R1 @ R2.T
    Omega = np.zeros((n, n))
    idx = rng.choice(n * n, size=int(round(0.8 * n * n)), replace=False)
    Omega.flat[idx] = 1.0
    Q2 = np.zeros((n, n))
    obs = np.flatnonzero(Omega.flat)
    supp = rng.choice(obs, size=int(round(0.05 * len(obs))), replace=False)
    Q2.flat[supp] = rng.uniform(-500.0, 500.0, size=len(supp))
    sigma = 1e-3
    Q3 = sigma * rng.standard_normal((n, n))
    Q = Q1 + Q2 + Q3

    tau = 1.0 / np.sqrt(n)
    delta = np.sqrt(n + np.sqrt(8.0 * n)) * sigma

    gs = [prox.nuclear(1.0), prox.l1(tau), prox.frobenius_ball_masked(delta, Omega)]
    nonsmooth = [NonsmoothBlock(g, (n, n)) for g in gs]
    F = BlockOperator([LinearOperator.identity((n, n)) for _ in range(3)])
    E = BlockOperator([], p=n * n)
    probm = SaddleProblem([], nonsmooth, E, F, vec(Q), mu=mu, alpha=alpha,
                          name=f"pcp_n{n}_r{rank}")
    return probm, None


# ---------------------------------------------------------------------------
# Example 3: covariance completion for a mass-spring-damper chain

def _msd_chain(N: int) -> Tuple[np.ndarray, np.ndarray]:
    """State matrix of a serially connected chain with unit masses, springs,
    and dampers, plus the velocity-output matrix."""
    K = 2.0 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)
    A = np.block([[np.zeros((N, N)), np.eye(N)], [-K, -np.eye(N)]])
    B = np.hstack([np.zeros((N, N)), np.eye(N)])
    return A, B


def gen_covariance_completion(N_masses: int, gamma: float = 1.0,
                              seed: int = 0, mu: float = 1.0,
                              alpha: float = 1.0) -> Tuple[SaddleProblem, PrimalDualState]:
    """Log-det estimation of a state covariance consistent with the system
    dynamics and masked output statistics; returns the instance together with
    its prescribed initial state.

    Feasibility holds by construction: the masked output data come from a
    covariance solving the dynamics constraint exactly.
    """
    # scipy.linalg only here: no solve imports it
    from scipy.linalg import solve_lyapunov

    if N_masses < 2:
        raise ValueError("need at least two masses")
    A, B = _msd_chain(N_masses)
    n = 2 * N_masses
    delta = 1e-12

    # mask of available output correlations: diagonal plus nearest neighbors
    C = (np.eye(N_masses) + np.eye(N_masses, k=1) + np.eye(N_masses, k=-1))

    E1 = lyapunov_operator(A)
    E2 = masked_congruence(B, C)

    # feasible data: X0 solves the Lyapunov constraint with Z0 = I
    Z0 = np.eye(n)
    X0 = solve_lyapunov(A, -Z0)
    Q = E2.apply(X0)

    def f_value(X):
        sign, logdet = np.linalg.slogdet(X + delta * np.eye(n))
        if sign <= 0:
            return np.inf
        return -logdet

    def f_grad(X):
        return -np.linalg.inv(X + delta * np.eye(n))

    smooth = [SmoothBlock(shape=(n, n), value=f_value, grad=f_grad)]
    nonsmooth = [NonsmoothBlock(prox.nuclear(gamma), (n, n))]
    E = BlockOperator([vstack([E1, E2])])
    Fz = vstack([LinearOperator.identity((n, n)),
                 LinearOperator.zero((n, n), (N_masses, N_masses))])
    F = BlockOperator([Fz])
    q = np.concatenate([np.zeros(n * n), vec(Q)])
    probm = SaddleProblem(smooth, nonsmooth, E, F, q, mu=mu, alpha=alpha,
                          name=f"covcomp_N{N_masses}")

    Lam1 = solve_lyapunov(A.T, -X0)
    Lam1 *= 10.0 / np.linalg.norm(Lam1, 2)
    Lam2 = np.eye(N_masses)
    s0 = PrimalDualState(x=[X0.copy()], z=[Z0.copy()], y=[np.eye(n)],
                         lam=np.concatenate([vec(Lam1), vec(Lam2)]))
    return probm, s0


# ---------------------------------------------------------------------------
# Example 4: sparse group lasso

def gen_sparse_group_lasso(meas: int, dim: int, groups: int,
                           seed: int = 0, mu: float = 1.0, alpha: float = 1.0
                           ) -> Tuple[SaddleProblem, ReferenceSolution]:
    """Least squares with combined elementwise and groupwise shrinkage, split
    into a residual smooth block, a free smooth block, and two z copies.

    The penalties scale with the data through the correlation of the
    design with the observation, so desk-size instances keep a sparse but
    nonzero solution.
    """
    if dim % groups:
        raise ValueError("dimension must be divisible by the group count")
    rng = np.random.default_rng(seed)
    w = dim // groups
    T = rng.standard_normal((meas, dim))
    x_bar = np.zeros(dim)
    lead = np.array([1.0, 2.0, 3.0, 4.0, 5.0])[:w]
    # signal occupies the first three groups, repeating the leading pattern
    for h in range(min(3, groups)):
        x_bar[h * w:h * w + len(lead)] = lead
    signal = T @ x_bar
    omega = rng.standard_normal(meas)
    sigma = np.linalg.norm(signal) / (2.0 * np.linalg.norm(omega))
    q = signal + sigma * omega

    # fraction of the largest design-observation correlation; small enough
    # that desk instances keep a well-conditioned tail rate, large enough
    # that the solution stays sparse
    corr = T.T @ q
    tau1 = 0.03 * float(np.max(np.abs(corr)))
    tau2 = 0.03 * max(float(np.linalg.norm(corr[h * w:(h + 1) * w]))
                      for h in range(groups)) / np.sqrt(w)

    part = GroupPartition.uniform(dim, groups, weight=tau2)
    smooth = [SmoothBlock.quadratic(np.eye(meas)),
              SmoothBlock(shape=(dim,), value=lambda u: 0.0,
                          grad=lambda u: np.zeros(dim))]
    nonsmooth = [NonsmoothBlock(prox.l1(tau1), (dim,)),
                 NonsmoothBlock(prox.group_lasso(part), (dim,))]
    p = meas + 2 * dim
    E1 = np.vstack([np.eye(meas), np.zeros((2 * dim, meas))])
    E2 = np.vstack([T, np.eye(dim), np.eye(dim)])
    F1 = np.vstack([np.zeros((meas, dim)), -np.eye(dim), np.zeros((dim, dim))])
    F2 = np.vstack([np.zeros((meas + dim, dim)), -np.eye(dim)])
    E = BlockOperator([LinearOperator.from_matrix(E1), LinearOperator.from_matrix(E2)])
    F = BlockOperator([LinearOperator.from_matrix(F1), LinearOperator.from_matrix(F2)])
    qvec = np.concatenate([q, np.zeros(2 * dim)])
    probm = SaddleProblem(smooth, nonsmooth, E, F, qvec, mu=mu, alpha=alpha,
                          name=f"sgl_{meas}x{dim}_g{groups}")

    # independent oracle on the unsplit composite
    part_pen = GroupPartition.uniform(dim, groups, weight=tau2, eta=tau1)
    L = np.linalg.norm(T, 2) ** 2

    def grad(u):
        return T.T @ (T @ u - q)

    def value(u):
        return (0.5 * float(np.sum((T @ u - q) ** 2))
                + tau1 * float(np.sum(np.abs(u)))
                + tau2 * sum(float(np.linalg.norm(u[h * w:(h + 1) * w]))
                             for h in range(groups)))

    res = proximal_gradient(grad, value,
                            lambda s, v: prox.prox_group_lasso(s, part_pen, v),
                            L, np.zeros(dim), tol=1e-9)
    ref = ReferenceSolution(state=None, optimal_value=res.value)
    ref.meta = {"x_star": res.x, "oracle": res, "tau1": tau1, "tau2": tau2,
                "T": T, "q": q}
    return probm, ref


def finite_objective(prob: SaddleProblem, s: PrimalDualState) -> float:
    """Objective with infinite indicator contributions dropped.

    Along a trajectory a set-indicator block is typically infeasible by a
    vanishing margin, which makes the raw objective identically infinite and
    useless as a progress measure; the finite penalty terms are what decrease.
    """
    val = prob.f_value(s.x)
    for b, zj in zip(prob.nonsmooth_blocks, s.z):
        v = float(b.g.value(np.asarray(zj)))
        if np.isfinite(v):
            val += v
    return float(val)


# ---------------------------------------------------------------------------
# escape-time construction (range condition necessary for a global rate)

_E_CTR = np.array([[-1.0], [1.0]])
_Q_CTR = np.array([2.0, 2.0])


def counterexample_problem(mu: float = 1.0, alpha: float = 1.0) -> SaddleProblem:
    """Four-variable form: ``min (1/2) x^2 + I_-(z)`` subject to
    ``[-1; 1] x - z = (2, 2)``."""
    smooth = [SmoothBlock.quadratic(np.array([[1.0]]))]
    nonsmooth = [NonsmoothBlock(prox.indicator_orthant("nonpos"), (2,))]
    E = BlockOperator([LinearOperator.from_matrix(_E_CTR)])
    F = BlockOperator([LinearOperator.from_matrix(-np.eye(2))])
    return SaddleProblem(smooth, nonsmooth, E, F, _Q_CTR.copy(),
                         mu=mu, alpha=alpha, name="escape")


def _reduced_field(mu: float, alpha: float):
    """Dynamics in the eliminated coordinates ``(x, y1, y2)`` obtained by
    substituting ``z = Ex - q``."""
    E, q = _E_CTR[:, 0], _Q_CTR

    def fun(t, s):
        x, y = s[0], s[1:]
        r = E * x - q
        u = r + mu * y
        proj = np.minimum(u, 0.0)
        x_dot = -(x + E @ y + (E @ r) / mu - (E @ proj) / mu)
        y_dot = alpha * (r - proj)
        return np.concatenate([[x_dot], y_dot])

    return fun


def region_measurements(s: np.ndarray, mu: float) -> np.ndarray:
    """``n = Ex - q + mu y`` for a reduced state ``(x, y1, y2)``."""
    return _E_CTR[:, 0] * s[0] - _Q_CTR + mu * s[1:]


def counterexample_run(beta: float, mu: float = 1.0, alpha: float = 1.0,
                       cfg: Optional[flow.IntegratorConfig] = None,
                       y0: Optional[np.ndarray] = None):
    """Integrate the reduced dynamics from the canonical start and return the
    first exit time from ``{n1 >= 0, n2 >= 0}`` with the trajectory.

    The exit is located on the adaptive integrator's dense output, which the
    trajectory keeps as ``meta["dense"]``; a fixed-step ``cfg`` is an error.
    A start outside the region or on its boundary is an error, and so is a
    ``cfg`` with ``stop_kkt``: the run ends at the exit, not on a residual.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if cfg is not None and cfg.stop_kkt is not None:
        raise ValueError("the escape-time construction takes no stop_kkt")
    if y0 is None:
        y0 = np.array([2.0 * beta + 2.0, 2.0 * beta + 2.0])
    s0 = np.concatenate([[0.0], np.asarray(y0, dtype=float)])
    if np.min(region_measurements(s0, mu)) <= 0:
        raise ValueError("initial condition lies outside the region or on its boundary")

    try:
        phi0 = phi_from_state(s0, mu, alpha)
        drift0 = phi0[2]
    except ValueError:
        # oscillatory modes: no real modal basis, guess from the mean height
        drift0 = float(np.mean(y0))
    t_guess = max((drift0 - 2.0 / mu) / (2.0 * alpha), 1.0)
    if cfg is None:
        cfg = flow.IntegratorConfig(method="rk45", t_end=2.0 * t_guess + 1.0)

    def exit_event(t, s, f):
        return float(np.min(region_measurements(s, mu)))

    traj = flow.integrate_ode(_reduced_field(mu, alpha), s0, cfg,
                              event=exit_event, dense=True)
    if traj.termination != "event":
        raise flow.FlowError(f"trajectory did not exit the region: the run stopped "
                             f"on {traj.termination}")
    t_star = float(traj.times[-1])
    traj.termination = "region_exit"
    traj.meta.update(t_star=t_star, mu=mu, alpha=alpha)
    return t_star, traj


def _sigma_root(mu: float, alpha: float) -> float:
    """Negative real root of smallest magnitude of
    ``sigma^2 + (1 + 2/mu) sigma + 2 alpha = 0``."""
    b = 1.0 + 2.0 / mu
    disc = b * b - 8.0 * alpha
    if disc < 0:
        raise ValueError("no admissible real root for these parameters")
    return (-b + np.sqrt(disc)) / 2.0


def _eig_basis(mu: float, alpha: float) -> Tuple[float, np.ndarray]:
    s = _sigma_root(mu, alpha)
    V = np.array([[s, -2.0 * alpha / s, 0.0],
                  [-alpha, alpha, 1.0],
                  [alpha, -alpha, 1.0]])
    return s, V


def phi_from_state(s: np.ndarray, mu: float, alpha: float) -> np.ndarray:
    _, V = _eig_basis(mu, alpha)
    return np.linalg.solve(V, np.asarray(s, dtype=float))


def state_from_phi(phi: np.ndarray, mu: float, alpha: float) -> np.ndarray:
    _, V = _eig_basis(mu, alpha)
    return V @ np.asarray(phi, dtype=float)


def analytic_counterexample(phi0: Sequence[float], mu: float, alpha: float,
                            t: float) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form modal trajectory and region measurements inside the
    region: two exponential modes plus one drifting mode."""
    phi0 = np.asarray(phi0, dtype=float)
    s = _sigma_root(mu, alpha)
    phi_t = np.array([np.exp(s * t) * phi0[0],
                      np.exp((2.0 * alpha / s) * t) * phi0[1],
                      phi0[2] - 2.0 * alpha * t])
    e1 = -(s + alpha * mu) * np.exp(s * t) * phi0[0]
    e2 = alpha * (mu + 2.0 / s) * np.exp((2.0 * alpha / s) * t) * phi0[1]
    drift = mu * phi_t[2] - 2.0
    n_t = np.array([e1 + e2 + drift, -e1 - e2 + drift])
    return phi_t, n_t


def analytic_exit_time(phi0: Sequence[float], mu: float, alpha: float) -> float:
    """Exit time when both exponential modes start at zero."""
    phi0 = np.asarray(phi0, dtype=float)
    if abs(phi0[0]) > 1e-12 or abs(phi0[1]) > 1e-12:
        raise ValueError("closed-form exit time needs vanishing exponential modes")
    return (phi0[2] - 2.0 / mu) / (2.0 * alpha)
