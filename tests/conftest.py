"""Shared instance builders for the test suite."""

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from palflow.linops import BlockOperator, LinearOperator, unvec, vec
from palflow.problem import (NonsmoothBlock, PrimalDualState, SaddleProblem,
                             SmoothBlock)
from palflow import prox


def quadratic_equality_instance(rng, p=3, dims=(4, 3), mu=1.0, alpha=1.0,
                                duplicate_row=False, curvature=1.0,
                                e_scale=1.0, a_scale=1.0):
    """Strongly convex quadratic blocks with a pure equality constraint
    (no nonsmooth part). Returns the problem and its saddle point.

    With ``duplicate_row`` the last constraint row repeats the first, making
    the constraint map rank deficient while staying consistent.
    """
    m = sum(dims)
    Hs, cs = [], []
    for d in dims:
        A = a_scale * rng.standard_normal((d + 2, d))
        Hs.append(A.T @ A + curvature * np.eye(d))
        cs.append(rng.standard_normal(d))
    E = e_scale * rng.standard_normal((p, m))
    if duplicate_row:
        E[-1] = E[0]
    q = E @ rng.standard_normal(m)
    if duplicate_row:
        q[-1] = q[0]

    smooth = [SmoothBlock.quadratic(H, c) for H, c in zip(Hs, cs)]
    offs = np.cumsum([0] + list(dims))
    E_blocks = [LinearOperator.from_matrix(E[:, a:b])
                for a, b in zip(offs[:-1], offs[1:])]
    probm = SaddleProblem(smooth, [], BlockOperator(E_blocks),
                          BlockOperator([], p=p), q, mu=mu, alpha=alpha)

    # saddle point from the stationarity system; minimum-norm multiplier
    from scipy.linalg import block_diag
    H = block_diag(*Hs)
    c = np.concatenate(cs)
    K = np.block([[H, E.T], [E, np.zeros((p, p))]])
    rhs = np.concatenate([-c, q])
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    x_flat, lam = sol[:m], sol[m:]
    x = [x_flat[a:b] for a, b in zip(offs[:-1], offs[1:])]
    s_star = PrimalDualState(x, [], [], lam)
    return probm, s_star


def composite_instance(rng, p=5, x_dims=(4, 3), z_dims=(3, 2), mu=1.0,
                       alpha=1.0):
    """Random convex composite instance with l1 and group-penalty blocks and
    a consistent right-hand side."""
    smooth, E_blocks = [], []
    for d in x_dims:
        A = rng.standard_normal((d + 2, d))
        smooth.append(SmoothBlock.quadratic(A.T @ A, rng.standard_normal(d)))
        E_blocks.append(LinearOperator.from_matrix(rng.standard_normal((p, d))))
    gs = [prox.l1(0.5 + rng.random()),
          prox.group_lasso(prox.GroupPartition([np.arange(z_dims[1])],
                                               [0.5 + rng.random()]))]
    nonsmooth = [NonsmoothBlock(g, (d,)) for g, d in zip(gs, z_dims)]
    F_blocks = [LinearOperator.from_matrix(rng.standard_normal((p, d)))
                for d in z_dims]
    E = BlockOperator(E_blocks)
    F = BlockOperator(F_blocks)
    x0 = [rng.standard_normal(d) for d in x_dims]
    z0 = [rng.standard_normal(d) for d in z_dims]
    q = E.apply(x0) + F.apply(z0)
    return SaddleProblem(smooth, nonsmooth, E, F, q, mu=mu, alpha=alpha)


@dataclass
class LiftedProblem:
    """Lifted form with auxiliary variable ``w`` duplicating ``z``; solution
    sets satisfy ``{(x, z, z)}`` over the original solutions.

    Its KKT residual is written block by block on the ``BlockOperator`` path,
    as an independent reference for ``kkt_residual``.
    """

    base: SaddleProblem

    @property
    def primal_dim(self) -> int:
        return self.base.m + 2 * self.base.n

    def g_value(self, w: Sequence[np.ndarray]) -> float:
        return self.base.g_value(w)

    def kkt_residual(self, x, z, w, y, lam) -> float:
        prob = self.base
        Et_lam = prob.E.adjoint(lam)
        Ft_lam = prob.F.adjoint(lam)
        r = [vec(g + e) for g, e in zip(prob.f_grad(x), Et_lam)]
        r += [vec(yj + f) for yj, f in zip(y, Ft_lam)]
        prox_out = prob.prox_g([wj + prob.mu * yj for wj, yj in zip(w, y)])
        r += [vec(wj - pj) for wj, pj in zip(w, prox_out)]
        r += [vec(zj - wj) for zj, wj in zip(z, w)]
        r.append(prob.constraint_residual(x, z))
        return float(np.sqrt(sum(np.sum(a ** 2) for a in r)))


def build_lifted(prob: SaddleProblem) -> LiftedProblem:
    return LiftedProblem(prob)


def consensus_admm(prob: SaddleProblem, rho: float = 3.0, tol: float = 1e-10,
                   max_iters: int = 100_000):
    """Reference saddle point of ``min sum_j g_j(Z_j)`` s.t. ``sum_j Z_j =
    Q``, the form of principal component pursuit (no smooth blocks, ``F =
    [I ... I]``), by two-block ADMM in consensus form (Boyd et al., FnT ML
    2011, section 7); independent of the flow, sharing only the prox maps.

    The x-update runs the block proxes side by side; the z-update projects
    onto ``{sum_j Z_j = Q}``, after which the scaled dual ``U`` is the same
    on every block. Stops when the primal and dual residuals are both at
    most ``tol``. Returns the state with ``lam = vec(rho U)`` and ``y_j =
    -rho U`` on each block, and the iteration count.
    """
    gs = [b.g for b in prob.nonsmooth_blocks]
    Q = unvec(prob.q, prob.z_shapes[0])
    k = len(gs)
    Z = [np.zeros_like(Q) for _ in gs]
    U = np.zeros_like(Q)
    for it in range(1, max_iters + 1):
        X = [g.prox(1.0 / rho, Zj - U) for g, Zj in zip(gs, Z)]
        W = [Xj + U for Xj in X]
        U = (sum(W) - Q) / k
        Z_new = [Wj - U for Wj in W]
        primal = np.sqrt(sum(np.sum((Xj - Zj) ** 2) for Xj, Zj in zip(X, Z_new)))
        dual = rho * np.sqrt(sum(np.sum((a - b) ** 2) for a, b in zip(Z_new, Z)))
        Z = Z_new
        if primal <= tol and dual <= tol:
            break
    else:
        raise RuntimeError(f"ADMM did not reach {tol:.1e} in {max_iters} iterations")
    Lam = rho * U
    return PrimalDualState([], Z, [-Lam for _ in gs], vec(Lam)), it


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
