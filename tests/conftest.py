"""Shared instance builders for the test suite."""

import os

# One BLAS thread unless the environment says otherwise, set before numpy is
# first imported: the numbers the acceptance tests print (PCP's r^2 and
# monotone excess) move with the BLAS thread count's rounding.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

import palflow
from palflow.distributed import AgentState
from palflow.linops import BlockOperator, LinearOperator, unvec, vec
from palflow.problem import (NonsmoothBlock, PrimalDualState, SaddleProblem,
                             SmoothBlock)
from palflow import prox


def src_env() -> dict:
    """A copy of the environment with the directory palflow is imported from
    first on ``PYTHONPATH``, for tests that run palflow in a subprocess."""
    src = os.path.dirname(os.path.dirname(palflow.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def same_doubles(a, b) -> bool:
    """Whether two arrays hold the same doubles, the sign of each zero too."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


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


def reference_prox_nuclear(mu: float, X: np.ndarray) -> np.ndarray:
    """Singular value shrinkage via thin SVD, as the reference for
    ``prox.prox_nuclear``."""
    X = np.asarray(X, dtype=float)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    return (U * np.maximum(s - mu, 0.0)) @ Vt


def reference_decentralized_field(net, states, alpha, mu):
    """The message-passing field agent by agent: each agent sums its
    neighbors' ``x`` and applies its own local map, as the reference for
    ``Network.field``.

    The multiplier derivatives come first so the primal derivatives can reuse
    them; the staggering is exactly the per-block form of the centralized
    field."""
    adj = net.neighbors
    out = []
    for i, (a, st) in enumerate(zip(net.agents, states)):
        lam1_dot = alpha * (len(adj[i]) * st.x - sum(states[j].x for j in adj[i]))
        Cx = vec(a.C.apply(st.x.reshape(a.C.in_shape, order="F")))
        lam2_dot = alpha * (Cx - st.z)
        prox_out = vec(a.g.prox(mu, st.z + mu * st.y))
        y_dot = alpha * (st.z - prox_out)
        z_dot = -st.y - y_dot / (alpha * mu) + st.lam2 + lam2_dot / (alpha * mu)
        Ct = lambda v: vec(a.C.adjoint(v.reshape(a.C.out_shape, order="F")))
        x_dot = (-vec(a.f.grad(st.x.reshape(a.f.shape, order="F")))
                 - st.lam1 - Ct(st.lam2)
                 - (lam1_dot + Ct(lam2_dot)) / (alpha * mu))
        out.append(AgentState(x_dot, z_dot, y_dot, lam1_dot, lam2_dot))
    return out


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


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.svd`` from here on."""
    calls, svd = [], np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls
