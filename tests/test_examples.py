import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from palflow import examples, flow, prox
from palflow.distributed import assemble_consensus
from palflow.examples import (analytic_counterexample, analytic_exit_time,
                              counterexample_problem, counterexample_run,
                              finite_objective, gen_covariance_completion,
                              gen_lasso_network, gen_pcp,
                              gen_sparse_group_lasso, phi_from_state,
                              region_measurements, state_from_phi)
from palflow.flow import pal_gradient, vector_field
from palflow.linops import vec
from palflow.problem import PrimalDualState, kkt_residual

from conftest import consensus_admm, src_env


# -- generators --------------------------------------------------------------

def test_lasso_network_deterministic_and_oracle():
    net1, ref1 = gen_lasso_network(5, 20, 3, seed=7)
    net2, ref2 = gen_lasso_network(5, 20, 3, seed=7)
    assert np.array_equal(ref1.meta["x_star"], ref2.meta["x_star"])
    assert ref1.optimal_value == ref2.optimal_value
    assert ref1.meta["oracle"].kkt_residual < 1e-8
    assert ref1.meta["taus"].sum() == pytest.approx(1.15)
    for a in net1.agents:
        g0 = np.asarray(a.f.grad(np.zeros(20)))
        H = np.column_stack([np.asarray(a.f.grad(e)) - g0 for e in np.eye(20)])
        # normalized design: unit spectral norm of each local matrix
        assert np.sqrt(np.linalg.eigvalsh(H)[-1]) == pytest.approx(1.0, rel=1e-9)


def test_lasso_network_differs_across_seeds():
    _, ref1 = gen_lasso_network(4, 10, 3, seed=1)
    _, ref2 = gen_lasso_network(4, 10, 3, seed=2)
    assert not np.array_equal(ref1.meta["x_star"], ref2.meta["x_star"])


def test_two_agent_network_builds_and_integrates():
    """The ring of two agents is their one edge; every other ring is kept,
    and so are the draws that follow it."""
    net, ref = gen_lasso_network(2, 4, 3, seed=0)
    assert net.edges == [(0, 1)] and ref.meta["oracle"].kkt_residual < 1e-8
    assert gen_lasso_network(1, 4, 3, seed=0)[0].edges == []
    assert gen_lasso_network(3, 4, 3, seed=0)[0].edges == [(0, 1), (0, 2), (1, 2)]
    prob = assemble_consensus(net)
    traj = flow.integrate(prob, prob.zero_state(), flow.IntegratorConfig(t_end=400.0))
    assert traj.termination == "t_end" and np.all(np.isfinite(traj.states))
    x = np.concatenate(traj.final_state().x)
    assert np.allclose(x, np.tile(ref.meta["x_star"], 2), atol=1e-6)


def test_pcp_construction():
    prob, ref = gen_pcp(12, 2, seed=3)
    assert ref is None
    assert prob.m == 0
    assert prob.n == 3 * 144
    assert prob.p == 144
    assert prob.mu == pytest.approx(1.75)
    kinds = [b.g.kind for b in prob.nonsmooth_blocks]
    assert kinds == ["nuclear", "l1", "frobenius_ball_masked"]
    assert prob.nonsmooth_blocks[1].g.meta["weight"] == pytest.approx(1 / np.sqrt(12))
    # constraint: the three blocks sum to the data matrix
    rng = np.random.default_rng(0)
    zs = [rng.standard_normal((12, 12)) for _ in range(3)]
    r = prob.constraint_residual([], zs)
    assert np.allclose(r, vec(zs[0] + zs[1] + zs[2]) - prob.q)


@pytest.fixture(scope="module")
def pcp_admm():
    prob, _ = gen_pcp(12, 2, seed=3)
    s, _ = consensus_admm(prob, rho=3.0, tol=1e-10)
    return prob, s


def test_pcp_kkt_vanishes_at_admm_reference(pcp_admm):
    # the flow's optimality measure accepts an independently computed optimum
    prob, s = pcp_admm
    assert prob.kernel.kkt(prob.pack(s)) <= 1e-9


def test_pcp_field_vanishes_at_admm_reference(pcp_admm):
    # the independent optimum is an equilibrium of the flow
    prob, s = pcp_admm
    assert np.linalg.norm(prob.pack(vector_field(prob, s))) <= 1e-9


def test_pcp_rejects_full_rank():
    with pytest.raises(ValueError):
        gen_pcp(5, 5)


def test_covariance_completion_feasible_start():
    prob, s0 = gen_covariance_completion(4, seed=1)
    r = prob.constraint_residual(s0.x, s0.z)
    assert np.max(np.abs(r)) < 1e-10
    assert np.linalg.norm(s0.lam[:64].reshape(8, 8, order="F"), 2) == pytest.approx(10.0)


def test_covariance_completion_gradient_specialization():
    prob, s0 = gen_covariance_completion(3, seed=0)
    N, n = 3, 6
    K = 2.0 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)
    A = np.block([[np.zeros((N, N)), np.eye(N)], [-K, -np.eye(N)]])
    B = np.hstack([np.zeros((N, N)), np.eye(N)])
    C = np.eye(N) + np.eye(N, k=1) + np.eye(N, k=-1)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((n, n))
    X = X @ X.T + np.eye(n)
    Z = rng.standard_normal((n, n))
    Y = rng.standard_normal((n, n))
    lam = rng.standard_normal(prob.p)
    s = PrimalDualState([X], [Z], [Y], lam)
    gx, gz, gy, glam = pal_gradient(prob, s)

    # hand-specialized gradient written directly from the instance data
    mu = prob.mu
    L1 = lam[:n * n].reshape(n, n, order="F")
    L2 = lam[n * n:].reshape(N, N, order="F")
    r1 = (A @ X + X @ A.T + Z).ravel(order="F")
    q2 = prob.q[n * n:]
    r2 = ((B @ X @ B.T) * C).ravel(order="F") - q2
    shift1 = L1 + r1.reshape(n, n, order="F") / mu
    shift2 = L2 + r2.reshape(N, N, order="F") / mu
    gx_hand = (-np.linalg.inv(X + 1e-12 * np.eye(n))
               + A.T @ shift1 + shift1 @ A
               + B.T @ (shift2 * C) @ B)
    assert np.max(np.abs(gx[0] - gx_hand)) < 1e-9
    prox_out = prox.prox_nuclear(mu, Z + mu * Y)
    gz_hand = (Z + mu * Y - prox_out) / mu + shift1
    assert np.max(np.abs(gz[0] - gz_hand)) < 1e-9
    assert np.max(np.abs(gy[0] - (Z - prox_out))) < 1e-12
    assert np.max(np.abs(glam - np.concatenate([r1, r2]))) < 1e-12


def test_sparse_group_lasso_oracle_and_shapes():
    prob, ref = gen_sparse_group_lasso(10, 40, 4, seed=2)
    assert ref.meta["oracle"].kkt_residual < 1e-8
    assert prob.m == 10 + 40
    assert prob.n == 80
    assert prob.p == 10 + 80
    # the split objective at a consistent point equals the composite value
    x_star = ref.meta["x_star"]
    T, q = ref.meta["T"], ref.meta["q"]
    x1 = q - T @ x_star
    val = prob.objective([x1, x_star], [x_star, x_star])
    direct = (0.5 * np.sum(x1 ** 2)
              + ref.meta["tau1"] * np.sum(np.abs(x_star))
              + ref.meta["tau2"] * sum(np.linalg.norm(x_star[h * 10:(h + 1) * 10])
                                       for h in range(4)))
    assert val == pytest.approx(direct, rel=1e-12)
    # feasibility of the split at that point
    r = prob.constraint_residual([x1, x_star], [x_star, x_star])
    assert np.max(np.abs(r)) < 1e-10


@pytest.mark.parametrize("gen, optimal_value, max_iters", [
    (lambda: gen_sparse_group_lasso(20, 200, 10, seed=2, alpha=3.0),
     247.10267784326686, 2000),
    (lambda: gen_lasso_network(5, 20, 3, seed=0), 13.465668207902631, None),
], ids=["sgl", "network_lasso"])
def test_oracles_pinned_at_criterion_6_sizes(gen, optimal_value, max_iters):
    """The criterion-6 reference optima. The sgl oracle took 7,287
    iterations under function-value restart; the iteration cap guards the
    gradient-mapping restart that replaced it."""
    _, ref = gen()
    oracle = ref.meta["oracle"]
    assert oracle.kkt_residual <= 1e-9
    assert ref.optimal_value == pytest.approx(optimal_value, rel=1e-12, abs=0)
    if max_iters is not None:
        assert oracle.iterations < max_iters


@pytest.mark.parametrize("max_iters", [200_000, 3], ids=["converged", "cap"])
def test_proximal_gradient_reports_residual_at_returned_point(rng, max_iters):
    """The oracle returns the extrapolated point where its residual was
    measured, on convergence and at the iteration cap alike."""
    M, h = rng.standard_normal((8, 5)), rng.standard_normal(8)
    L = np.linalg.norm(M, 2) ** 2

    def grad(u):
        return M.T @ (M @ u - h)

    def prox_step(t, w):
        return prox.prox_l1(0.5 * t, w)

    res = examples.proximal_gradient(grad, lambda u: 0.0, prox_step, L,
                                     np.zeros(5), tol=1e-9, max_iters=max_iters)
    x = res.x
    assert res.kkt_residual == L * float(np.linalg.norm(x - prox_step(1.0 / L, x - grad(x) / L)))
    assert (res.kkt_residual <= 1e-9) == (max_iters > 3)


def test_sparse_group_lasso_divisibility():
    with pytest.raises(ValueError):
        gen_sparse_group_lasso(5, 10, 3)


def test_finite_objective_drops_indicators():
    prob, _ = gen_pcp(6, 1, seed=0)
    rng = np.random.default_rng(1)
    zs = [rng.standard_normal((6, 6)) * 100 for _ in range(3)]
    s = PrimalDualState([], zs, [np.zeros((6, 6))] * 3, np.zeros(36))
    raw = prob.objective(s.x, s.z)
    fin = finite_objective(prob, s)
    assert not np.isfinite(raw)
    assert np.isfinite(fin)
    nuc = float(np.sum(np.linalg.svd(zs[0], compute_uv=False)))
    l1v = prob.nonsmooth_blocks[1].g.meta["weight"] * float(np.sum(np.abs(zs[1])))
    assert fin == pytest.approx(nuc + l1v, rel=1e-12)


# -- escape-time construction ------------------------------------------------

def test_counterexample_problem_structure():
    prob = counterexample_problem()
    assert prob.m == 1 and prob.n == 2 and prob.p == 2
    assert np.allclose(prob.E.dense(), [[-1.0], [1.0]])
    assert np.allclose(prob.F.dense(), -np.eye(2))
    assert np.allclose(prob.q, [2.0, 2.0])


def test_modal_coordinates_roundtrip():
    s = np.array([0.4, -1.2, 3.0])
    phi = phi_from_state(s, 1.0, 1.0)
    assert np.allclose(state_from_phi(phi, 1.0, 1.0), s, atol=1e-12)


def test_canonical_start_has_pure_drift_mode():
    for beta in (1.0, 7.5):
        s0 = np.array([0.0, 2 * beta + 2, 2 * beta + 2])
        phi0 = phi_from_state(s0, 1.0, 1.0)
        assert abs(phi0[0]) < 1e-12 and abs(phi0[1]) < 1e-12
        assert analytic_exit_time(phi0, 1.0, 1.0) == pytest.approx(beta)


def test_analytic_matches_numeric_inside_region():
    # generic start inside the region: both exponential modes active
    y0 = np.array([6.0, 5.0])
    t_star, traj = counterexample_run(2.0, y0=y0)
    phi0 = phi_from_state(np.concatenate([[0.0], y0]), 1.0, 1.0)
    dense = traj.meta["dense"]
    for t in np.linspace(0.0, 0.95 * t_star, 20):
        phi_t, n_t = analytic_counterexample(phi0, 1.0, 1.0, t)
        s_num = dense(t)
        assert np.max(np.abs(state_from_phi(phi_t, 1.0, 1.0) - s_num)) < 1e-7
        assert np.max(np.abs(region_measurements(s_num, 1.0) - n_t)) < 1e-7


def test_counterexample_rejects_bad_starts():
    with pytest.raises(ValueError):
        counterexample_run(-1.0)
    with pytest.raises(ValueError):
        counterexample_run(1.0, y0=np.array([-10.0, -10.0]))
    # n1 = 0 on the boundary, although the flow would move inward
    assert np.min(region_measurements(np.array([0.0, 2.0, 5.0]), 1.0)) == 0.0
    with pytest.raises(ValueError, match="boundary"):
        counterexample_run(1.0, y0=np.array([2.0, 5.0]))


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_counterexample_rejects_fixed_step(method):
    cfg = flow.IntegratorConfig(method=method, h=0.01, t_end=20.0)
    with pytest.raises(ValueError, match="rk45"):
        counterexample_run(5.0, cfg=cfg)


def test_counterexample_rejects_stop_kkt():
    cfg = flow.IntegratorConfig(t_end=20.0, stop_kkt=1e-3)
    with pytest.raises(ValueError, match="stop_kkt"):
        counterexample_run(5.0, cfg=cfg)


@pytest.mark.parametrize("beta", [1.0, 5.0, 10.0, 20.0])
def test_counterexample_matches_solve_ivp(beta):
    """The shared loop reproduces ``solve_ivp``'s terminal-event run with
    dense output to the bit: exit time, samples, evaluations and the
    interpolant."""
    t_star, traj = counterexample_run(beta)
    s0 = np.array([0.0, 2 * beta + 2, 2 * beta + 2])

    def exit_event(t, s):
        return float(np.min(region_measurements(s, 1.0)))
    exit_event.terminal, exit_event.direction = True, -1
    sol = solve_ivp(examples._reduced_field(1.0, 1.0), (0.0, 2 * beta + 1), s0,
                    method="RK45", rtol=1e-9, atol=1e-12, events=[exit_event],
                    dense_output=True)
    assert sol.status == 1 and traj.termination == "region_exit"
    assert t_star == sol.t_events[0][0] == traj.meta["t_star"]
    assert np.array_equal(traj.times, sol.t) and np.array_equal(traj.states, sol.y.T)
    assert traj.meta["n_evals"] == sol.nfev
    assert traj.meta["steps"] == len(sol.t) - 1
    grid = np.linspace(0.0, 0.99 * t_star, 25)
    assert np.array_equal(traj.meta["dense"](grid), sol.sol(grid))
    # a time on a step's end takes the same piece, in any order, and alone;
    # one past the last end takes the last piece
    ends = sol.sol.ts
    grid = np.r_[ends[::-3], grid[::2], ends[-1] + 0.5, -0.5]
    assert np.array_equal(traj.meta["dense"](grid), sol.sol(grid))
    for t in (*ends[:3], *ends[-2:], ends[-1] + 0.5):
        assert np.array_equal(traj.meta["dense"](t), sol.sol(t))


COUNTEREXAMPLE_IMPORTS = """
import sys
from palflow import examples
t_star, traj = examples.counterexample_run(1.0)
assert traj.meta["dense"](0.5 * t_star).shape == (3,)
print("scipy.integrate" in sys.modules)
"""


def test_counterexample_loads_no_scipy_integrate():
    """The escape-time run and its dense output need no ``scipy.integrate``."""
    out = subprocess.run([sys.executable, "-c", COUNTEREXAMPLE_IMPORTS],
                         capture_output=True, text=True, timeout=120, env=src_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_counterexample_obeys_stride_and_max_steps():
    t_full, full = counterexample_run(5.0)
    cfg = flow.IntegratorConfig(t_end=11.0, record_stride=5)
    t_thin, thin = counterexample_run(5.0, cfg=cfg)
    assert t_thin == t_full and thin.meta["n_evals"] == full.meta["n_evals"]
    keep = np.r_[np.arange(0, len(full.times) - 1, 5), len(full.times) - 1]
    assert np.array_equal(thin.times, full.times[keep])
    assert np.array_equal(thin.states, full.states[keep])
    # the interpolant keeps every step, whatever the stride
    grid = np.linspace(0.0, t_full, 50)
    assert np.array_equal(thin.meta["dense"](grid), full.meta["dense"](grid))
    cfg = flow.IntegratorConfig(t_end=11.0, max_steps=full.meta["steps"] - 1)
    with pytest.raises(flow.FlowError, match="max_steps"):
        counterexample_run(5.0, cfg=cfg)


def test_counterexample_exit_time_scales_with_alpha():
    # drift mode shrinks at rate 2 alpha, so doubling alpha halves the time
    t1, _ = counterexample_run(4.0, alpha=1.0)
    t2, _ = counterexample_run(4.0, alpha=2.0)
    assert t1 == pytest.approx(4.0, abs=1e-6)
    assert t2 == pytest.approx(2.0, abs=1e-6)


def test_reduced_field_consistent_with_full_problem():
    """The eliminated dynamics agree with the full four-variable field when
    z is slaved to the constraint."""
    prob = counterexample_problem()
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal()
        y = rng.standard_normal(2) + 3.0
        z = np.array([-1.0, 1.0]) * x - np.array([2.0, 2.0])
        s = PrimalDualState([np.array([x])], [z], [y], np.zeros(2))
        full = vector_field(prob, s)
        reduced = examples._reduced_field(1.0, 1.0)(0.0, np.concatenate([[x], y]))
        assert full.y[0] == pytest.approx(list(reduced[1:]), abs=1e-12)
