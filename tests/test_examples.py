import numpy as np
import pytest

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

from conftest import consensus_admm


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
