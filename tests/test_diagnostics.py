import numpy as np
import pytest

from palflow import prox
from palflow.diagnostics import (DualSolveError, ReferenceSolution,
                                 distance_to_solution, dual_function,
                                 envelope_violation, fit_exponential_rate,
                                 lyapunov_v1, lyapunov_v1_derivative,
                                 decay_bound, lyapunov_v2)
from palflow.distributed import assemble_consensus
from palflow.examples import gen_lasso_network
from palflow.flow import IntegratorConfig, integrate
from palflow.linops import BlockOperator, LinearOperator
from palflow.problem import (NonsmoothBlock, PrimalDualState, SaddleProblem,
                             SmoothBlock)

from conftest import composite_instance, quadratic_equality_instance


def one_dim_equality(mu=1.0):
    smooth = [SmoothBlock.quadratic(np.array([[1.0]]))]
    E = BlockOperator([LinearOperator.from_matrix(np.array([[1.0]]))])
    return SaddleProblem(smooth, [], E, BlockOperator([], p=1),
                         np.array([1.0]), mu=mu)


# -- quadratic distance function ---------------------------------------------

def test_v1_zero_at_reference(rng):
    prob, s_star = quadratic_equality_instance(rng)
    ref = ReferenceSolution.from_state(prob, s_star)
    assert lyapunov_v1(prob, s_star, ref) == pytest.approx(0.0, abs=1e-20)


def test_v1_alpha_weights_primal_only(rng):
    prob, s_star = quadratic_equality_instance(rng)
    ref = ReferenceSolution.from_state(prob, s_star)
    s = prob.random_state(rng)
    prob.alpha = 1.0
    v_a = lyapunov_v1(prob, s, ref)
    prob.alpha = 2.0
    v_2a = lyapunov_v1(prob, s, ref)
    primal = sum(float(np.sum((a - b) ** 2))
                 for a, b in zip(s.x, s_star.x)) / 2.0
    assert v_2a - v_a == pytest.approx(primal, rel=1e-10)


def test_v1_derivative_matches_numeric_difference(rng):
    prob, s_star = quadratic_equality_instance(rng)
    ref = ReferenceSolution.from_state(prob, s_star)
    s0 = prob.random_state(rng)
    cfg = IntegratorConfig(t_end=1e-5, rel_tol=1e-12, abs_tol=1e-14)
    traj = integrate(prob, s0, cfg)
    v0 = lyapunov_v1(prob, traj.state(0), ref)
    v1 = lyapunov_v1(prob, traj.final_state(), ref)
    dt = traj.times[-1] - traj.times[0]
    assert (v1 - v0) / dt == pytest.approx(
        lyapunov_v1_derivative(prob, s0, ref), rel=1e-3)


def test_decay_bound_dominates_derivative(rng):
    prob = composite_instance(rng)
    long = integrate(prob, prob.zero_state(),
                     IntegratorConfig(t_end=400.0, stop_kkt=1e-11))
    ref = ReferenceSolution.from_state(prob, long.final_state())
    traj = integrate(prob, prob.random_state(rng), IntegratorConfig(t_end=5.0))
    prev = np.inf
    for i in range(len(traj.times)):
        s = traj.state(i)
        assert lyapunov_v1_derivative(prob, s, ref) <= decay_bound(prob, s, ref) + 1e-8
        v = lyapunov_v1(prob, s, ref)
        assert v <= prev + 1e-8 * (1.0 + v)
        prev = v


@pytest.mark.parametrize("name", ["composite", "network_lasso"])
def test_decay_bound_is_its_formula(name, rng):
    """Every smooth block's gradient gap counts, a least-squares agent's
    too: the bound equals ``-(a / max(L_f, mu)) (||grad f(x) - grad
    f(x*)||^2 + ||z - prox(z + mu y)||^2 + ||r||^2)``, block by block."""
    if name == "composite":
        prob = composite_instance(rng, mu=0.6, alpha=1.7)
    else:
        prob = assemble_consensus(gen_lasso_network(3, 4, 3, seed=0)[0])
    ref = ReferenceSolution(state=prob.random_state(rng))
    for _ in range(3):
        s = prob.random_state(rng)
        gaps = [g - g_ref for g, g_ref in zip(prob.f_grad(s.x), prob.f_grad(ref.state.x))]
        gy = [z - p for z, p in zip(s.z, prob.prox_g([z + prob.mu * y
                                                      for z, y in zip(s.z, s.y)]))]
        r = prob.constraint_residual(s.x, s.z)
        total = sum(float(np.sum(a ** 2)) for a in gaps + gy + [r])
        assert sum(float(np.sum(a ** 2)) for a in gaps) > 0.1 * total
        want = -prob.alpha / max(prob.L_f, prob.mu) * total
        assert decay_bound(prob, s, ref) == pytest.approx(want, rel=1e-12)


# -- dual function -----------------------------------------------------------

def test_dual_closed_form_scalar():
    mu = 1.3
    prob = one_dim_equality(mu)
    for lam in (-2.0, -1.0, 0.0, 0.8):
        ev = dual_function(prob, [], np.array([lam]))
        a = 1.0 - mu * lam
        expected = a ** 2 / (2.0 * (1.0 + mu)) - 0.5 * mu * lam ** 2
        assert ev.value == pytest.approx(expected, abs=1e-6)
        x_bar = a / (1.0 + mu)
        assert ev.grad_lam[0] == pytest.approx(x_bar - 1.0, abs=1e-6)


def test_dual_optimum_matches_primal_optimum():
    prob = one_dim_equality()
    ev = dual_function(prob, [], np.array([-1.0]))
    assert ev.value == pytest.approx(0.5, abs=1e-8)
    assert np.linalg.norm(ev.grad_flat()) < 1e-8


def test_dual_unbounded_detected():
    # zero curvature with a nonzero linear term: the inner problem has no
    # minimizer for generic multipliers
    smooth = [SmoothBlock(shape=(1,), value=lambda x: float(x[0]),
                          grad=lambda x: np.ones(1), lipschitz=1.0)]
    E = BlockOperator([LinearOperator.from_matrix(np.array([[0.0]]))])
    prob = SaddleProblem(smooth, [], E, BlockOperator([], p=1), np.zeros(1))
    with pytest.raises(DualSolveError):
        dual_function(prob, [], np.zeros(1), max_iters=20000)


def test_dual_quadratic_closed_form(rng):
    # PAL of a strongly convex quadratic with no z blocks: the minimiser
    # solves (H + E^T E / mu) x = -c - E^T lam + E^T q / mu
    mu = 0.7
    A = rng.standard_normal((6, 4))
    H, c = A.T @ A + np.eye(4), rng.standard_normal(4)
    E, q, lam = (rng.standard_normal((3, 4)), rng.standard_normal(3),
                 rng.standard_normal(3))
    prob = SaddleProblem([SmoothBlock.quadratic(H, c)], [],
                         BlockOperator([LinearOperator.from_matrix(E)]),
                         BlockOperator([], p=3), q, mu=mu)
    x = np.linalg.solve(H + E.T @ E / mu, -c - E.T @ lam + E.T @ q / mu)
    r = E @ x - q
    ev = dual_function(prob, [], lam)
    assert np.max(np.abs(ev.x[0] - x)) < 1e-9
    assert np.max(np.abs(ev.grad_flat() - r)) < 1e-9
    value = 0.5 * x @ H @ x + c @ x + np.sum((r + mu * lam) ** 2) / (2 * mu) \
        - 0.5 * mu * lam @ lam
    assert ev.value == pytest.approx(value, rel=1e-12)
    assert ev.grad_norm_inner <= 1e-10


def test_dual_inner_iterations_on_criterion_8_instance():
    # criterion 8's instance; function-value restart took a median of 567
    rng = np.random.default_rng(500)
    A = rng.standard_normal((6, 4))
    smooth = [SmoothBlock.quadratic(A.T @ A + np.eye(4), rng.standard_normal(4))]
    nonsmooth = [NonsmoothBlock(prox.l1(0.6), (3,))]
    E = BlockOperator([LinearOperator.from_matrix(rng.standard_normal((5, 4)))])
    F = BlockOperator([LinearOperator.from_matrix(rng.standard_normal((5, 3)))])
    q = E.apply([rng.standard_normal(4)]) + F.apply([rng.standard_normal(3)])
    prob = SaddleProblem(smooth, nonsmooth, E, F, q, mu=1.0)
    iters = [dual_function(prob, [rng.standard_normal(3)],
                           rng.standard_normal(5)).iterations
             for _ in range(20)]
    assert np.median(iters) <= 300


def test_dual_function_factors_EF_once(rng, svd_calls):
    prob = composite_instance(rng)
    for _ in range(3):
        s = prob.random_state(rng)
        dual_function(prob, s.y, s.lam)
    assert svd_calls == [(prob.p, prob.m + prob.n)]


def test_dual_iteration_cap_error():
    with pytest.raises(DualSolveError, match="inner solve failed"):
        dual_function(one_dim_equality(), [], np.zeros(1), max_iters=1)


def test_dual_unbounded_error():
    # steep linear objective and E = 0: the value passes -1e12 at once
    smooth = [SmoothBlock(shape=(1,), value=lambda x: 1e9 * float(x[0]),
                          grad=lambda x: np.full(1, 1e9), lipschitz=1.0)]
    E = BlockOperator([LinearOperator.from_matrix(np.array([[0.0]]))])
    prob = SaddleProblem(smooth, [], E, BlockOperator([], p=1), np.zeros(1))
    with pytest.raises(DualSolveError, match="unbounded below"):
        dual_function(prob, [], np.zeros(1), max_iters=100)


def test_dual_nan_gradient_fails_at_cap():
    # a NaN residual never passes the stop test and must not pass the cap's
    smooth = [SmoothBlock(shape=(1,), value=lambda x: float(x[0]) ** 2,
                          grad=lambda x: np.full(1, np.nan), lipschitz=1.0)]
    E = BlockOperator([LinearOperator.from_matrix(np.array([[1.0]]))])
    prob = SaddleProblem(smooth, [], E, BlockOperator([], p=1), np.zeros(1))
    with pytest.raises(DualSolveError, match="inner solve failed: gradient norm nan"):
        dual_function(prob, [], np.zeros(1), max_iters=50)


def test_duality_gaps_nonnegative_and_zero_at_saddle(rng):
    prob, s_star = quadratic_equality_instance(rng)
    ref = ReferenceSolution.from_state(prob, s_star)
    gaps = lyapunov_v2(prob, s_star, ref)
    assert gaps.total == pytest.approx(0.0, abs=1e-6)
    s = prob.random_state(rng, scale=0.5)
    gaps2 = lyapunov_v2(prob, s, ref)
    assert gaps2.primal_gap >= -1e-7
    assert gaps2.dual_gap >= -1e-7
    assert gaps2.total >= -1e-7


def test_duality_gap_decays_exponentially(rng):
    prob, s_star = quadratic_equality_instance(rng, p=2, dims=(3,))
    ref = ReferenceSolution.from_state(prob, s_star)
    traj = integrate(prob, prob.random_state(rng), IntegratorConfig(t_end=5.0))
    idx = np.linspace(0, len(traj.times) - 1, 10).astype(int)
    times = traj.times[idx]
    vals = np.array([max(lyapunov_v2(prob, traj.state(i), ref).total, 1e-16)
                     for i in idx])
    fit = fit_exponential_rate(times, vals, tail_fraction=0.9, floor=1e-17)
    assert fit.rate > 0
    assert fit.r_squared > 0.98


# -- distance and rate fitting -----------------------------------------------

def test_distance_zero_at_reference(rng):
    prob, s_star = quadratic_equality_instance(rng)
    ref = ReferenceSolution.from_state(prob, s_star)
    assert distance_to_solution(prob, s_star, ref) == pytest.approx(0.0, abs=1e-14)


def test_distance_isolates_perturbation(rng):
    prob, s_star = quadratic_equality_instance(rng)
    ref = ReferenceSolution.from_state(prob, s_star)
    s = s_star.copy()
    s.x[0] = s.x[0] + np.array([3e-3, 0, 0, 0])
    assert distance_to_solution(prob, s, ref) == pytest.approx(3e-3, rel=1e-10)


def test_distance_projects_null_space_multiplier(rng):
    prob, s_star = quadratic_equality_instance(rng, duplicate_row=True)
    ref = ReferenceSolution.from_state(prob, s_star)
    null_dir = np.zeros(prob.p)
    null_dir[0], null_dir[-1] = 1.0, -1.0    # duplicated rows: lam moves freely here
    s = s_star.copy()
    s.lam = s.lam + 5.0 * null_dir
    assert distance_to_solution(prob, s, ref) == pytest.approx(0.0, abs=1e-9)


def test_fit_exact_exponential():
    t = np.linspace(0, 4, 50)
    fit = fit_exponential_rate(t, 9.0 * np.exp(-2.0 * t), tail_fraction=1.0)
    assert fit.rate == pytest.approx(2.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert np.exp(fit.log_intercept) == pytest.approx(9.0, rel=1e-10)


def test_fit_rejects_too_few_samples():
    t = np.linspace(0, 1, 10)
    with pytest.raises(ValueError):
        fit_exponential_rate(t, np.full(10, 1e-30))


def test_envelope_violation_sign():
    t = np.linspace(0, 3, 30)
    d = np.exp(-1.0 * t)
    assert envelope_violation(t, d, M2=2.0, rho2=0.5) <= 0.0
    assert envelope_violation(t, d, M2=0.5, rho2=0.5) > 0.0
