"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v`` (add ``-s`` to see the summary lines even on success).
"""

import time

import numpy as np
import pytest

from palflow import examples, prox
from palflow.diagnostics import (ReferenceSolution, decay_bound,
                                 distance_to_solution, dual_function,
                                 envelope_violation, fit_exponential_rate,
                                 lyapunov_v1, lyapunov_v1_derivative)
from palflow.distributed import (agent_states_from_central, assemble_consensus,
                                 simulate, unpack_agents)
from palflow.examples import (analytic_counterexample, counterexample_run,
                              finite_objective, gen_covariance_completion,
                              gen_lasso_network, gen_pcp,
                              gen_sparse_group_lasso, phi_from_state,
                              region_measurements, state_from_phi)
from palflow.flow import (IntegratorConfig, blockwise_field, integrate,
                          vector_field)
from palflow.linops import (BlockOperator, LinearOperator, null_projection,
                            vec)
from palflow.problem import (NonsmoothBlock, SaddleProblem, SmoothBlock,
                             ges_certificate, kkt_residual)

from conftest import composite_instance, quadratic_equality_instance


def report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


# ---------------------------------------------------------------------------
# criterion 1: escape time of the region-exit construction

def test_criterion_1_escape_time():
    t0 = time.time()
    worst_time_err = 0.0
    worst_traj_err = 0.0
    for beta in (1.0, 5.0, 10.0, 20.0):
        t_star, traj = counterexample_run(beta, mu=1.0, alpha=1.0)
        worst_time_err = max(worst_time_err, abs(t_star - beta))
        phi0 = phi_from_state(np.array([0.0, 2 * beta + 2, 2 * beta + 2]), 1.0, 1.0)
        dense = traj.meta["dense"]
        for t in np.linspace(0.0, 0.99 * t_star, 25):
            phi_t, n_t = analytic_counterexample(phi0, 1.0, 1.0, t)
            s_num = dense(t)
            worst_traj_err = max(
                worst_traj_err,
                float(np.max(np.abs(state_from_phi(phi_t, 1.0, 1.0) - s_num))),
                float(np.max(np.abs(region_measurements(s_num, 1.0) - n_t))))
    wall = time.time() - t0
    ok = worst_time_err <= 1e-6 and worst_traj_err <= 1e-7 and wall < 5.0
    report(1, ok, f"exit-time err {worst_time_err:.2e} (<=1e-6), "
                  f"trajectory err {worst_traj_err:.2e} (<=1e-7), {wall:.2f}s (<5s)")
    assert worst_time_err <= 1e-6
    assert worst_traj_err <= 1e-7
    assert wall < 5.0


# ---------------------------------------------------------------------------
# criteria 2 and 7 share the certified strongly convex runs

@pytest.fixture(scope="module")
def certified_runs():
    runs = []
    for seed, dup in ((11, False), (12, True)):
        rng = np.random.default_rng(seed)
        prob, s_star = quadratic_equality_instance(
            rng, p=3, dims=(4, 3), duplicate_row=dup, curvature=5.0,
            a_scale=0.45)
        cert0 = ges_certificate(prob)
        prob.alpha = min(1.0, 0.9 * cert0.alpha_bar2)
        cert = ges_certificate(prob)
        assert 0.0 < prob.alpha < cert.alpha_bar2
        ref = ReferenceSolution.from_state(prob, s_star)
        s0 = prob.random_state(np.random.default_rng(seed + 100))
        traj = integrate(prob, s0,
                         IntegratorConfig(t_end=900.0, stop_kkt=1e-10))
        runs.append((prob, cert, ref, s0, traj))
    return runs


def test_criterion_2_ges_envelope(certified_runs):
    t0 = time.time()
    worst_violation = -np.inf
    min_margin = np.inf
    for prob, cert, ref, s0, traj in certified_runs:
        sq = np.array([distance_to_solution(prob, traj.state(i), ref) ** 2
                       for i in range(len(traj.times))])
        v = envelope_violation(traj.times, sq, cert.M2, cert.rho2)
        worst_violation = max(worst_violation, v / max(sq[0], 1e-30))
        # fit over the clean exponential segment, before the squared distance
        # sinks into the integrator's accuracy floor
        keep = sq > 1e-13 * sq[0]
        fit = fit_exponential_rate(traj.times[keep], sq[keep],
                                   tail_fraction=0.5)
        min_margin = min(min_margin, fit.rate / cert.rho2)
    wall = time.time() - t0
    ok = worst_violation <= 1e-10 and min_margin >= 1.0 and wall < 10.0
    report(2, ok, f"worst relative envelope excess {worst_violation:.2e} (<=0), "
                  f"fitted rate / rho2 = {min_margin:.3g} (>=1), {wall:.2f}s (<10s)")
    assert worst_violation <= 1e-10
    assert min_margin >= 1.0
    assert wall < 10.0


def test_criterion_7_multiplier_range_invariant(certified_runs):
    worst_null = 0.0
    worst_final = 0.0
    for prob, cert, ref, s0, traj in certified_runs:
        EF = prob._EF_dense()
        lam0 = s0.lam
        for i in range(len(traj.times)):
            drift = null_projection(EF, traj.state(i).lam - lam0)
            worst_null = max(worst_null, float(np.linalg.norm(drift)))
        # optimal multiplier affine set {lam : E^T lam = -grad f(x*)}; the
        # limit is the projection of lam(0) onto it
        gstar = np.concatenate([vec(g) for g in prob.f_grad(ref.state.x)])
        lam_p, *_ = np.linalg.lstsq(prob.E.dense().T, -gstar, rcond=None)
        lam_proj = lam_p + null_projection(EF, lam0 - lam_p)
        worst_final = max(worst_final,
                          float(np.linalg.norm(traj.final_state().lam - lam_proj)))
    ok = worst_null <= 1e-8 and worst_final <= 1e-6
    report(7, ok, f"null-space drift {worst_null:.2e} (<=1e-8), "
                  f"final multiplier vs projected start {worst_final:.2e} (<=1e-6)")
    assert worst_null <= 1e-8
    assert worst_final <= 1e-6


# ---------------------------------------------------------------------------
# criterion 3: dissipation inequality along trajectories

def test_criterion_3_dissipation():
    """The reference saddle point is the end of a settle run from the zero
    state, stopped at KKT 1e-11 or at t = 600. Most settle runs reach t = 600
    first (seeds 201-204 end at KKT 2e-11 to 2.2e-10), so the reference is
    the state the flow holds there, and its KKT residual is bounded here."""
    worst_slack = -np.inf
    worst_increase = -np.inf
    worst_settle_kkt = 0.0
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        prob = composite_instance(rng)
        settle = integrate(prob, prob.zero_state(),
                           IntegratorConfig(t_end=600.0, stop_kkt=1e-11))
        settle_kkt = kkt_residual(prob, settle.final_state())
        assert settle_kkt <= 1e-9, f"settle run {200 + seed} ended at KKT {settle_kkt:.2e}"
        worst_settle_kkt = max(worst_settle_kkt, settle_kkt)
        ref = ReferenceSolution.from_state(prob, settle.final_state())
        traj = integrate(prob, prob.random_state(rng),
                         IntegratorConfig(t_end=40.0, rel_tol=1e-10,
                                          abs_tol=1e-12))
        assert len(traj.times) >= 200, "need at least 200 trajectory samples"
        idx = np.linspace(0, len(traj.times) - 1, 200).astype(int)
        prev = np.inf
        for i in idx:
            s = traj.state(i)
            dv = lyapunov_v1_derivative(prob, s, ref)
            bound = decay_bound(prob, s, ref)
            worst_slack = max(worst_slack, dv - bound)
            v = lyapunov_v1(prob, s, ref)
            if np.isfinite(prev):
                worst_increase = max(worst_increase, v - prev)
            prev = v
    ok = worst_slack <= 1e-8 and worst_increase <= 1e-8
    report(3, ok, f"max (dV1/dt - bound) = {worst_slack:.2e} (<=1e-8), "
                  f"max V1 increase = {worst_increase:.2e} (<=1e-8), "
                  f"worst reference KKT = {worst_settle_kkt:.2e} (<=1e-9)")
    assert worst_slack <= 1e-8
    assert worst_increase <= 1e-8


# ---------------------------------------------------------------------------
# criterion 4: field and trajectory equivalences

def test_criterion_4_equivalences():
    worst_field = 0.0
    count = 0
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        prob = composite_instance(rng)
        for _ in range(10):
            s = prob.random_state(rng)
            v1 = prob.pack(vector_field(prob, s))
            v2 = prob.pack(blockwise_field(prob, s))
            scale = max(1.0, float(np.max(np.abs(v1))))
            worst_field = max(worst_field, float(np.max(np.abs(v1 - v2))) / scale)
            count += 1
    assert count == 100

    net, _ = gen_lasso_network(4, 6, 3, seed=42)
    prob = assemble_consensus(net)
    rng = np.random.default_rng(43)
    s0 = prob.random_state(rng, scale=0.3)
    cfg = IntegratorConfig(t_end=10.0, rel_tol=1e-11, abs_tol=1e-13)
    central = integrate(prob, s0, cfg)
    dec = simulate(net, agent_states_from_central(net, s0), cfg, 1.0, 1.0)
    fc = agent_states_from_central(net, central.final_state())
    fd = unpack_agents(net, dec.states[-1])
    traj_err = max(float(np.max(np.abs(getattr(a, f) - getattr(b, f))))
                   for a, b in zip(fc, fd)
                   for f in ("x", "z", "y", "lam1", "lam2"))
    ok = worst_field <= 1e-14 and traj_err <= 1e-7
    report(4, ok, f"blockwise vs monolithic {worst_field:.2e} (<=1e-14 rel), "
                  f"decentralized vs centralized at t=10 {traj_err:.2e} (<=1e-7)")
    assert worst_field <= 1e-14
    assert traj_err <= 1e-7


# ---------------------------------------------------------------------------
# criterion 5: prox property suite

def test_criterion_5_prox_suite():
    t0 = time.time()
    rng = np.random.default_rng(77)
    part = prox.GroupPartition([np.arange(3), np.arange(3, 6)], [0.7, 1.2],
                               eta=0.3)
    mask = (rng.random((3, 3)) < 0.7).astype(float)
    kinds = [
        ("l1", prox.l1(0.9), (6,)),
        ("group_lasso", prox.group_lasso(part), (6,)),
        ("nuclear", prox.nuclear(1.1), (3, 3)),
        ("indicator_orthant", prox.indicator_orthant("nonpos"), (6,)),
        ("frobenius_ball_masked", prox.frobenius_ball_masked(1.5, mask), (3, 3)),
        ("zero", prox.zero(), (6,)),
    ]
    cases_per_kind = 1000
    worst = {"firm": -np.inf, "argmin": -np.inf, "fd": -np.inf}
    for name, g, shape in kinds:
        indicator = name.startswith(("indicator", "frobenius"))
        for _ in range(cases_per_kind):
            mu = float(rng.uniform(0.1, 3.0))
            u = 3.0 * rng.standard_normal(shape)
            v = 3.0 * rng.standard_normal(shape)
            pu, pv = g.prox(mu, u), g.prox(mu, v)
            lhs = float(np.sum((pu - pv) ** 2))
            rhs = float(np.sum((u - v) * (pu - pv)))
            worst["firm"] = max(worst["firm"], (lhs - rhs) / (1 + abs(rhs)))

            # argmin optimality against random (feasible) perturbations
            w = pu + 0.5 * rng.standard_normal(shape)
            if indicator:
                w = g.prox(mu, w)      # feasible competitor
                obj_p = float(np.sum((pu - u) ** 2)) / (2 * mu)
                obj_w = float(np.sum((w - u) ** 2)) / (2 * mu)
            else:
                obj_p = g(pu) + float(np.sum((pu - u) ** 2)) / (2 * mu)
                obj_w = g(w) + float(np.sum((w - u) ** 2)) / (2 * mu)
            worst["argmin"] = max(worst["argmin"],
                                  (obj_p - obj_w) / (1 + abs(obj_w)))

            # Moreau gradient vs a central finite difference along a
            # random direction
            e = rng.standard_normal(shape)
            e /= np.linalg.norm(e)
            h = 1e-6 * (1.0 + float(np.linalg.norm(u)))
            fd = (prox.moreau_value(g, mu, u + h * e)
                  - prox.moreau_value(g, mu, u - h * e)) / (2 * h)
            an = float(np.sum(prox.moreau_grad(g, mu, u) * e))
            worst["fd"] = max(worst["fd"], abs(fd - an) / (1 + abs(an)))
    wall = time.time() - t0
    ok = (worst["firm"] <= 1e-10 and worst["argmin"] <= 1e-10
          and worst["fd"] <= 1e-5 and wall < 30.0)
    report(5, ok, f"firm nonexpansiveness excess {worst['firm']:.2e}, "
                  f"argmin excess {worst['argmin']:.2e}, "
                  f"gradient FD mismatch {worst['fd']:.2e} (<=1e-5), "
                  f"{6 * cases_per_kind} cases, {wall:.1f}s (<30s)")
    assert worst["firm"] <= 1e-10
    assert worst["argmin"] <= 1e-10
    assert worst["fd"] <= 1e-5
    assert wall < 30.0


# ---------------------------------------------------------------------------
# criterion 6: desk-scale example reproduction

def _monotone_after_transient(times, values, transient_fraction=0.2,
                              slack=1e-8):
    start = int(len(values) * transient_fraction)
    worst = -np.inf
    for a, b in zip(values[start:-1], values[start + 1:]):
        worst = max(worst, b - a - slack * (1.0 + abs(a)))
    return worst


def test_criterion_6_examples():
    t0 = time.time()
    details = []
    checks = []

    # network lasso vs the centralized accelerated proximal gradient oracle
    net, ref1 = gen_lasso_network(5, 20, 3, seed=0)
    prob1 = assemble_consensus(net)
    traj1 = integrate(prob1, prob1.zero_state(),
                      IntegratorConfig(t_end=600.0, record_stride=10))
    s1 = traj1.final_state()
    rel1 = abs(prob1.objective(s1.x, s1.z) - ref1.optimal_value) / abs(ref1.optimal_value)
    checks.append(rel1 < 1e-6)
    details.append(f"network lasso rel err {rel1:.2e} (<1e-6)")

    # sparse group lasso vs the composite oracle
    prob4, ref4 = gen_sparse_group_lasso(20, 200, 10, seed=2, alpha=3.0)
    traj4 = integrate(prob4, prob4.zero_state(),
                      IntegratorConfig(t_end=250.0, record_stride=20))
    s4 = traj4.final_state()
    rel4 = abs(prob4.objective(s4.x, s4.z) - ref4.optimal_value) / abs(ref4.optimal_value)
    checks.append(rel4 < 1e-6)
    details.append(f"sparse group lasso rel err {rel4:.2e} (<1e-6)")

    # principal component pursuit: monotone finite objective, residual decay
    prob2, _ = gen_pcp(40, 3, seed=3)
    traj2 = integrate(prob2, prob2.zero_state(),
                      IntegratorConfig(t_end=150.0, record_stride=5))
    obj2 = np.array([finite_objective(prob2, traj2.state(i))
                     for i in range(len(traj2.times))])
    inc2 = _monotone_after_transient(traj2.times, obj2)
    kkt2 = traj2.diagnostics["kkt_residual"]
    fit2 = fit_exponential_rate(traj2.times, kkt2 ** 2, tail_fraction=0.5)
    checks.append(inc2 <= 0 and kkt2[-1] < 1e-6 and fit2.r_squared > 0.95)
    details.append(f"pcp monotone excess {inc2:.2e} (<=0), "
                   f"kkt {kkt2[-1]:.2e} (<1e-6), r2 {fit2.r_squared:.3f} (>0.95)")

    # covariance completion: monotone objective, residual decay
    prob3, s03 = gen_covariance_completion(6, seed=4)
    traj3 = integrate(prob3, s03, IntegratorConfig(t_end=600.0, record_stride=5))
    obj3 = np.array([finite_objective(prob3, traj3.state(i))
                     for i in range(len(traj3.times))])
    inc3 = _monotone_after_transient(traj3.times, obj3)
    kkt3 = traj3.diagnostics["kkt_residual"]
    fit3 = fit_exponential_rate(traj3.times, kkt3 ** 2, tail_fraction=0.5)
    checks.append(inc3 <= 0 and kkt3[-1] < 1e-6 and fit3.r_squared > 0.95)
    details.append(f"covariance monotone excess {inc3:.2e} (<=0), "
                   f"kkt {kkt3[-1]:.2e} (<1e-6), r2 {fit3.r_squared:.3f} (>0.95)")

    wall = time.time() - t0
    checks.append(wall < 180.0)
    details.append(f"{wall:.0f}s (<180s)")
    ok = all(checks)
    report(6, ok, "; ".join(details))
    assert all(checks), "; ".join(details)


# ---------------------------------------------------------------------------
# criterion 8: dual function smoothness and optimum

def test_criterion_8_dual_function():
    rng = np.random.default_rng(500)
    A = rng.standard_normal((6, 4))
    smooth = [SmoothBlock.quadratic(A.T @ A + np.eye(4), rng.standard_normal(4))]
    nonsmooth = [NonsmoothBlock(prox.l1(0.6), (3,))]
    E = BlockOperator([LinearOperator.from_matrix(rng.standard_normal((5, 4)))])
    F = BlockOperator([LinearOperator.from_matrix(rng.standard_normal((5, 3)))])
    q = E.apply([rng.standard_normal(4)]) + F.apply([rng.standard_normal(3)])
    prob = SaddleProblem(smooth, nonsmooth, E, F, q, mu=1.0)

    worst_ratio = -np.inf
    for _ in range(200):
        y1, l1_ = [rng.standard_normal(3)], rng.standard_normal(5)
        y2, l2_ = [rng.standard_normal(3)], rng.standard_normal(5)
        g1 = dual_function(prob, y1, l1_).grad_flat()
        g2 = dual_function(prob, y2, l2_).grad_flat()
        delta = np.sqrt(float(np.sum((y1[0] - y2[0]) ** 2))
                        + float(np.sum((l1_ - l2_) ** 2)))
        worst_ratio = max(worst_ratio,
                          float(np.linalg.norm(g1 - g2)) / (prob.mu * delta))

    settle = integrate(prob, prob.zero_state(),
                       IntegratorConfig(t_end=2000.0, stop_kkt=1e-10))
    s_star = settle.final_state()
    ev = dual_function(prob, s_star.y, s_star.lam, inner_tol=1e-12,
                       x0=s_star.x, z0=s_star.z)
    grad_norm = float(np.linalg.norm(ev.grad_flat()))
    opt = prob.objective(s_star.x, s_star.z)
    gap = abs(ev.value - opt)
    ok = worst_ratio <= 1.0 + 1e-6 and grad_norm < 1e-7 and gap < 1e-7
    report(8, ok, f"max Lipschitz ratio {worst_ratio:.6f} (<=1+1e-6), "
                  f"gradient at optimum {grad_norm:.2e} (<1e-7), "
                  f"value gap {gap:.2e} (<1e-7)")
    assert worst_ratio <= 1.0 + 1e-6
    assert grad_norm < 1e-7
    assert gap < 1e-7
