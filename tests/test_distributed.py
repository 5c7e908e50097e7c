import numpy as np
import pytest
import scipy.sparse as sp

from conftest import reference_decentralized_field, same_doubles
from palflow import flow, problem, prox
from palflow.distributed import (AgentData, AgentState, DivergenceError,
                                 Network, agent_states_from_central,
                                 assemble_consensus, decentralized_field,
                                 incidence, pack_agents, run_discrete,
                                 simulate, split_multiplier, unpack_agents)
from palflow.flow import IntegratorConfig, vector_field
from palflow.examples import gen_lasso_network
from palflow.linops import LinearOperator, unvec, vec
from palflow.problem import SmoothBlock, kkt_residual


def small_net(k=3, d=2, seed=0, with_chord=True):
    rng = np.random.default_rng(seed)
    agents = []
    for _ in range(k):
        M = rng.standard_normal((d + 1, d))
        agents.append(AgentData(f=SmoothBlock.least_squares(M, rng.standard_normal(d + 1)),
                                g=prox.l1(0.3),
                                C=LinearOperator.identity((d,))))
    edges = [(i, (i + 1) % k) for i in range(k)] if k > 1 else []
    if not with_chord and k > 1:
        edges = [(i, i + 1) for i in range(k - 1)]
    return Network(k, edges, agents)


# -- graph structure ---------------------------------------------------------

def test_incidence_path_two_nodes():
    net = small_net(k=2, with_chord=False)
    T = incidence(net).dense()
    assert T.shape == (1, 2)
    assert np.allclose(np.abs(T), [[1.0, 1.0]])
    assert np.allclose(T.T @ T, [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_row_sums_and_null_space():
    net = small_net(k=5)
    T = incidence(net).dense()
    L = T.T @ T
    assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(T @ np.ones(net.k), 0.0, atol=1e-12)


def test_network_validation():
    agents = [AgentData(f=SmoothBlock.quadratic(np.eye(1)), g=prox.l1(),
                        C=LinearOperator.identity((1,))) for _ in range(3)]
    with pytest.raises(ValueError):
        Network(3, [(0, 0), (1, 2)], agents)          # self loop
    with pytest.raises(ValueError):
        Network(3, [(0, 1), (1, 0), (1, 2)], agents)  # duplicate
    with pytest.raises(ValueError):
        Network(3, [(0, 1)], agents)                  # disconnected
    with pytest.raises(ValueError):
        Network(3, [(0, 5), (0, 1), (1, 2)], agents)  # out of range
    with pytest.raises(ValueError):
        Network(3, [(0, 1), (1, 2)], agents[:2])      # agent count


@pytest.mark.parametrize("seed", range(6))
def test_connectivity_is_connected_components(seed):
    """The breadth-first search accepts exactly the edge sets scipy's
    ``connected_components`` finds connected, sparse and dense ones alike."""
    from scipy.sparse.csgraph import connected_components
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 12))
    agents = [AgentData(f=SmoothBlock.quadratic(np.eye(1)), g=prox.l1(),
                        C=LinearOperator.identity((1,))) for _ in range(k)]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    verdicts = set()
    for p in np.linspace(0.05, 0.6, 12):
        edges = [e for e in pairs if rng.random() < p]
        r, c = np.array(edges, dtype=int).reshape(-1, 2).T
        adj = sp.coo_matrix((np.ones(len(r)), (r, c)), shape=(k, k))
        connected = connected_components(adj, directed=False)[0] == 1
        try:
            Network(k, edges, agents)
            built = True
        except ValueError as e:
            assert "connected" in str(e)
            built = False
        assert built == connected
        verdicts.add(connected)
    assert verdicts == {True, False}


def test_single_agent_reduces_to_composite():
    net = small_net(k=1)
    prob = assemble_consensus(net)
    assert prob.p == net.x_dim           # only the local measurement rows
    assert len(prob.smooth_blocks) == 1


# -- field equivalence -------------------------------------------------------

def test_decentralized_matches_centralized_field(rng):
    net = small_net()
    prob = assemble_consensus(net, mu=0.8, alpha=1.3)
    s = prob.random_state(rng)
    central = vector_field(prob, s)
    agents = agent_states_from_central(net, s)
    local = decentralized_field(net, agents, alpha=1.3, mu=0.8)
    dl1, dl2 = split_multiplier(net, prob.pack(central)[-prob.p:])
    # pack(central) tail is the lam derivative because packing ends with lam
    for i in range(net.k):
        assert np.allclose(local[i].x, central.x[i], atol=1e-13)
        assert np.allclose(local[i].z, central.z[i], atol=1e-13)
        assert np.allclose(local[i].y, central.y[i], atol=1e-13)
        assert np.allclose(local[i].lam1, dl1[i], atol=1e-13)
        assert np.allclose(local[i].lam2, dl2[i], atol=1e-13)


def test_field_zero_at_consensus_kkt(rng):
    net = small_net()
    prob = assemble_consensus(net)
    traj = flow.integrate(prob, prob.zero_state(),
                          IntegratorConfig(t_end=3000.0, stop_kkt=1e-10,
                                           rel_tol=1e-11, abs_tol=1e-13))
    s = traj.final_state()
    assert kkt_residual(prob, s) < 1e-9
    local = decentralized_field(net, agent_states_from_central(net, s),
                                alpha=1.0, mu=1.0)
    for st in local:
        for part in (st.x, st.z, st.y, st.lam1, st.lam2):
            assert np.max(np.abs(part)) < 1e-8


def test_locality_stencil(rng):
    net = small_net(k=5, with_chord=False)      # path graph 0-1-2-3-4
    base = rng.standard_normal(5 * 2 * 5)
    ref = decentralized_field(net, unpack_agents(net, base), alpha=1.0, mu=1.0)
    for j, sl in enumerate(net.slices):
        for part, s in zip(("x", "z", "y", "lam1", "lam2"), sl):
            for e in range(s.start, s.stop):
                u = base.copy()
                u[e] += 1.0
                out = decentralized_field(net, unpack_agents(net, u), alpha=1.0, mu=1.0)
                changed = {i for i in range(5) if not all(
                    np.array_equal(getattr(out[i], a), getattr(ref[i], a))
                    for a in ("x", "z", "y", "lam1", "lam2"))}
                # only x crosses an edge: a neighbor reads it, nothing else
                want = {i for i in (j - 1, j, j + 1) if 0 <= i < 5} if part == "x" else {j}
                assert changed == want, (j, part, e)


# -- discrete algorithm ------------------------------------------------------

def test_discrete_step_is_forward_euler(rng):
    net = small_net(k=2, with_chord=False)
    init = unpack_agents(net, rng.standard_normal(5 * 2 * 2))
    eta = 0.01
    traj = run_discrete(net, init, eta, alpha=1.0, mu=1.0, T_iters=3)
    y = pack_agents(init)
    for step in range(3):
        y = y + eta * pack_agents(
            decentralized_field(net, unpack_agents(net, y), 1.0, 1.0))
        assert np.array_equal(y, traj.states[step + 1])


def test_discrete_tracks_continuous_flow(rng):
    net = small_net(k=2, with_chord=False)
    init = unpack_agents(net, 0.5 * rng.standard_normal(5 * 2 * 2))
    eta = 1e-4
    run = run_discrete(net, init, eta, alpha=1.0, mu=1.0, T_iters=10000)
    traj = simulate(net, init, IntegratorConfig(t_end=1.0, rel_tol=1e-10,
                                                abs_tol=1e-12), 1.0, 1.0)
    final_discrete = run.states[-1]
    final_cont = traj.states[-1]
    assert np.max(np.abs(final_discrete - final_cont)) < 1e-3


def test_identical_quadratics_reach_consensus():
    H = np.array([[2.0]])
    agents = [AgentData(f=SmoothBlock.quadratic(H, np.array([-2.0])),
                        g=prox.zero(), C=LinearOperator.identity((1,)))
              for _ in range(4)]
    net = Network(4, [(0, 1), (1, 2), (2, 3), (3, 0)], agents)
    init = unpack_agents(net, np.zeros(5 * 4))
    traj = run_discrete(net, init, eta=0.05, alpha=1.0, mu=1.0, T_iters=4000)
    xs = np.array([s.x[0] for s in unpack_agents(net, traj.states[-1])])
    assert np.max(np.abs(xs - xs.mean())) < 1e-6
    assert xs.mean() == pytest.approx(1.0, abs=1e-6)


def test_discrete_divergence_detected(rng):
    net = small_net(k=2, with_chord=False)
    init = unpack_agents(net, rng.standard_normal(5 * 2 * 2))
    with pytest.raises(DivergenceError) as err:
        run_discrete(net, init, eta=50.0, alpha=1.0, mu=1.0, T_iters=500)
    assert err.value.iteration == 4
    # a start already above the threshold diverges at the first step
    big = unpack_agents(net, 1e13 * pack_agents(init))
    with pytest.raises(DivergenceError) as err:
        run_discrete(net, big, eta=0.01, alpha=1.0, mu=1.0, T_iters=5)
    assert err.value.iteration == 0
    # each bad argument is named: a fractional T_iters once blamed max_steps,
    # a NaN one t_end, and a NaN eta the step h
    for eta in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="^eta"):
            run_discrete(net, init, eta=eta, alpha=1.0, mu=1.0, T_iters=5)
    for T_iters in (0, -1, 2.5, 3.0, np.nan):
        with pytest.raises(ValueError, match="^T_iters .* iterations"):
            run_discrete(net, init, eta=0.1, alpha=1.0, mu=1.0, T_iters=T_iters)


# alpha = 0 once failed as a non-finite state, alpha = -1 ran with the dual
# part ascending the wrong way, and a NaN failed as a stiff step
BAD_ALPHA_MU = [("alpha", 0.0, 1.0), ("alpha", -1.0, 1.0), ("alpha", np.nan, 1.0),
                ("alpha", np.inf, 1.0), ("mu", 1.0, 0.0), ("mu", 1.0, -2.0),
                ("mu", 1.0, np.nan)]


@pytest.mark.parametrize("name,alpha,mu", BAD_ALPHA_MU)
def test_discrete_rejects_nonfinite_or_nonpositive_alpha_and_mu(rng, name, alpha, mu):
    net = small_net(k=2, with_chord=False)
    init = unpack_agents(net, rng.standard_normal(5 * 2 * 2))
    with pytest.raises(ValueError, match=name):
        run_discrete(net, init, eta=0.01, alpha=alpha, mu=mu, T_iters=3)


@pytest.mark.parametrize("eta,T_iters", [(0.1, 3), (0.01, 7), (0.3, 3), (1e-3, 250)])
def test_discrete_keeps_every_iterate_with_one_round_each(rng, eta, T_iters):
    net = mixed_prox_net()
    init = unpack_agents(net, 0.3 * rng.standard_normal(2 * net.k * net.x_dim
                                                        + 3 * sum(net.z_dims)))
    traj = run_discrete(net, init, eta, alpha=1.3, mu=0.7, T_iters=T_iters)
    assert traj.termination == "t_end"
    assert len(traj.times) == T_iters + 1
    assert traj.times.tolist() == [k * eta for k in range(T_iters + 1)]
    assert traj.meta["n_evals"] == traj.meta["steps"] == T_iters
    # the iterates of the stand-alone Euler loop, to the bit
    y = pack_agents(init)
    assert np.array_equal(traj.states[0], y)
    for k in range(T_iters):
        y = y + eta * net.field(y, 1.3, 0.7)
        assert np.array_equal(traj.states[k + 1], y)


# -- message-passing simulation ----------------------------------------------

def test_simulate_message_accounting(rng):
    net = small_net(k=3)
    init = unpack_agents(net, 0.1 * rng.standard_normal(5 * 2 * 3))
    traj = simulate(net, init, IntegratorConfig(t_end=0.5), 1.0, 1.0)
    assert traj.meta["messages_per_round"] == 2 * len(net.edges)
    assert traj.meta["messages_total"] == 2 * len(net.edges) * traj.meta["rounds"]
    assert traj.meta["rounds"] > 0


@pytest.mark.parametrize("name,alpha,mu", BAD_ALPHA_MU)
def test_simulate_rejects_nonfinite_or_nonpositive_alpha_and_mu(name, alpha, mu):
    net = small_net(k=3)
    init = unpack_agents(net, np.zeros(5 * 2 * 3))
    with pytest.raises(ValueError, match=name):
        simulate(net, init, IntegratorConfig(t_end=0.5), alpha, mu)


def test_simulate_matches_centralized(rng):
    net = small_net()
    prob = assemble_consensus(net)
    s0 = prob.random_state(rng, scale=0.3)
    cfg = IntegratorConfig(t_end=10.0, rel_tol=1e-11, abs_tol=1e-13)
    central = flow.integrate(prob, s0, cfg)
    agents0 = agent_states_from_central(net, s0)
    dec = simulate(net, agents0, cfg, alpha=1.0, mu=1.0)
    final_central = agent_states_from_central(net, central.final_state())
    final_dec = unpack_agents(net, dec.states[-1])
    err = max(np.max(np.abs(getattr(a, f) - getattr(b, f)))
              for a, b in zip(final_central, final_dec)
              for f in ("x", "z", "y", "lam1", "lam2"))
    assert err < 1e-7


def test_simulate_counts_only_integrator_rounds(rng):
    net = small_net(k=3)
    init = unpack_agents(net, 0.1 * rng.standard_normal(5 * 2 * 3))
    traj = simulate(net, init, IntegratorConfig(method="rk4", h=0.1, t_end=1.0),
                    1.0, 1.0)
    assert traj.meta["rounds"] == 40            # 10 steps of 4 stages
    assert len(traj.diagnostics["field_norm"]) == len(traj.times) == 11
    traj = simulate(net, init, IntegratorConfig(method="euler", h=0.1, t_end=1.0),
                    1.0, 1.0)
    assert traj.meta["rounds"] == traj.meta["n_evals"] == 10


def test_simulate_rounds_are_the_steppers_calls(rng, monkeypatch):
    net = small_net(k=3)
    init = unpack_agents(net, 0.1 * rng.standard_normal(5 * 2 * 3))
    calls, field = [], net.field
    monkeypatch.setattr(net, "field", lambda *a: calls.append(1) or field(*a))
    traj = simulate(net, init, IntegratorConfig(t_end=2.0), 1.0, 1.0)
    # RK45 holds the field at its last step, so every call is a round
    assert traj.meta["rounds"] == traj.meta["n_evals"] == len(calls)


@pytest.mark.parametrize("method,h,stride", [("rk45", None, 1), ("rk45", None, 3),
                                             ("euler", 0.05, 1), ("rk4", 0.1, 3)])
def test_simulate_field_norms_are_the_decentralized_field(rng, method, h, stride):
    net = small_net(k=3)
    init = unpack_agents(net, 0.1 * rng.standard_normal(5 * 2 * 3))
    cfg = IntegratorConfig(method=method, h=h, t_end=1.0, record_stride=stride)
    traj = simulate(net, init, cfg, 1.0, 1.0)
    want = [np.linalg.norm(pack_agents(decentralized_field(
        net, unpack_agents(net, u), 1.0, 1.0))) for u in traj.states]
    assert traj.diagnostics["field_norm"].tolist() == want
    assert traj.meta["steps"] >= len(traj.times) - 1 > 0


# -- agent layout with unequal z dimensions ----------------------------------

def mixed_net(seed=0):
    """Path 0-1-2 whose local operators map R^3 to R^3, R^2 and R^4."""
    rng = np.random.default_rng(seed)
    Cs = [LinearOperator.identity((3,)),
          LinearOperator.from_matrix(rng.standard_normal((2, 3))),
          LinearOperator.from_matrix(rng.standard_normal((4, 3)))]
    agents = [AgentData(f=SmoothBlock.least_squares(rng.standard_normal((4, 3)),
                                                    rng.standard_normal(4)),
                        g=prox.l1(0.3), C=C) for C in Cs]
    return Network(3, [(1, 2), (0, 1)], agents)


def mixed_prox_net(seed=1):
    """Cycle of four agents on R^3: l1 terms of three weights around one
    group-lasso agent, with identity and random local maps."""
    rng = np.random.default_rng(seed)
    part = prox.GroupPartition([np.arange(2), np.arange(2, 4)], [0.5, 1.2], eta=0.1)
    local = [(prox.l1(0.3), LinearOperator.identity((3,))),
             (prox.l1(0.8), LinearOperator.from_matrix(rng.standard_normal((2, 3)))),
             (prox.group_lasso(part), LinearOperator.from_matrix(rng.standard_normal((4, 3)))),
             (prox.l1(1.5), LinearOperator.identity((3,)))]
    agents = [AgentData(f=SmoothBlock.least_squares(rng.standard_normal((4, 3)),
                                                    rng.standard_normal(4)),
                        g=g, C=C) for g, C in local]
    return Network(4, [(0, 1), (1, 2), (2, 3), (3, 0)], agents)


def test_layout_from_network():
    net = mixed_net()
    assert net.neighbors == [[1], [0, 2], [1]]
    assert net.x_dim == 3 and net.z_dims == [3, 2, 4]
    n = 2 * 3 * 3 + 3 * sum(net.z_dims)      # x and lam1; z, y and lam2
    covered = np.zeros(n, dtype=int)
    for sl in net.slices:
        for s in sl:
            covered[s] += 1
    assert np.all(covered == 1)


def test_pack_unpack_round_trip_mixed_dims(rng):
    net = mixed_net()
    flat = rng.standard_normal(2 * 3 * 3 + 3 * 9)
    states = unpack_agents(net, flat)
    assert [s.z.size for s in states] == [3, 2, 4]
    assert [s.lam1.size for s in states] == [3, 3, 3]
    assert np.array_equal(pack_agents(states), flat)
    orig = flat.copy()
    for st in states:                                  # copies, not views
        st.x[:] = st.z[:] = st.lam2[:] = 0.0
    assert np.array_equal(flat, orig)


def test_decentralized_matches_centralized_mixed_dims(rng):
    net = mixed_net()
    prob = assemble_consensus(net, mu=0.7, alpha=1.4)
    s = prob.random_state(rng)
    central = agent_states_from_central(net, vector_field(prob, s))
    local = decentralized_field(net, agent_states_from_central(net, s),
                                alpha=1.4, mu=0.7)
    ref = pack_agents(central)
    gap = np.max(np.abs(pack_agents(local) - ref))
    assert gap <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_network_rejects_mixed_local_dims():
    agents = [AgentData(f=SmoothBlock.quadratic(np.eye(d)), g=prox.l1(),
                        C=LinearOperator.identity((d,))) for d in (3, 2)]
    with pytest.raises(ValueError, match="common local dimension"):
        Network(2, [(0, 1)], agents)
    agents[1] = AgentData(f=SmoothBlock.quadratic(np.eye(3)), g=prox.l1(),
                          C=LinearOperator.from_matrix(np.ones((2, 2))))
    with pytest.raises(ValueError, match="local map C"):
        Network(2, [(0, 1)], agents)


# -- the packed message-passing field ----------------------------------------

@pytest.mark.parametrize("make_net", [small_net, lambda: small_net(k=5, with_chord=False),
                                      mixed_net, mixed_prox_net,
                                      lambda: gen_lasso_network(6, 4, seed=2)[0]],
                         ids=["triangle", "path", "mixed", "mixed_prox", "lasso"])
@pytest.mark.parametrize("alpha,mu", [(1.0, 1.0), (1.3, 0.7)])
def test_network_field_is_the_per_agent_loop(rng, make_net, alpha, mu):
    net = make_net()
    n = 2 * net.k * net.x_dim + 3 * sum(net.z_dims)
    for _ in range(20):
        u = rng.standard_normal(n)
        want = reference_decentralized_field(net, unpack_agents(net, u), alpha, mu)
        assert np.array_equal(net.field(u, alpha, mu), pack_agents(want))


def _always_scaled_packed(net, u, alpha, mu):
    """``Network.field`` with every pass that multiplies or divides by
    ``alpha``, ``mu`` or ``alpha * mu`` taken, each agent's prox its own
    call and each part a fresh array: the reference that skipping a unit
    scale's passes must equal to the bit."""
    (xs, zs, ys, l1s, l2s), deg, A, C, Ct, grads, _ = net._field_ops
    x, z, y, lam1, lam2 = u[xs], u[zs], u[ys], u[l1s], u[l2s]
    v = z + mu * y
    prox_out = np.concatenate([vec(a.g.prox(mu, unvec(v[sl], a.C.out_shape)))
                               for a, sl in zip(net.agents, net.z_slices)])
    lam1_dot = alpha * (deg * x - A(x))
    lam2_dot = alpha * (C(x) - z)
    y_dot = alpha * (z - prox_out)
    z_dot = -y - y_dot / (alpha * mu) + lam2 + lam2_dot / (alpha * mu)
    x_dot = (-grads.grad(x) - lam1 - Ct(lam2)
             - (lam1_dot + Ct(lam2_dot)) / (alpha * mu))
    return np.concatenate([x_dot, z_dot, y_dot, lam1_dot, lam2_dot])


@pytest.mark.parametrize("make_net", [small_net, mixed_net, mixed_prox_net,
                                      lambda: gen_lasso_network(5, 20, 3, seed=0)[0]],
                         ids=["triangle", "mixed", "mixed_prox", "lasso"])
# both unit, neither, a unit mu only, and alpha * mu == 1
@pytest.mark.parametrize("alpha,mu", [(1.0, 1.0), (2.5, 0.3), (2.5, 1.0), (0.4, 2.5)])
def test_network_field_unit_scales_cost_no_bit(rng, make_net, alpha, mu):
    """Where alpha, mu or alpha * mu is 1 the packed field skips the pass
    that scales by it; returned or written into ``out``, it equals the
    always-scaling form, value and sign bit, also on states holding zeros
    of either sign."""
    net = make_net()
    n = 2 * net.k * net.x_dim + 3 * sum(net.z_dims)
    for i in range(6):
        u = rng.standard_normal(n)
        if i % 2:
            u[rng.random(n) < 0.2] = 0.0
            u[rng.random(n) < 0.2] = -0.0
        want = _always_scaled_packed(net, u, alpha, mu)
        assert same_doubles(net.field(u, alpha, mu), want)
        out = np.full(n, np.nan)
        assert net.field(u, alpha, mu, out) is out and same_doubles(out, want)


@pytest.mark.parametrize("mu", [1.0, 0.7, 1.6])
def test_simulate_leaves_the_plan_arrays_unchanged(rng, mu):
    net = mixed_prox_net()
    proxes = net._field_ops[-1]
    part = net.agents[2].g.meta["partition"]
    held = [w for _, w, _, _ in proxes.runs if w is not None]
    held += [proxes.l1_weight, part.weights, part.live_weights]
    before = [a.copy() for a in held]
    init = unpack_agents(net, 0.3 * rng.standard_normal(2 * 4 * 3 + 3 * 12))
    simulate(net, init, IntegratorConfig(t_end=2.0), 1.3, mu)
    assert all(same_doubles(a, b) for a, b in zip(held, before))


@pytest.mark.parametrize("method,h,stride", [("rk45", None, 1), ("rk45", None, 3),
                                             ("rk4", 0.1, 1)])
def test_simulate_is_the_reference_flow(rng, method, h, stride):
    net = mixed_net()
    init = unpack_agents(net, 0.3 * rng.standard_normal(2 * 3 * 3 + 3 * 9))
    cfg = IntegratorConfig(method=method, h=h, t_end=2.0, record_stride=stride)
    traj = simulate(net, init, cfg, alpha=1.3, mu=0.7)

    def ref(t, y):
        return pack_agents(reference_decentralized_field(
            net, unpack_agents(net, y), 1.3, 0.7))

    # the reference caps steps and cuts rejected ones at the same l1 kinks
    run = flow.integrate_ode(ref, pack_agents(init), cfg, switching=net.switching(0.7))
    assert np.array_equal(traj.times, run.times)
    assert np.array_equal(traj.states, run.states)
    for key in ("n_evals", "rejected", "kink_cuts", "kink_caps"):
        assert traj.meta[key] == run.meta[key]


def test_a_group_lasso_agent_is_switched(rng):
    """The group-lasso agent of ``mixed_prox_net`` puts its groups into the
    network's switching functions, at its packed ``z`` and ``y`` entries.
    ``simulate`` is capped at them: it equals the reference field run with
    those switching functions, and not the run without the groups."""
    net = mixed_prox_net()
    (_, zs, ys, _, _), *_ = net._field_ops
    part = net.agents[2].g.meta["partition"]
    at = net.z_slices[2].start + part.order
    sw = net.switching(0.7)
    assert np.array_equal(sw.gz, zs.start + at) and np.array_equal(sw.gy, ys.start + at)
    init = unpack_agents(net, rng.standard_normal(2 * 4 * 3 + 3 * 12))
    cfg = IntegratorConfig(t_end=2.0)
    traj = simulate(net, init, cfg, alpha=1.3, mu=0.7)

    def ref(t, y):
        return pack_agents(reference_decentralized_field(
            net, unpack_agents(net, y), 1.3, 0.7))

    run = flow.integrate_ode(ref, pack_agents(init), cfg, switching=sw)
    assert np.array_equal(traj.times, run.times)
    assert np.array_equal(traj.states, run.states)
    for key in ("n_evals", "rejected", "kink_cuts", "kink_caps"):
        assert traj.meta[key] == run.meta[key]
    sw.gz = None        # the l1 entries alone
    l1_only = flow.integrate_ode(ref, pack_agents(init), cfg, switching=sw)
    assert traj.meta["kink_caps"] > l1_only.meta["kink_caps"]


def test_network_adjacency_is_the_edge_lists():
    net = gen_lasso_network(5, 20)[0]
    d = net.x_dim
    nbrs = [[] for _ in range(net.k)]
    for i, j in net.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    assert net.neighbors == [sorted(nb) for nb in nbrs]
    rows = [i for i, nb in enumerate(net.neighbors) for _ in nb]
    cols = [j for nb in net.neighbors for j in nb]
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(net.k, net.k))
    want = sp.kron(adj, sp.identity(d), format="csr")
    want.sort_indices()
    got = sp.kron(net.adjacency, sp.identity(d), format="csr")
    got.sort_indices()
    for a in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, a), getattr(want, a))


def test_network_builds_field_operators_on_first_use(rng):
    net = gen_lasso_network(6, 4, seed=2)[0]
    assert "_field_ops" not in vars(net)
    net.field(rng.standard_normal(2 * 6 * 4 + 3 * 6 * 4), 1.0, 1.0)
    assert "_field_ops" in vars(net)


def test_lasso_plans_fuse_every_agents_least_squares(rng):
    net = gen_lasso_network(5, 20)[0]
    prob = assemble_consensus(net)
    grads = net._field_ops[-2]
    for plan in (prob.kernel.x_plan, grads):
        assert [(sl.start, sl.stop) for sl, _, _, _ in plan.runs] == [(0, 100)]
    for _ in range(5):
        x = rng.standard_normal(prob.m)
        want = np.concatenate(prob.f_grad(np.split(x, net.k)))
        assert np.array_equal(prob.kernel.x_plan.grad(x), want)
        assert np.array_equal(grads.grad(x), want)


def test_lasso_construction_builds_no_sparse_matrix(monkeypatch):
    def refuse(mats):
        raise AssertionError("built a block-diagonal matrix")

    monkeypatch.setattr(problem, "block_diagonal", refuse)
    net, ref = gen_lasso_network(5, 20)
    prob = assemble_consensus(net)
    monkeypatch.undo()
    cfg = IntegratorConfig(t_end=600.0, stop_kkt=1e-4)
    traj = flow.integrate(prob, prob.zero_state(), cfg)
    assert traj.termination == "stop_kkt"
    x = prob.unpack(traj.states[-1]).x
    assert np.max(np.abs(np.mean(x, axis=0) - ref.meta["x_star"])) < 1e-2
